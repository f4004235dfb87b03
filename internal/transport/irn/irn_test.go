package irn_test

import (
	"testing"

	"dcpsim/internal/exp"
	"dcpsim/internal/fabric"
	"dcpsim/internal/sim"
	"dcpsim/internal/stats"
	"dcpsim/internal/topo"
	"dcpsim/internal/units"
	"dcpsim/internal/workload"
)

func runFlow(t *testing.T, sch exp.Scheme, size int64, mutate func(*fabric.SwitchConfig), cross int) (*exp.Sim, *stats.FlowRecord) {
	t.Helper()
	s := exp.NewSim(5, sch, exp.PairNet(sch, cross, mutate))
	s.ScheduleFlows([]*workload.Flow{{ID: 1, Src: 0, Dst: 1, Size: size}})
	if left := s.Run(60 * units.Second); left != 0 {
		t.Fatalf("unfinished at %v", s.Eng.Now())
	}
	return s, s.Col.Flow(1)
}

func TestCleanSinglePathNoRetrans(t *testing.T) {
	// On a single path with no loss, IRN behaves perfectly.
	_, rec := runFlow(t, exp.SchemeIRN(fabric.LBECMP, false), 20<<20, nil, 1)
	if rec.RetransPkts != 0 || rec.Timeouts != 0 {
		t.Fatalf("clean run: retrans=%d timeouts=%d", rec.RetransPkts, rec.Timeouts)
	}
	if gp := stats.Goodput(rec.Size, rec.FCT()); gp < 85 {
		t.Fatalf("goodput %.1f", gp)
	}
}

func TestSelectiveRepairUnderLoss(t *testing.T) {
	s, rec := runFlow(t, exp.SchemeIRN(fabric.LBECMP, false), 20<<20,
		func(c *fabric.SwitchConfig) { c.LossRate = 0.01 }, 1)
	drops := s.Net.Counters().DroppedData
	if rec.RetransPkts == 0 {
		t.Fatal("expected retransmissions")
	}
	// Selective repeat: retransmissions stay within a small factor of
	// actual drops (unlike GBN's window-sized rewinds).
	if rec.RetransPkts > 3*drops+10 {
		t.Fatalf("SR should not amplify: %d retrans for %d drops", rec.RetransPkts, drops)
	}
	if gp := stats.Goodput(rec.Size, rec.FCT()); gp < 40 {
		t.Fatalf("goodput %.1f under 1%% loss", gp)
	}
}

func TestSpuriousRetransUnderSpray(t *testing.T) {
	// Issue #1 (§2.2): packet-level LB reorders; IRN misreads OOO as loss
	// and retransmits spuriously even with zero drops.
	sch := exp.SchemeIRN(fabric.LBSpray, false)
	s := exp.NewSim(5, sch, func(eng *sim.Engine) *topo.Network {
		cfg := topo.DefaultDumbbell()
		cfg.HostsPerSwitch = 1
		cfg.CrossLinks = 4
		// Unequal path rates make spraying reorder heavily.
		cfg.CrossRates = []units.Rate{100 * units.Gbps, 50 * units.Gbps, 25 * units.Gbps, 100 * units.Gbps}
		cfg.Switch = exp.SwitchConfigFor(sch)
		return topo.Dumbbell(eng, cfg)
	})
	s.ScheduleFlows([]*workload.Flow{{ID: 1, Src: 0, Dst: 1, Size: 20 << 20}})
	if left := s.Run(60 * units.Second); left != 0 {
		t.Fatal("unfinished")
	}
	rec := s.Col.Flow(1)
	if d := s.Net.Counters().DroppedData; d != 0 {
		t.Fatalf("setup broken: %d real drops", d)
	}
	if rec.RetransPkts == 0 {
		t.Fatal("reordering must cause spurious retransmissions in IRN")
	}
}

func TestTailLossNeedsTimeout(t *testing.T) {
	// Issue #2 (§2.2): if only the tail packet drops there is no SACK
	// trigger, so recovery must come from an RTO.
	sch := exp.SchemeIRN(fabric.LBECMP, false)
	sch.Tweak = nil
	// Tiny flow with high loss: with 3 packets, a tail drop is likely
	// across seeds; assert that *some* run needs a timeout.
	sawTimeout := false
	for seed := int64(0); seed < 10 && !sawTimeout; seed++ {
		s := exp.NewSim(seed, sch, exp.PairNet(sch, 1, func(c *fabric.SwitchConfig) { c.LossRate = 0.3 }))
		s.ScheduleFlows([]*workload.Flow{{ID: 1, Src: 0, Dst: 1, Size: 3000}})
		if s.Run(60*units.Second) != 0 {
			t.Fatal("unfinished")
		}
		if s.Col.Flow(1).Timeouts > 0 {
			sawTimeout = true
		}
	}
	if !sawTimeout {
		t.Fatal("tail losses should require RTOs in IRN")
	}
}

func TestRecoveryEpisodeSingleRetransmit(t *testing.T) {
	// Within one loss-recovery episode each packet is retransmitted at
	// most once: under persistent heavy loss the retransmissions are
	// bounded by episodes × window, not unbounded.
	s, rec := runFlow(t, exp.SchemeIRN(fabric.LBECMP, false), 4<<20,
		func(c *fabric.SwitchConfig) { c.LossRate = 0.05 }, 1)
	total := rec.DataPkts + rec.RetransPkts
	if rec.RetransPkts > rec.DataPkts {
		t.Fatalf("retransmissions exceed data: %d > %d", rec.RetransPkts, rec.DataPkts)
	}
	_ = s
	_ = total
}

func TestBidirectionalWithLoss(t *testing.T) {
	sch := exp.SchemeIRN(fabric.LBECMP, false)
	s := exp.NewSim(5, sch, exp.PairNet(sch, 1, func(c *fabric.SwitchConfig) { c.LossRate = 0.01 }))
	s.ScheduleFlows([]*workload.Flow{
		{ID: 1, Src: 0, Dst: 1, Size: 4 << 20},
		{ID: 2, Src: 1, Dst: 0, Size: 4 << 20},
	})
	if s.Run(60*units.Second) != 0 {
		t.Fatal("unfinished")
	}
}
