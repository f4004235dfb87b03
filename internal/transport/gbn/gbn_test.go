package gbn_test

import (
	"testing"

	"dcpsim/internal/exp"
	"dcpsim/internal/fabric"
	"dcpsim/internal/packet"
	"dcpsim/internal/sim"
	"dcpsim/internal/stats"
	"dcpsim/internal/topo"
	"dcpsim/internal/units"
	"dcpsim/internal/workload"
)

func TestCleanTransfer(t *testing.T) {
	sch := exp.SchemeGBNLossy(fabric.LBECMP)
	s := exp.NewSim(3, sch, exp.PairNet(sch, 1, nil))
	s.ScheduleFlows([]*workload.Flow{{ID: 1, Src: 0, Dst: 1, Size: 20 << 20}})
	if s.Run(units.Second) != 0 {
		t.Fatal("unfinished")
	}
	rec := s.Col.Flow(1)
	if rec.RetransPkts != 0 || rec.Timeouts != 0 {
		t.Fatal("no loss: no recovery expected")
	}
	if gp := stats.Goodput(rec.Size, rec.FCT()); gp < 85 {
		t.Fatalf("goodput %.1f", gp)
	}
}

func TestGoBackNUnderLoss(t *testing.T) {
	sch := exp.SchemeGBNLossy(fabric.LBECMP)
	s := exp.NewSim(3, sch, exp.PairNet(sch, 1, func(c *fabric.SwitchConfig) { c.LossRate = 0.01 }))
	s.ScheduleFlows([]*workload.Flow{{ID: 1, Src: 0, Dst: 1, Size: 20 << 20}})
	if s.Run(30*units.Second) != 0 {
		t.Fatal("unfinished")
	}
	rec := s.Col.Flow(1)
	if rec.RetransPkts == 0 {
		t.Fatal("loss must rewind")
	}
	// The GBN signature: a single loss retransmits the whole window, so
	// retransmissions far exceed actual drops.
	drops := s.Net.Counters().DroppedData
	if rec.RetransPkts < 3*drops {
		t.Fatalf("GBN amplification missing: %d retrans for %d drops", rec.RetransPkts, drops)
	}
}

func TestGoodputCollapsesAtHighLoss(t *testing.T) {
	// The Fig. 10 claim: CX5 goodput collapses as loss grows.
	run := func(loss float64) float64 {
		sch := exp.SchemeGBNLossy(fabric.LBECMP)
		s := exp.NewSim(3, sch, exp.PairNet(sch, 1, func(c *fabric.SwitchConfig) { c.LossRate = loss }))
		s.ScheduleFlows([]*workload.Flow{{ID: 1, Src: 0, Dst: 1, Size: 8 << 20}})
		if s.Run(60*units.Second) != 0 {
			t.Fatal("unfinished")
		}
		rec := s.Col.Flow(1)
		return stats.Goodput(rec.Size, rec.FCT())
	}
	clean, lossy := run(0), run(0.05)
	if lossy > clean/5 {
		t.Fatalf("5%% loss should collapse GBN: %.1f vs %.1f Gbps", lossy, clean)
	}
}

func TestLosslessPFCNoRetrans(t *testing.T) {
	// Over a PFC fabric GBN never needs recovery, even under incast.
	sch := exp.SchemePFC()
	s := exp.NewSim(3, sch, func(eng *sim.Engine) *topo.Network {
		cfg := topo.DefaultDumbbell()
		cfg.Switch = exp.SwitchConfigFor(sch)
		return topo.Dumbbell(eng, cfg)
	})
	var flows []*workload.Flow
	for i := uint64(0); i < 6; i++ {
		flows = append(flows, &workload.Flow{ID: i + 1, Src: packet.NodeID(i), Dst: 15, Size: 4 << 20})
	}
	s.ScheduleFlows(flows)
	if s.Run(5*units.Second) != 0 {
		t.Fatal("unfinished")
	}
	c := s.Net.Counters()
	if c.DroppedData != 0 {
		t.Fatal("PFC fabric must not drop")
	}
	if c.PauseOn == 0 {
		t.Fatal("incast should trigger PFC pauses")
	}
	for _, f := range s.Col.Flows() {
		if f.RetransPkts != 0 {
			t.Fatal("no retransmissions under PFC")
		}
	}
}

func TestBidirectional(t *testing.T) {
	sch := exp.SchemeGBNLossy(fabric.LBECMP)
	s := exp.NewSim(3, sch, exp.PairNet(sch, 1, nil))
	s.ScheduleFlows([]*workload.Flow{
		{ID: 1, Src: 0, Dst: 1, Size: 4 << 20},
		{ID: 2, Src: 1, Dst: 0, Size: 4 << 20},
	})
	if s.Run(units.Second) != 0 {
		t.Fatal("unfinished")
	}
}
