package racktlp_test

import (
	"testing"

	"dcpsim/internal/exp"
	"dcpsim/internal/fabric"
	"dcpsim/internal/stats"
	"dcpsim/internal/units"
	"dcpsim/internal/workload"
)

func run(t *testing.T, sch exp.Scheme, size int64, loss float64, seed int64) *stats.FlowRecord {
	t.Helper()
	s := exp.NewSim(seed, sch, exp.PairNet(sch, 1, func(c *fabric.SwitchConfig) { c.LossRate = loss }))
	s.ScheduleFlows([]*workload.Flow{{ID: 1, Src: 0, Dst: 1, Size: size}})
	if left := s.Run(120 * units.Second); left != 0 {
		t.Fatalf("unfinished at %v", s.Eng.Now())
	}
	return s.Col.Flow(1)
}

func TestCleanTransfer(t *testing.T) {
	rec := run(t, exp.SchemeRACK(), 20<<20, 0, 11)
	if rec.RetransPkts != 0 {
		t.Fatal("no loss: no retransmissions")
	}
	if gp := stats.Goodput(rec.Size, rec.FCT()); gp < 85 {
		t.Fatalf("goodput %.1f", gp)
	}
}

func TestRecoversFromLoss(t *testing.T) {
	rec := run(t, exp.SchemeRACK(), 20<<20, 0.01, 11)
	if rec.RetransPkts == 0 {
		t.Fatal("expected RACK retransmissions")
	}
	if gp := stats.Goodput(rec.Size, rec.FCT()); gp < 30 {
		t.Fatalf("goodput %.1f under 1%% loss", gp)
	}
}

func TestBeatsTimeoutOnlyUnderLoss(t *testing.T) {
	// Fig. 17: RACK-TLP recovers faster than the timeout-only scheme (it
	// retransmits after ~1 RTT instead of an RTO) but slower than DCP.
	rack := run(t, exp.SchemeRACK(), 8<<20, 0.02, 11)
	tmo := run(t, exp.SchemeTimeout(), 8<<20, 0.02, 11)
	dcp := run(t, exp.SchemeDCP(false), 8<<20, 0.02, 11)
	if rack.FCT() >= tmo.FCT() {
		t.Fatalf("RACK (%v) should beat timeout-only (%v)", rack.FCT(), tmo.FCT())
	}
	if dcp.FCT() >= rack.FCT() {
		t.Fatalf("DCP (%v) should beat RACK (%v)", dcp.FCT(), rack.FCT())
	}
}

func TestTailLossProbe(t *testing.T) {
	// Drop-heavy tiny flows: the TLP mechanism (not the full RTO) should
	// usually recover tail losses; assert eventual completion for many
	// seeds without excessive timeouts.
	var totalTimeouts int64
	for seed := int64(0); seed < 8; seed++ {
		rec := run(t, exp.SchemeRACK(), 5000, 0.2, seed)
		totalTimeouts += rec.Timeouts
	}
	if totalTimeouts > 8 {
		t.Fatalf("TLP should absorb most tail losses; %d RTOs across seeds", totalTimeouts)
	}
}

func TestToleratesReordering(t *testing.T) {
	// RACK's reordering window avoids spurious retransmissions for mild
	// reordering (its design goal vs plain dupack counting).
	sch := exp.SchemeRACK()
	sch.LB = fabric.LBSpray
	s := exp.NewSim(11, sch, exp.PairNet(sch, 2, nil))
	s.ScheduleFlows([]*workload.Flow{{ID: 1, Src: 0, Dst: 1, Size: 8 << 20}})
	if s.Run(30*units.Second) != 0 {
		t.Fatal("unfinished")
	}
	rec := s.Col.Flow(1)
	// Equal-rate paths reorder only slightly; the reordering window must
	// suppress nearly all spurious retransmissions.
	if rec.RetransPkts > rec.DataPkts/50 {
		t.Fatalf("too many spurious retransmissions: %d of %d", rec.RetransPkts, rec.DataPkts)
	}
}
