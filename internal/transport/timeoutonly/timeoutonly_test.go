package timeoutonly_test

import (
	"testing"

	"dcpsim/internal/exp"
	"dcpsim/internal/fabric"
	"dcpsim/internal/stats"
	"dcpsim/internal/units"
	"dcpsim/internal/workload"
)

func run(t *testing.T, size int64, loss float64) *stats.FlowRecord {
	t.Helper()
	sch := exp.SchemeTimeout()
	s := exp.NewSim(13, sch, exp.PairNet(sch, 1, func(c *fabric.SwitchConfig) { c.LossRate = loss }))
	s.ScheduleFlows([]*workload.Flow{{ID: 1, Src: 0, Dst: 1, Size: size}})
	if left := s.Run(120 * units.Second); left != 0 {
		t.Fatalf("unfinished at %v", s.Eng.Now())
	}
	return s.Col.Flow(1)
}

func TestCleanTransfer(t *testing.T) {
	rec := run(t, 20<<20, 0)
	if rec.Timeouts != 0 || rec.RetransPkts != 0 {
		t.Fatal("clean run needs no recovery")
	}
	if gp := stats.Goodput(rec.Size, rec.FCT()); gp < 85 {
		t.Fatalf("goodput %.1f", gp)
	}
}

func TestAllRecoveryViaRTO(t *testing.T) {
	rec := run(t, 8<<20, 0.01)
	if rec.Timeouts == 0 {
		t.Fatal("timeout-only recovery must use RTOs")
	}
	if rec.RetransPkts == 0 {
		t.Fatal("must retransmit")
	}
}

func TestSharpDegradationWithLoss(t *testing.T) {
	// Fig. 17: the timeout-based scheme degrades sharply as loss grows —
	// each loss stalls the pipe for a full RTO.
	clean := run(t, 8<<20, 0)
	lossy := run(t, 8<<20, 0.01)
	gpClean := stats.Goodput(clean.Size, clean.FCT())
	gpLossy := stats.Goodput(lossy.Size, lossy.FCT())
	if gpLossy > gpClean/4 {
		t.Fatalf("expected sharp degradation: %.1f vs %.1f Gbps", gpLossy, gpClean)
	}
}

func TestOrderTolerantReceiver(t *testing.T) {
	// The receiver tracks OOO arrivals in its bitmap (Spectrum Write-Only
	// conversion): after a rewind, duplicates are absorbed and the flow
	// completes exactly.
	rec := run(t, 4<<20, 0.05)
	if !rec.Done {
		t.Fatal("must complete despite heavy loss")
	}
}
