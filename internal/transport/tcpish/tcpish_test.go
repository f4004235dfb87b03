package tcpish_test

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
	sch := exp.SchemeTCP()
	s := exp.NewSim(17, sch, exp.PairNet(sch, 1, func(c *fabric.SwitchConfig) { c.LossRate = loss }))
	s.ScheduleFlows([]*workload.Flow{{ID: 1, Src: 0, Dst: 1, Size: size}})
	if left := s.Run(120 * units.Second); left != 0 {
		t.Fatalf("unfinished at %v", s.Eng.Now())
	}
	return s.Col.Flow(1)
}

func TestCPUBoundThroughput(t *testing.T) {
	// The Fig. 8 point: software TCP cannot reach line rate; it is bounded
	// by the modeled host CPU (40 Gbps) and stack latency.
	rec := run(t, 64<<20, 0)
	gp := stats.Goodput(rec.Size, rec.FCT())
	if gp > 45 {
		t.Fatalf("TCP too fast (%.1f Gbps): stack cost not applied", gp)
	}
	if gp < 15 {
		t.Fatalf("TCP too slow (%.1f Gbps)", gp)
	}
}

func TestStackLatencyDominatesSmallMessages(t *testing.T) {
	rec := run(t, 64, 0)
	// Two stack traversals (send + receive) plus wire: ≥ 24 µs.
	if rec.FCT() < 24*units.Microsecond {
		t.Fatalf("latency %v too low for a software stack", rec.FCT())
	}
}

func TestFastRetransmitOnLoss(t *testing.T) {
	rec := run(t, 8<<20, 0.005)
	if rec.RetransPkts == 0 {
		t.Fatal("loss must trigger retransmission")
	}
	if !rec.Done {
		t.Fatal("must complete")
	}
}

func TestSlowStartRampsUp(t *testing.T) {
	// A short flow finishes before slow start fills the pipe, so its
	// achieved goodput must be well below a long flow's.
	short := run(t, 256<<10, 0)
	long := run(t, 64<<20, 0)
	gpShort := stats.Goodput(short.Size, short.FCT())
	gpLong := stats.Goodput(long.Size, long.FCT())
	if gpShort >= gpLong {
		t.Fatalf("slow start missing: short %.1f ≥ long %.1f", gpShort, gpLong)
	}
}
