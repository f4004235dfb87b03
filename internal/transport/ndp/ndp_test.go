package ndp_test

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

func run(t *testing.T, size int64, loss float64, seed int64) (*exp.Sim, *stats.FlowRecord) {
	t.Helper()
	sch := exp.SchemeNDP()
	s := exp.NewSim(seed, sch, exp.PairNet(sch, 1, func(c *fabric.SwitchConfig) { c.LossRate = loss }))
	s.ScheduleFlows([]*workload.Flow{{ID: 1, Src: 0, Dst: 1, Size: size}})
	if left := s.Run(60 * units.Second); left != 0 {
		t.Fatalf("unfinished at %v", s.Eng.Now())
	}
	return s, s.Col.Flow(1)
}

func TestCleanTransfer(t *testing.T) {
	_, rec := run(t, 20<<20, 0, 1)
	if gp := stats.Goodput(rec.Size, rec.FCT()); gp < 70 {
		t.Fatalf("goodput %.1f", gp)
	}
	if rec.RetransPkts != 0 || rec.Timeouts != 0 {
		t.Fatal("clean transfer")
	}
}

func TestPullClockedRecovery(t *testing.T) {
	s, rec := run(t, 20<<20, 0.02, 1)
	if rec.Timeouts != 0 {
		t.Fatalf("trim-triggered NACK+pull should avoid RTOs, saw %d", rec.Timeouts)
	}
	if rec.RetransPkts == 0 {
		t.Fatal("loss must retransmit")
	}
	c := s.Net.Counters()
	if c.TrimmedPkts == 0 {
		t.Fatal("forced loss must trim")
	}
	// Pulled retransmissions are precise: bounded by trims.
	if rec.RetransPkts > c.TrimmedPkts+int64(rec.Timeouts)*2 {
		t.Fatalf("retrans %d exceed trims %d", rec.RetransPkts, c.TrimmedPkts)
	}
	if gp := stats.Goodput(rec.Size, rec.FCT()); gp < 50 {
		t.Fatalf("goodput %.1f under 2%% loss", gp)
	}
}

// TestIncastReceiverPacing: NDP's receiver paces senders after the first
// blind window, so an incast keeps queues bounded to ~one window and
// everything completes without timeouts.
func TestIncastReceiverPacing(t *testing.T) {
	sch := exp.SchemeNDP()
	s := exp.NewSim(2, sch, func(eng *sim.Engine) *topo.Network {
		cfg := topo.DefaultDumbbell()
		cfg.Switch = exp.SwitchConfigFor(sch)
		return topo.Dumbbell(eng, cfg)
	})
	var flows []*workload.Flow
	for i := uint64(0); i < 8; i++ {
		flows = append(flows, &workload.Flow{ID: i + 1, Src: packet.NodeID(i), Dst: 15, Size: 2 << 20})
	}
	s.ScheduleFlows(flows)
	if left := s.Run(10 * units.Second); left != 0 {
		t.Fatalf("%d unfinished", left)
	}
	for _, f := range s.Col.Flows() {
		if f.Timeouts != 0 {
			t.Fatalf("flow %d needed %d timeouts", f.ID, f.Timeouts)
		}
	}
}

func TestSafetyTimerCoversDeadControlPlane(t *testing.T) {
	sch := exp.SchemeNDP()
	s := exp.NewSim(3, sch, exp.PairNet(sch, 1, func(c *fabric.SwitchConfig) {
		c.LossRate = 0.02
		c.CtrlQueueCap = 0 // headers all dropped: NACKs never form
	}))
	s.ScheduleFlows([]*workload.Flow{{ID: 1, Src: 0, Dst: 1, Size: 1 << 20}})
	if left := s.Run(120 * units.Second); left != 0 {
		t.Fatal("unfinished")
	}
	if s.Col.Flow(1).Timeouts == 0 {
		t.Fatal("safety timer must carry a dead control plane")
	}
}
