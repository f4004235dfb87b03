package mprdma_test

import (
	"testing"

	"dcpsim/internal/exp"
	"dcpsim/internal/packet"
	"dcpsim/internal/sim"
	"dcpsim/internal/stats"
	"dcpsim/internal/topo"
	"dcpsim/internal/transport/base"
	"dcpsim/internal/units"
	"dcpsim/internal/workload"
)

func TestCompletesOverLosslessFabric(t *testing.T) {
	sch := exp.SchemeMPRDMA()
	s := exp.NewSim(9, sch, exp.PairNet(sch, 4, nil))
	s.ScheduleFlows([]*workload.Flow{{ID: 1, Src: 0, Dst: 1, Size: 20 << 20}})
	if s.Run(10*units.Second) != 0 {
		t.Fatal("unfinished")
	}
	rec := s.Col.Flow(1)
	if gp := stats.Goodput(rec.Size, rec.FCT()); gp < 50 {
		t.Fatalf("goodput %.1f", gp)
	}
	if s.Net.Counters().DroppedData != 0 {
		t.Fatal("lossless fabric must not drop")
	}
}

func TestUsesMultiplePaths(t *testing.T) {
	// With per-packet virtual paths, ECMP hashing must spread one flow
	// across several cross links.
	sch := exp.SchemeMPRDMA()
	s := exp.NewSim(9, sch, exp.PairNet(sch, 4, nil))
	s.ScheduleFlows([]*workload.Flow{{ID: 1, Src: 0, Dst: 1, Size: 8 << 20}})
	if s.Run(10*units.Second) != 0 {
		t.Fatal("unfinished")
	}
	// Cross ports on switch 1 are egress indices 1..4 (0 is host-facing).
	sw := s.Net.Switches[0]
	used := 0
	for i := 0; i < sw.NumEgress(); i++ {
		if sw.EgressAt(i).Port.TxPackets > 100 {
			used++
		}
	}
	if used < 3 {
		t.Fatalf("flow used only %d ports; multipath broken", used)
	}
}

func TestOOOWindowTriggersGoBackN(t *testing.T) {
	// A tiny OOO window over many unequal paths forces receiver-side
	// drops and Go-Back-N recovery — the MP-RDMA weakness the paper
	// discusses (§6.2: "fails to effectively control the OOO degree").
	sch := exp.SchemeMPRDMA()
	sch.Tweak = func(e *base.Env) { e.MP.OOOWindow = 4 }
	s := exp.NewSim(9, sch, func(eng *sim.Engine) *topo.Network {
		cfg := topo.DefaultDumbbell()
		cfg.HostsPerSwitch = 1
		cfg.CrossLinks = 4
		// Heterogeneous path rates maximize reordering.
		cfg.CrossRates = []units.Rate{100 * units.Gbps, 25 * units.Gbps, 50 * units.Gbps, 10 * units.Gbps}
		cfg.Switch = exp.SwitchConfigFor(sch)
		return topo.Dumbbell(eng, cfg)
	})
	s.ScheduleFlows([]*workload.Flow{{ID: 1, Src: 0, Dst: 1, Size: 8 << 20}})
	if s.Run(30*units.Second) != 0 {
		t.Fatal("unfinished")
	}
	rec := s.Col.Flow(1)
	if rec.RetransPkts == 0 {
		t.Fatal("OOO-window overflow must force retransmissions")
	}
}

func TestECNWindowReduces(t *testing.T) {
	// Congestion (many-to-one) must mark ECN and keep the fabric paused
	// rather than dropping; the adaptive window prevents collapse.
	sch := exp.SchemeMPRDMA()
	s := exp.NewSim(9, sch, func(eng *sim.Engine) *topo.Network {
		cfg := topo.DefaultDumbbell()
		cfg.Switch = exp.SwitchConfigFor(sch)
		return topo.Dumbbell(eng, cfg)
	})
	var flows []*workload.Flow
	for i := uint64(0); i < 6; i++ {
		flows = append(flows, &workload.Flow{ID: i + 1, Src: packet.NodeID(i), Dst: 15, Size: 4 << 20})
	}
	s.ScheduleFlows(flows)
	if s.Run(10*units.Second) != 0 {
		t.Fatal("unfinished")
	}
	if s.Net.Counters().ECNMarked == 0 {
		t.Fatal("incast must mark ECN for MP-RDMA's window")
	}
	if s.Net.Counters().DroppedData != 0 {
		t.Fatal("lossless fabric must not drop")
	}
}
