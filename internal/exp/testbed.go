package exp

import (
	"fmt"

	"dcpsim/internal/fabric"
	"dcpsim/internal/packet"
	"dcpsim/internal/sim"
	"dcpsim/internal/stats"
	"dcpsim/internal/topo"
	"dcpsim/internal/units"
	"dcpsim/internal/workload"
)

// The experiments in this file (and clos.go, ablation.go, faults.go) are
// structured as pure cell-builders over the sweep/grid primitives in
// parallel.go: the parameter axes are enumerated up front, each cell builds
// and runs its own isolated Sim(s) from the cell-scoped Config, and the
// table rendering below the sweep consumes cell results in axis order.
// Cells share nothing mutable, so worker count never changes output bytes.

// PairNet builds host—switch—switch—host over cross parallel links, the
// switches configured for sch and then adjusted by tweak (nil = as
// configured): the single-flow rig of the transport tests.
func PairNet(sch Scheme, cross int, tweak func(*fabric.SwitchConfig)) func(*sim.Engine) *topo.Network {
	return func(eng *sim.Engine) *topo.Network {
		cfg := topo.DefaultDumbbell()
		cfg.HostsPerSwitch = 1
		cfg.CrossLinks = cross
		cfg.Switch = SwitchConfigFor(sch)
		if tweak != nil {
			tweak(&cfg.Switch)
		}
		return topo.Dumbbell(eng, cfg)
	}
}

// onePathNet is PairNet over a single cross link at a forced loss rate,
// the Fig. 10/17 pipeline.
func onePathNet(sch Scheme, lossRate float64) func(*sim.Engine) *topo.Network {
	return PairNet(sch, 1, func(c *fabric.SwitchConfig) { c.LossRate = lossRate })
}

// runSingleFlow measures the goodput of one size-byte flow under a scheme.
func runSingleFlow(cfg Config, sch Scheme, size int64, build func(*sim.Engine) *topo.Network) (float64, *stats.FlowRecord) {
	s := NewSimCfg(cfg, sch, build)
	f := &workload.Flow{ID: 1, Src: 0, Dst: 1, Size: size}
	s.ScheduleFlows([]*workload.Flow{f})
	s.Run(0)
	rec := s.Col.Flow(1)
	if !rec.Done {
		return 0, rec
	}
	return stats.Goodput(rec.Size, rec.FCT()), rec
}

// Fig8 reproduces the basic prototype validation: back-to-back throughput
// (long flow of 512 KB messages) and small-message latency for RNIC-GBN,
// DCP-RNIC and software TCP.
func Fig8(cfg Config) []*stats.Table {
	t := &stats.Table{
		Name:    "Fig 8: basic validation of DCP-RNIC (back-to-back)",
		Columns: []string{"scheme", "throughput_Gbps", "latency_us"},
	}
	size := cfg.bytes(64 << 20)
	schemes := []Scheme{SchemeGBNLossy(0), SchemeDCP(false), SchemeTCP()}
	type cellR struct{ gp, lat float64 }
	cells := sweep(cfg, len(schemes), func(sub Config, i int) cellR {
		sch := schemes[i]
		direct := func(eng *sim.Engine) *topo.Network {
			return topo.Direct(eng, 100*units.Gbps, units.Microsecond)
		}
		// Throughput: one long flow posted as 512 KB messages.
		s := NewSimCfg(sub, sch, direct)
		s.Env.MessageSize = 512 * units.KB
		f := &workload.Flow{ID: 1, Src: 0, Dst: 1, Size: size}
		s.ScheduleFlows([]*workload.Flow{f})
		s.Run(0)
		var r cellR
		if rec := s.Col.Flow(1); rec.Done {
			r.gp = stats.Goodput(rec.Size, rec.FCT())
		}
		// Latency: a 64 B message on an idle pair.
		s2 := NewSimCfg(sub, sch, direct)
		f2 := &workload.Flow{ID: 1, Src: 0, Dst: 1, Size: 64}
		s2.ScheduleFlows([]*workload.Flow{f2})
		s2.Run(0)
		if rec := s2.Col.Flow(1); rec.Done {
			r.lat = rec.FCT().Micros()
		}
		return r
	})
	for i, sch := range schemes {
		name := map[string]string{"CX5(ECMP)": "RNIC-GBN", "DCP(AR)": "DCP-RNIC", "TCP": "TCP"}[sch.Name]
		t.AddRow(name, cells[i].gp, cells[i].lat)
	}
	return []*stats.Table{t}
}

// fig10LossRates are the enforced loss rates of Figs. 10 and 17.
var fig10LossRates = []float64{0, 0.0001, 0.001, 0.005, 0.01, 0.02, 0.05}

// Fig10 reproduces the loss recovery efficiency comparison: goodput of a
// long flow under enforced loss, DCP (switch trims) vs CX5 (switch drops).
func Fig10(cfg Config) []*stats.Table {
	t := &stats.Table{
		Name:    "Fig 10: loss recovery efficiency (goodput, Gbps)",
		Columns: []string{"loss_rate", "CX5", "DCP", "speedup"},
	}
	size := cfg.bytes(40 << 20)
	type cellR struct{ cx5, dcp float64 }
	cells := sweep(cfg, len(fig10LossRates), func(sub Config, i int) cellR {
		lr := fig10LossRates[i]
		cx5, _ := runSingleFlow(sub, SchemeGBNLossy(0), size, onePathNet(SchemeGBNLossy(0), lr))
		d, _ := runSingleFlow(sub, SchemeDCP(false), size, onePathNet(SchemeDCP(false), lr))
		return cellR{cx5: cx5, dcp: d}
	})
	for i, lr := range fig10LossRates {
		speed := 0.0
		if cells[i].cx5 > 0 {
			speed = cells[i].dcp / cells[i].cx5
		}
		t.AddRow(fmt.Sprintf("%.2f%%", lr*100), cells[i].cx5, cells[i].dcp, speed)
	}
	return []*stats.Table{t}
}

// Fig11 reproduces the unequal-path adaptive-routing experiment: two
// cross-switch flows over two parallel paths with capacity ratios 1:1, 1:4,
// 1:10; DCP+AR adapts, CX5+ECMP does not.
func Fig11(cfg Config) []*stats.Table {
	t := &stats.Table{
		Name:    "Fig 11: goodput under unequal parallel paths (avg of 2 flows, Gbps)",
		Columns: []string{"capacity_ratio", "CX5(ECMP)", "DCP(AR)"},
	}
	size := cfg.bytes(40 << 20)
	// ECMP collisions are inevitable at scale (§2.2); reproduce the
	// worst case deterministically: both flows hash onto the second
	// (degraded) cross link. Cross egress index 1 on the first switch is
	// that link (index 0 is the host-facing port... candidates exclude it).
	var ids []uint64
	for id := uint64(1); len(ids) < 2; id++ {
		if fabric.ECMPIndex(id, 0, 2) == 1 {
			ids = append(ids, id)
		}
	}
	ratios := []int{1, 4, 10}
	schemes := []Scheme{SchemeGBNLossy(0), SchemeDCP(false)}
	cells := grid(cfg, len(ratios), len(schemes), func(sub Config, ri, si int) float64 {
		ratio, sch := ratios[ri], schemes[si]
		build := func(eng *sim.Engine) *topo.Network {
			c := topo.DefaultDumbbell()
			c.HostsPerSwitch = 2
			c.CrossLinks = 2
			c.Switch = SwitchConfigFor(sch)
			c.CrossRates = []units.Rate{100 * units.Gbps, units.DivRate(100*units.Gbps, int64(ratio))}
			return topo.Dumbbell(eng, c)
		}
		s := NewSimCfg(sub, sch, build)
		flows := []*workload.Flow{
			{ID: ids[0], Src: 0, Dst: 2, Size: size},
			{ID: ids[1], Src: 1, Dst: 3, Size: size},
		}
		s.ScheduleFlows(flows)
		s.Run(0)
		var sum float64
		for _, f := range flows {
			if rec := s.Col.Flow(f.ID); rec.Done {
				sum += stats.Goodput(rec.Size, rec.FCT())
			}
		}
		return sum / 2
	})
	for ri, ratio := range ratios {
		t.AddRow(fmt.Sprintf("1:%d", ratio), cells[ri][0], cells[ri][1])
	}
	return []*stats.Table{t}
}

// Fig12 reproduces the testbed AI workload: 16 NICs in 4 groups of 4 (each
// group spanning both switches), each group running an AllReduce or
// AllToAll; JCT per group for DCP+AR vs CX5+ECMP.
func Fig12(cfg Config) []*stats.Table {
	total := cfg.bytes(300 << 20)
	colls := []string{"AllReduce", "AllToAll"}
	schemes := []Scheme{SchemeGBNLossy(0), SchemeDCP(false)}
	cells := grid(cfg, len(colls), len(schemes), func(sub Config, ci, si int) []float64 {
		coll, sch := colls[ci], schemes[si]
		build := func(eng *sim.Engine) *topo.Network {
			c := topo.DefaultDumbbell()
			c.Switch = SwitchConfigFor(sch)
			return topo.Dumbbell(eng, c)
		}
		s := NewSimCfg(sub, sch, build)
		done := make([]units.Time, 4)
		var id uint64 = 1
		for g := 0; g < 4; g++ {
			members := []packet.NodeID{}
			for k := 0; k < 4; k++ {
				members = append(members, packet.NodeID(g+4*k))
			}
			var cf *workload.Coflow
			if coll == "AllReduce" {
				cf = workload.RingAllReduce(members, total, g, id)
			} else {
				cf = workload.AllToAll(members, total, g, id)
			}
			id += uint64(cf.NumFlows())
			g := g
			s.RunCoflow(cf, 0, func(at units.Time) { done[g] = at })
		}
		s.Run(0)
		jcts := make([]float64, 4)
		for g, d := range done {
			jcts[g] = d.Millis()
		}
		return jcts
	})
	var tables []*stats.Table
	for ci, coll := range colls {
		t := &stats.Table{
			Name:    "Fig 12 (" + coll + "): testbed JCT per group (ms)",
			Columns: []string{"group", "CX5(ECMP)", "DCP(AR)"},
		}
		for g := 0; g < 4; g++ {
			t.AddRow(g+1, cells[ci][0][g], cells[ci][1][g])
		}
		tables = append(tables, t)
	}
	return tables
}

// LongHaul reproduces the §6.1 long-haul validation: one flow across a
// 10 km (50 µs) link; DCP should hold a high stable goodput with 32 MB
// switch buffers.
func LongHaul(cfg Config) []*stats.Table {
	t := &stats.Table{
		Name:    "Long-haul: 10 km cross link, single flow goodput (Gbps)",
		Columns: []string{"scheme", "goodput_Gbps"},
	}
	size := cfg.bytes(200 << 20)
	schemes := []Scheme{SchemeDCP(false), SchemeGBNLossy(0)}
	cells := sweep(cfg, len(schemes), func(sub Config, i int) float64 {
		sch := schemes[i]
		build := func(eng *sim.Engine) *topo.Network {
			c := topo.DefaultDumbbell()
			c.HostsPerSwitch = 1
			c.CrossLinks = 1
			c.CrossDelays = []units.Time{50 * units.Microsecond}
			c.Switch = SwitchConfigFor(sch)
			return topo.Dumbbell(eng, c)
		}
		gp, _ := runSingleFlow(sub, sch, size, build)
		return gp
	})
	for i, sch := range schemes {
		t.AddRow(sch.Name, cells[i])
	}
	return []*stats.Table{t}
}

// Fig17 compares loss recovery schemes under enforced loss on a single
// ECMP path: DCP, RACK-TLP, IRN, and timeout-only.
func Fig17(cfg Config) []*stats.Table {
	t := &stats.Table{
		Name:    "Fig 17: loss recovery efficiency of DCP/RACK-TLP/IRN/Timeout (goodput, Gbps)",
		Columns: []string{"loss_rate", "DCP", "RACK-TLP", "IRN", "Timeout"},
	}
	size := cfg.bytes(40 << 20)
	schemes := []Scheme{SchemeDCP(false), SchemeRACK(), SchemeIRN(0, false), SchemeTimeout()}
	cells := grid(cfg, len(fig10LossRates), len(schemes), func(sub Config, li, si int) float64 {
		sch := schemes[si]
		gp, _ := runSingleFlow(sub, sch, size, onePathNet(sch, fig10LossRates[li]))
		return gp
	})
	for li, lr := range fig10LossRates {
		row := []any{fmt.Sprintf("%.2f%%", lr*100)}
		for si := range schemes {
			row = append(row, cells[li][si])
		}
		t.AddRow(row...)
	}
	return []*stats.Table{t}
}
