package main

import (
	"math/rand"

	"dcpsim/internal/exp"
	"dcpsim/internal/packet"
	"dcpsim/internal/sim"
	"dcpsim/internal/topo"
	"dcpsim/internal/units"
	traffic "dcpsim/internal/workload"
)

// simCap bounds every cell in simulated time. At the benchmark's sizes every
// flow finishes well inside it; a cell that leaves flows unfinished fails.
const simCap = 2 * units.Second

// A cellSpec is one independent simulation of a workload. The two halves are
// split so the traced run can instrument the sim between them: sim builds
// the topology and installs the transport (exp.NewSim), flows generates the
// workload from the seed and schedules it (Sim.ScheduleFlows). Both are
// pure functions of the seed, so a spec can be run any number of times.
type cellSpec struct {
	name  string
	sim   func() *exp.Sim
	flows func(s *exp.Sim)
}

// A workload is one set of benchmark inputs. scale shrinks flow counts and
// sizes for the tests; the benchmark itself always runs at scale 1.
type workload struct {
	name  string
	why   string
	cells func(seed int64, scale float64) []cellSpec
}

// workloads is the benchmark's workload list. Each stresses a different
// layer, so a change to one layer has a workload that exercises it and one
// that bypasses it (see README.md for the predictions per metric).
var workloads = []workload{
	{"clos_websearch", "the paper's 6.2 CLOS WebSearch: deepest heap and most switch forwarding per event, almost no timer churn", closWebSearch},
	{"incast_trim", "the Fig 10/16 loss-recovery path: switch trimming, HO returns and retransmission under DCQCN", incastTrim},
	{"pair_stream", "the Fig 8 back-to-back pair: no switch and a shallow heap, so it measures the per-event floor", pairStream},
	{"scheme_matrix", "every registered transport on one lossy dumbbell through the worker pool: RTO timer churn and cancellation", schemeMatrix},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled shrinks n by scale, keeping at least lo.
func scaled(n int, scale float64, lo int) int {
	if m := int(float64(n) * scale); m > lo {
		return m
	}
	return lo
}

// flowRNG is the workload generator's random source. It is separate from
// the engine's so the flow list does not depend on how the topology draws.
func flowRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed + 1000)) }

// closWebSearch: 256-host CLOS, DCP over adaptive routing, 150 WebSearch
// flows arriving as a Poisson process at load 0.5.
func closWebSearch(seed int64, scale float64) []cellSpec {
	sch := exp.SchemeDCP(false)
	return []cellSpec{{
		name: "dcp",
		sim: func() *exp.Sim {
			return exp.NewSim(seed, sch, func(eng *sim.Engine) *topo.Network {
				c := topo.DefaultClos()
				c.Switch = exp.SwitchConfigFor(sch)
				return topo.Clos(eng, c)
			})
		},
		flows: func(s *exp.Sim) {
			s.ScheduleFlows(webSearchFlows(flowRNG(seed), s, scaled(150, scale, 20), 0.5))
		},
	}}
}

// incastTrim: 16-host dumbbell, DCP+DCQCN, 1% enforced switch loss, 13
// Poisson 12-to-1 incasts of 2 MB per sender at load 0.4. Victims take
// turns in a seeded order instead of being drawn independently: two
// incasts that hit one victim by chance pile 24 senders onto a port, and
// those chance collisions made the trimmed packets vary threefold between
// seeds.
func incastTrim(seed int64, scale float64) []cellSpec {
	sch := exp.SchemeDCP(true)
	return []cellSpec{{
		name: "dcp+cc",
		sim:  func() *exp.Sim { return exp.NewSim(seed, sch, lossyDumbbell(sch, 0.01)) },
		flows: func(s *exp.Sim) {
			rng := flowRNG(seed)
			hosts := s.HostIDs()
			flows := traffic.GenerateIncast(rng, traffic.IncastConfig{
				Load: 0.4, Fanin: 12, FlowSize: 2 << 20, Hosts: hosts, HostRate: s.Net.HostRate,
				Events: scaled(13, scale, 2), Class: "incast", BaseID: 1,
			})
			turn := rng.Perm(len(hosts))
			for _, f := range flows {
				victim := hosts[turn[f.Group%len(hosts)]]
				if f.Src == victim {
					f.Src = f.Dst // the drawn victim was not a sender, so it can take the place
				}
				f.Dst = victim
			}
			s.ScheduleFlows(flows)
		},
	}}
}

// pairStream: two NICs back to back (100 Gbps, 1 us), DCP, four concurrent
// 384 MiB flows posted as 512 KB messages like perftest. The seed only
// jitters the start times: the bytes moved are the same on every seed.
func pairStream(seed int64, scale float64) []cellSpec {
	sch := exp.SchemeDCP(false)
	size := int64(float64(384<<20) * scale)
	return []cellSpec{{
		name: "dcp",
		sim: func() *exp.Sim {
			s := exp.NewSim(seed, sch, func(eng *sim.Engine) *topo.Network {
				return topo.Direct(eng, 100*units.Gbps, units.Microsecond)
			})
			s.Env.MessageSize = 512 * units.KB
			return s
		},
		flows: func(s *exp.Sim) {
			rng := flowRNG(seed)
			flows := make([]*traffic.Flow, 4)
			for i := range flows {
				flows[i] = &traffic.Flow{ID: uint64(i + 1), Src: 0, Dst: 1, Size: size,
					Start: units.Scale(units.Microsecond, rng.Float64())}
			}
			s.ScheduleFlows(flows)
		},
	}}
}

// schemeMatrix: every exp.SchemeNames() transport on the testbed dumbbell
// at 0.5% enforced loss, all carrying the same 9 WebSearch flows at load
// 0.4, one cell per scheme. Every flow crosses between the two switches, so
// the hops a flow takes do not depend on the seed.
func schemeMatrix(seed int64, scale float64) []cellSpec {
	n := scaled(9, scale, 3)
	side := packet.NodeID(topo.DefaultDumbbell().HostsPerSwitch)
	var cells []cellSpec
	for _, name := range exp.SchemeNames() {
		sch, _ := exp.SchemeByName(name)
		cells = append(cells, cellSpec{
			name: name,
			sim:  func() *exp.Sim { return exp.NewSim(seed, sch, lossyDumbbell(sch, 0.005)) },
			flows: func(s *exp.Sim) {
				flows := webSearchFlows(flowRNG(seed), s, n, 0.4)
				for _, f := range flows {
					if f.Src/side == f.Dst/side {
						f.Dst = (f.Dst + side) % (2 * side)
					}
				}
				s.ScheduleFlows(flows)
			},
		})
	}
	return cells
}

// lossyDumbbell builds the 8+8-host testbed dumbbell with the scheme's
// switch behaviour and uniform enforced loss.
func lossyDumbbell(sch exp.Scheme, loss float64) func(*sim.Engine) *topo.Network {
	return func(eng *sim.Engine) *topo.Network {
		c := topo.DefaultDumbbell()
		c.Switch = exp.SwitchConfigFor(sch)
		c.Switch.LossRate = loss
		return topo.Dumbbell(eng, c)
	}
}

// webSearchFlows draws n WebSearch flows between random host pairs as
// Poisson arrivals at the given load. The sizes are the CDF's n quantiles
// at the midpoints of n equal-probability slices, dealt out in a seeded
// order. Every seed then moves the same bytes in the same mix of short and
// long flows, so runs on different seeds do comparable work and their host
// times can be compared; the seed decides who sends which flow, and when.
func webSearchFlows(rng *rand.Rand, s *exp.Sim, n int, load float64) []*traffic.Flow {
	dist := traffic.WebSearch()
	flows := traffic.GeneratePoisson(rng, traffic.PoissonConfig{
		Load: load, Hosts: s.HostIDs(), HostRate: s.Net.HostRate,
		Dist: dist, Count: n, Class: "bg", BaseID: 1,
	})
	for i, slice := range rng.Perm(n) {
		u := (float64(slice) + 0.5) / float64(n)
		flows[i].Size = dist.Sample(rand.New(quantile(u)))
	}
	return flows
}

// quantile is a rand.Source whose every draw is u, so
// SizeDist.Sample(rand.New(quantile(u))) evaluates the inverse CDF at u.
type quantile float64

func (q quantile) Int63() int64 { return int64(float64(q) * (1 << 63)) }
func (quantile) Seed(int64)     {}
