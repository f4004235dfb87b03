// Allocation counts are meaningless under the race detector (its
// instrumentation allocates); CI runs this guard in a non-race step.
//go:build !race

package dcp_test

import (
	"runtime"
	"testing"

	"dcpsim/internal/exp"
	"dcpsim/internal/sim"
	"dcpsim/internal/topo"
	"dcpsim/internal/units"
	"dcpsim/internal/workload"
)

// TestPairSteadyStateAllocFree: once a DCP pair has warmed up — packet
// free list, event slab, queues and per-flow state at their working size —
// it builds, sends, acknowledges and releases packets without allocating:
// at least 100k further events average under 0.01 allocations each. What
// remains is per message (the receiver's message counter), not per packet.
func TestPairSteadyStateAllocFree(t *testing.T) {
	s := exp.NewSim(7, exp.SchemeDCP(false), func(eng *sim.Engine) *topo.Network {
		return topo.Direct(eng, 100*units.Gbps, units.Microsecond)
	})
	s.Env.MessageSize = 512 * units.KB
	flows := make([]*workload.Flow, 4)
	for i := range flows {
		flows[i] = &workload.Flow{ID: uint64(i + 1), Src: 0, Dst: 1, Size: 64 << 20}
	}
	s.ScheduleFlows(flows)
	s.Eng.Run(500 * units.Microsecond)

	var before, after runtime.MemStats
	executed := s.Eng.Executed
	runtime.ReadMemStats(&before)
	s.Eng.Run(6 * units.Millisecond)
	runtime.ReadMemStats(&after)
	events := s.Eng.Executed - executed
	if events < 100_000 {
		t.Fatalf("only %d events in the measured window, want at least 100k", events)
	}
	allocs := after.Mallocs - before.Mallocs
	if per := float64(allocs) / float64(events); per >= 0.01 {
		t.Fatalf("%d allocations over %d events (%.4f per event), want under 0.01", allocs, events, per)
	}
	t.Logf("%d allocations over %d events", allocs, events)
}
