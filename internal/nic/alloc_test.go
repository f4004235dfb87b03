// Allocation counts are meaningless under the race detector (its
// instrumentation allocates); CI runs this guard in a non-race step.
//go:build !race

package nic

import (
	"testing"

	"dcpsim/internal/fabric"
	"dcpsim/internal/sim"
	"dcpsim/internal/units"
)

// TestKickAtAllocFree: a paced kick, including one that replaces a later
// pending kick, schedules the NIC itself and allocates nothing.
func TestKickAtAllocFree(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng, 0, 100*units.Gbps)
	n.SetUplink(fabric.Attach(eng, units.Microsecond, &sinkNode{}))
	tr := &stubTransport{}
	n.SetTransport(tr)
	round := func() {
		n.KickAt(eng.Now() + 10*units.Microsecond)
		n.KickAt(eng.Now() + 20*units.Microsecond) // subsumed
		n.KickAt(eng.Now() + 5*units.Microsecond)  // replaces
		eng.Run(0)
	}
	round()
	if allocs := testing.AllocsPerRun(1000, round); allocs != 0 {
		t.Fatalf("KickAt allocates %.1f times per round, want 0", allocs)
	}
	if tr.dequeues == 0 {
		t.Fatal("kicks never pulled the transport")
	}
}
