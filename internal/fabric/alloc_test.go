// Allocation counts are meaningless under the race detector (its
// instrumentation allocates); CI runs this guard in a non-race step.
//go:build !race

package fabric

import (
	"testing"

	"dcpsim/internal/sim"
	"dcpsim/internal/units"
)

// TestHopAllocFree: one packet's hop from a port through its wire into a
// switch, out of the switch's egress port and over the next wire
// allocates nothing — the ports and wires schedule themselves.
func TestHopAllocFree(t *testing.T) {
	eng := sim.NewEngine(1)
	sw, dst, _ := buildSwitch(eng, DefaultSwitchConfig())
	src := &FIFOScheduler{}
	port := NewPort(eng, 100*units.Gbps, Attach(eng, units.Microsecond, sw), src)
	p1, p2 := dataPkt(1000), dataPkt(1000)
	hop := func() {
		dst.pkts, dst.at = dst.pkts[:0], dst.at[:0]
		src.Enqueue(p1)
		src.Enqueue(p2)
		port.Kick()
		eng.Run(0)
	}
	hop()
	if allocs := testing.AllocsPerRun(1000, hop); allocs != 0 {
		t.Fatalf("port->wire->switch->port->wire hop allocates %.1f times, want 0", allocs)
	}
	if len(dst.pkts) != 2 {
		t.Fatalf("delivered %d packets per round, want 2", len(dst.pkts))
	}
}
