// Allocation counts are meaningless under the race detector (its
// instrumentation allocates); CI runs these guards in a non-race step.
//go:build !race

package sim

import (
	"testing"

	"dcpsim/internal/units"
)

type nopHandler struct{ n int }

func (h *nopHandler) Fire() { h.n++ }

// TestScheduleDispatchAllocFree: once the slab and queue have grown to a
// workload's depth, scheduling and dispatching allocate nothing — neither
// through a Handler nor through a closure built beforehand.
func TestScheduleDispatchAllocFree(t *testing.T) {
	eng := NewEngine(1)
	h := &nopHandler{}
	fn := func() { h.n++ }
	round := func() {
		for i := 0; i < 64; i++ {
			eng.AfterHandler(units.Time(i%7), CompFabric, h)
			eng.After(units.Time(i%5), fn)
		}
		eng.Run(0)
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("steady-state schedule+dispatch allocates %.1f times per round, want 0", allocs)
	}
}

// TestTimerResetAllocFree: re-arming an armed timer moves its queued event
// in place and allocates nothing.
func TestTimerResetAllocFree(t *testing.T) {
	eng := NewEngine(1)
	for i := 0; i < 100; i++ {
		eng.At(units.Time(i), func() {})
	}
	tm := NewTimer(eng, func() {})
	tm.Reset(50)
	d := units.Time(0)
	allocs := testing.AllocsPerRun(1000, func() {
		d = (d + 37) % 200
		tm.Reset(d)
	})
	if allocs != 0 {
		t.Fatalf("Reset of an armed timer allocates %.1f times, want 0", allocs)
	}
	if eng.Pending() != 101 {
		t.Fatalf("Pending = %d after re-arms, want 101: a re-arm must not leave an entry behind", eng.Pending())
	}
}
