package sim

import (
	"container/heap"
	"math/rand"
	"testing"

	"dcpsim/internal/units"
)

// The reference model: the engine as it was first written, a
// container/heap of pointers ordered by (at, seq), where cancelling marks
// an event and re-arming a timer cancels its event and schedules a new
// one. It lives only here, as the specification the slab engine must
// reproduce firing for firing.

type refEvent struct {
	at        units.Time
	seq       uint64
	id        int
	cancelled bool
	fired     bool
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	ev := old[len(old)-1]
	*h = old[:len(old)-1]
	return ev
}

type refModel struct {
	now      units.Time
	seq      uint64
	q        refHeap
	live     int
	executed uint64
}

func (m *refModel) at(t units.Time, id int) *refEvent {
	m.seq++
	ev := &refEvent{at: t, seq: m.seq, id: id}
	heap.Push(&m.q, ev)
	m.live++
	return ev
}

func (m *refModel) cancel(ev *refEvent) {
	if ev == nil || ev.cancelled || ev.fired {
		return
	}
	ev.cancelled = true
	m.live--
}

// peek returns the next event that will fire, discarding cancelled heads.
func (m *refModel) peek() *refEvent {
	for len(m.q) > 0 && m.q[0].cancelled {
		heap.Pop(&m.q)
	}
	if len(m.q) == 0 {
		return nil
	}
	return m.q[0]
}

func (m *refModel) fire() *refEvent {
	ev := m.peek()
	if ev == nil {
		return nil
	}
	heap.Pop(&m.q)
	ev.fired = true
	m.live--
	m.executed++
	m.now = ev.at
	return ev
}

// TestEngineMatchesReferenceHeap drives the engine and the reference model
// with the same random mix of At, After, Cancel (of live, fired and
// long-recycled handles), Timer.Reset and Timer.Stop, issued both between
// bounded Run slices and from inside firing events, and requires the same
// firing sequence, clock, Executed and live count throughout.
func TestEngineMatchesReferenceHeap(t *testing.T) {
	for trial := int64(0); trial < 60; trial++ {
		rng := rand.New(rand.NewSource(trial))
		eng := NewEngine(1)
		var m refModel

		type handle struct {
			ev  Event
			ref *refEvent
		}
		var handles []handle
		const nTimers = 4
		timers := make([]*Timer, nTimers)
		refTimers := make([]*refEvent, nTimers)
		budget := 2000
		nextID := 0

		var act func()
		fired := func(id int) {
			ref := m.fire()
			if ref == nil {
				t.Fatalf("trial %d: engine fired %d at %v, model has nothing left", trial, id, eng.Now())
			}
			if ref.id != id || ref.at != eng.Now() {
				t.Fatalf("trial %d: firing %d: engine ran %d at %v, model %d at %v",
					trial, m.executed, id, eng.Now(), ref.id, ref.at)
			}
			if id < 0 {
				refTimers[-id-1] = nil
			}
			act()
		}
		for i := range timers {
			id := -(i + 1)
			timers[i] = NewTimer(eng, func() { fired(id) })
			timers[i].Comp = Comp(i % int(NumComps))
		}
		op := func() {
			budget--
			d := units.Time(rng.Intn(40))
			switch k := rng.Intn(10); {
			case k < 4:
				nextID++
				id := nextID
				fn := func() { fired(id) }
				var ev Event
				if k < 2 {
					ev = eng.At(eng.Now()+d, fn)
				} else {
					ev = eng.After(d, fn)
				}
				handles = append(handles, handle{ev, m.at(m.now+d, id)})
			case k < 6:
				if len(handles) > 0 {
					h := handles[rng.Intn(len(handles))]
					h.ev.Cancel()
					m.cancel(h.ref)
				}
			case k < 9:
				i := rng.Intn(nTimers)
				timers[i].Reset(d)
				m.cancel(refTimers[i])
				refTimers[i] = m.at(m.now+d, -(i + 1))
			default:
				i := rng.Intn(nTimers)
				timers[i].Stop()
				m.cancel(refTimers[i])
				refTimers[i] = nil
			}
			if eng.PendingActive() != m.live {
				t.Fatalf("trial %d: PendingActive %d, model live %d", trial, eng.PendingActive(), m.live)
			}
			for i, tm := range timers {
				ref := refTimers[i]
				if tm.Armed() != (ref != nil) {
					t.Fatalf("trial %d: timer %d Armed=%v, model %v", trial, i, tm.Armed(), ref != nil)
				}
				if ref != nil && tm.Deadline() != ref.at {
					t.Fatalf("trial %d: timer %d deadline %v, model %v", trial, i, tm.Deadline(), ref.at)
				}
			}
			for _, h := range handles[max(0, len(handles)-8):] {
				if c := h.ref.cancelled || h.ref.fired; h.ev.Cancelled() != c {
					t.Fatalf("trial %d: event %d Cancelled=%v, model %v", trial, h.ref.id, h.ev.Cancelled(), c)
				}
			}
		}
		act = func() {
			for n := rng.Intn(4); n > 0 && budget > 0; n-- {
				op()
			}
		}

		for eng.Pending() > 0 || budget > 0 {
			for n := rng.Intn(8); n > 0 && budget > 0; n-- {
				op()
			}
			until := eng.Now() + units.Time(rng.Intn(60)+1)
			eng.Run(until)
			if next := m.peek(); next != nil && next.at <= until {
				t.Fatalf("trial %d: engine stopped at %v with model event %d due at %v", trial, until, next.id, next.at)
			}
			if eng.Now() != until {
				t.Fatalf("trial %d: bounded run ended at %v, want %v", trial, eng.Now(), until)
			}
			m.now = until
		}
		if m.peek() != nil {
			t.Fatalf("trial %d: engine drained, model still has event %d", trial, m.peek().id)
		}
		if eng.Executed != m.executed {
			t.Fatalf("trial %d: executed %d, model %d", trial, eng.Executed, m.executed)
		}
		if eng.PendingActive() != 0 || m.live != 0 {
			t.Fatalf("trial %d: live events left: engine %d, model %d", trial, eng.PendingActive(), m.live)
		}
	}
}
