// Package sim implements the discrete-event simulation engine: an event
// queue ordered by simulated time, cancellable timers, and a deterministic
// random source. Every experiment in this repository is driven by one
// Engine; ties in event time are broken by insertion order so that a given
// seed always produces the same run.
package sim

import (
	"math/rand"
	"strconv"
	"sync/atomic"

	"dcpsim/internal/units"
)

// Comp labels the component whose code a scheduled event runs — the unit
// the dispatch profiler attributes events and wall-time to. Every event
// carries a Comp stamped at scheduling time: the root scheduling sites
// (wire delivery, port serialization, NIC kicks, retransmission timers,
// DCQCN timers, fault plans, metrics probes, flow starts) tag themselves
// explicitly via AtComp/AfterComp or Timer.Comp; everything scheduled from
// inside a dispatched event inherits that event's component, so untagged
// nested scheduling stays causally attributed.
type Comp uint8

// The component taxonomy. CompOther is the zero value: an event scheduled
// outside any dispatch by untagged code (tests, ad-hoc drivers).
const (
	CompOther Comp = iota
	CompWorkload
	CompTransport
	CompFabric
	CompNIC
	CompCC
	CompTimer
	CompFaults
	CompProbe
	NumComps
)

func (c Comp) String() string {
	switch c {
	case CompOther:
		return "other"
	case CompWorkload:
		return "workload"
	case CompTransport:
		return "transport"
	case CompFabric:
		return "fabric"
	case CompNIC:
		return "nic"
	case CompCC:
		return "cc"
	case CompTimer:
		return "timer"
	case CompFaults:
		return "faults"
	case CompProbe:
		return "probe"
	default:
		return "comp(" + strconv.Itoa(int(c)) + ")"
	}
}

// Prof is the engine's dispatch profiler: per-component event counts and,
// when a wall clock is injected, per-component wall-nanosecond totals.
// Attach one with Engine.AttachProf before Run. The two halves have
// different determinism guarantees — Counts depend only on the seed and
// are byte-identical across hosts and runs; WallNs varies by host and is
// only populated when Wall is non-nil.
//
// The engine never reads the host clock itself (the detcheck contract);
// callers that want wall attribution inject Wall with their own lint
// allowance, exactly like obs.Metrics.WallNanos.
type Prof struct {
	// Wall, when non-nil, supplies monotonic wall-clock nanoseconds read
	// around every dispatched event. Nil keeps profiling counts-only and
	// fully deterministic.
	Wall func() int64
	// Counts tallies dispatched events per component.
	Counts [NumComps]uint64
	// WallNs accumulates wall nanoseconds spent inside dispatched events
	// per component (all zero when Wall is nil).
	WallNs [NumComps]int64
}

// Total returns the total dispatched events across all components.
func (p *Prof) Total() uint64 {
	var n uint64
	for _, c := range p.Counts {
		n += c
	}
	return n
}

// Handler is what a scheduled event runs: the engine calls Fire when the
// event is due. The hottest scheduling roots (a port finishing a packet, a
// wire delivering one, a NIC's paced kick, a timer's expiry) implement it
// on the object that owns the work and schedule that object itself, so
// scheduling them allocates nothing. At and After wrap their closure in the
// same interface.
type Handler interface {
	Fire()
}

// funcHandler adapts a closure to Handler. A func value fits in an
// interface word, so the conversion does not allocate.
type funcHandler func()

func (f funcHandler) Fire() { f() }

// Event is a handle to a scheduled event: a small value naming the engine,
// a slot in its event slab, and the slot's generation when the event was
// scheduled. The slot's generation moves on when the event fires or its
// cancelled entry is discarded, so a handle kept past that point reports
// the event as gone instead of aliasing whatever reuses the slot. The zero
// Event is a handle to no event.
type Event struct {
	eng  *Engine
	slot int32
	gen  uint32
}

// live returns the handle's slot if the handle still names a queued
// event (cancelled or not), else nil.
func (ev Event) live() *slot {
	if ev.eng == nil {
		return nil
	}
	s := &ev.eng.slots[ev.slot]
	if s.gen != ev.gen {
		return nil
	}
	return s
}

// Cancel prevents the event from firing. Cancelling is lazy: the entry
// stays queued until it reaches the head, where Run discards it and counts
// a CancelledDrop. Cancelling an event that already fired, one already
// cancelled, or the zero Event is a no-op.
func (ev Event) Cancel() {
	s := ev.live()
	if s == nil || s.dead {
		return
	}
	s.dead = true
	s.h = nil
	ev.eng.live--
}

// Cancelled reports whether the event can no longer fire: it was
// cancelled, it has already fired, or ev is the zero Event.
func (ev Event) Cancelled() bool {
	s := ev.live()
	return s == nil || s.dead
}

// Time returns the simulated time the event is scheduled for, or 0 once
// it has fired (or, if cancelled, been discarded).
func (ev Event) Time() units.Time {
	s := ev.live()
	if s == nil {
		return 0
	}
	return ev.eng.queue[s.pos].at
}

// slot is one entry of the event slab: what to run and how to attribute
// it. A slot is reused through the free list once its event fires or its
// cancelled entry is discarded; gen tells the uses apart.
type slot struct {
	h    Handler
	gen  uint32
	pos  int32 // index of the slot's entry in the queue while queued
	comp Comp
	dead bool // cancelled, awaiting discard
}

// entry is one queued event as the heap orders it. It holds no pointers,
// so moving entries costs no GC write barriers and the queue is never
// scanned.
type entry struct {
	at   units.Time
	seq  uint64
	slot int32
}

func (a entry) before(b entry) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// arity is the heap's fan-out. A 4-ary heap is half as deep as a binary
// one, and a node's children sit next to each other in memory.
const arity = 4

// Engine is a single-threaded discrete-event simulator.
//
// Events live in a slab of slots recycled through a free list, and a 4-ary
// min-heap of pointer-free (at, seq, slot) entries orders them. Ties in
// time break by seq, the order events were scheduled in.
//
// Ownership contract: an Engine (and the whole simulation hanging off it —
// topology, transports, collectors, sinks) belongs to exactly one goroutine
// for its entire lifetime. The parallel experiment runner exploits this:
// cells on different workers each own a private Engine, so no
// synchronization exists anywhere on the data path. The package keeps zero
// package-level mutable state for the same reason. Run enforces the
// contract cheaply with an atomic re-entrancy flag — two goroutines (or a
// re-entrant callback) driving the same Engine panic instead of silently
// interleaving event streams.
type Engine struct {
	now     units.Time
	seq     uint64
	queue   []entry // 4-ary min-heap on (at, seq)
	slots   []slot  // event slab, indexed by entry.slot and Event.slot
	free    []int32 // slots not in use
	live    int     // pending events not yet cancelled
	seed    int64
	rng     *rand.Rand // seeded from seed on first use
	stopped bool
	running atomic.Bool // guards Run against concurrent/re-entrant drivers

	// comp is the component of the event currently being dispatched; events
	// scheduled during dispatch inherit it. Between dispatches it is the
	// last dispatched component, which is irrelevant because the tagged root
	// sites cover all out-of-dispatch scheduling.
	comp Comp
	// prof, when attached, receives per-component dispatch accounting.
	prof *Prof

	// Executed counts events that have fired, for progress reporting.
	Executed uint64
	// CancelledDrops counts cancelled events discarded from the head of the
	// queue: scheduling churn (stopped timers, subsumed kicks) the heap paid
	// for without doing work. Engine self-profiling samples it. A re-armed
	// timer (Timer.Reset while armed) moves its queued entry instead of
	// cancelling it, so re-arms are not counted here.
	CancelledDrops uint64
	// MaxHeapDepth is the high-water mark of the event queue, cancelled
	// entries included. Re-arming a timer reuses its entry, so timer resets
	// do not deepen the queue.
	MaxHeapDepth int
	// MaxLive is the high-water mark of pending not-cancelled events — the
	// heap depth net of cancellation churn.
	MaxLive int
}

// NewEngine returns an engine with its clock at zero and a deterministic
// random source derived from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{seed: seed}
}

// Now returns the current simulated time.
func (e *Engine) Now() units.Time { return e.now }

// Rand returns the engine's random source. All stochastic choices in a
// simulation must come from here so runs are reproducible. The source is
// seeded on first use: seeding costs more than building a small topology,
// and a simulation with no switch and no lossy wire never draws from it.
func (e *Engine) Rand() *rand.Rand {
	if e.rng == nil {
		e.rng = rand.New(rand.NewSource(e.seed))
	}
	return e.rng
}

// At schedules fn to run at absolute time t, attributed to the component
// currently dispatching (CompOther outside any dispatch). Scheduling in
// the past panics: it would silently reorder causality.
func (e *Engine) At(t units.Time, fn func()) Event {
	return e.schedule(t, e.comp, funcHandler(fn))
}

// AtComp schedules fn at absolute time t attributed to component c,
// overriding inheritance. The root scheduling sites (wire delivery, NIC
// kicks, fault plans, probes, flow starts) use this to anchor attribution;
// everything they transitively schedule inherits via At/After.
func (e *Engine) AtComp(t units.Time, c Comp, fn func()) Event {
	return e.schedule(t, c, funcHandler(fn))
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d units.Time, fn func()) Event {
	return e.schedule(e.now+d, e.comp, funcHandler(fn))
}

// AfterComp schedules fn d after the current time attributed to component c.
func (e *Engine) AfterComp(d units.Time, c Comp, fn func()) Event {
	return e.schedule(e.now+d, c, funcHandler(fn))
}

// AtHandler schedules h.Fire at absolute time t attributed to component c.
// It orders exactly like AtComp but needs no closure: h is the object that
// owns the work, and whatever the event needs is kept on it.
func (e *Engine) AtHandler(t units.Time, c Comp, h Handler) Event {
	return e.schedule(t, c, h)
}

// AfterHandler schedules h.Fire d after the current time attributed to
// component c.
func (e *Engine) AfterHandler(d units.Time, c Comp, h Handler) Event {
	return e.schedule(e.now+d, c, h)
}

func (e *Engine) schedule(t units.Time, c Comp, h Handler) Event {
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	var i int32
	if n := len(e.free); n > 0 {
		i = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		i = int32(len(e.slots))
		e.slots = append(e.slots, slot{})
	}
	s := &e.slots[i]
	s.h, s.comp = h, c
	e.seq++
	e.queue = append(e.queue, entry{at: t, seq: e.seq, slot: i})
	e.up(len(e.queue) - 1)
	e.live++
	if len(e.queue) > e.MaxHeapDepth {
		e.MaxHeapDepth = len(e.queue)
	}
	if e.live > e.MaxLive {
		e.MaxLive = e.live
	}
	return Event{eng: e, slot: i, gen: s.gen}
}

// rearm moves ev, if it is still pending, to time t with component c and
// a fresh sequence number, and reports whether it did. The event then
// orders exactly as if it had been cancelled and scheduled anew, without
// leaving a cancelled entry behind.
func (e *Engine) rearm(ev Event, t units.Time, c Comp) bool {
	s := ev.live()
	if s == nil || s.dead {
		return false
	}
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	e.seq++
	i := int(s.pos)
	e.queue[i].at, e.queue[i].seq = t, e.seq
	s.comp = c
	if i > 0 && e.queue[i].before(e.queue[(i-1)/arity]) {
		e.up(i)
	} else {
		e.down(i)
	}
	return true
}

// up restores heap order by moving the entry at i toward the root.
func (e *Engine) up(i int) {
	q := e.queue
	x := q[i]
	for i > 0 {
		p := (i - 1) / arity
		if !x.before(q[p]) {
			break
		}
		q[i] = q[p]
		e.slots[q[i].slot].pos = int32(i)
		i = p
	}
	q[i] = x
	e.slots[x.slot].pos = int32(i)
}

// down restores heap order by moving the entry at i toward the leaves.
func (e *Engine) down(i int) {
	q := e.queue
	n := len(q)
	x := q[i]
	for {
		c := arity*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+arity, n); j < end; j++ {
			if q[j].before(q[m]) {
				m = j
			}
		}
		if !q[m].before(x) {
			break
		}
		q[i] = q[m]
		e.slots[q[i].slot].pos = int32(i)
		i = m
	}
	q[i] = x
	e.slots[x.slot].pos = int32(i)
}

// pop removes the head entry and returns its slot to the free list. The
// slot's generation moves on, so handles to the event stop matching.
func (e *Engine) pop() {
	i := e.queue[0].slot
	n := len(e.queue) - 1
	e.queue[0] = e.queue[n]
	e.queue = e.queue[:n]
	if n > 0 {
		e.down(0)
	}
	s := &e.slots[i]
	s.h, s.dead = nil, false
	s.gen++
	e.free = append(e.free, i)
}

// Comp returns the component of the event currently being dispatched.
func (e *Engine) Comp() Comp { return e.comp }

// AttachProf attaches (or, with nil, detaches) a dispatch profiler. The
// disabled path — no profiler attached — costs one nil check per dispatch
// and allocates nothing.
func (e *Engine) AttachProf(p *Prof) { e.prof = p }

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in time order until the queue is empty, until the
// clock would pass `until` (if until > 0), or until Stop is called. It
// returns the final clock value. A bounded run (until > 0) always ends
// with Now() == until unless Stop cut it short — including when the queue
// drains before `until`: the clock advances through the empty remainder,
// so callers scheduling relative to a bounded run's end (metrics probes,
// periodic samplers) see a consistent clock. An unbounded run ends at the
// last executed event; Stop leaves the clock at the stopping event.
func (e *Engine) Run(until units.Time) units.Time {
	if !e.running.CompareAndSwap(false, true) {
		panic("sim: concurrent Run on one Engine — an engine is owned by a single goroutine")
	}
	defer e.running.Store(false)
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped {
		top := e.queue[0]
		s := &e.slots[top.slot]
		if s.dead {
			e.pop()
			e.CancelledDrops++
			continue
		}
		if until > 0 && top.at > until {
			e.now = until
			return e.now
		}
		h, c := s.h, s.comp
		e.pop()
		e.live--
		e.now = top.at
		e.Executed++
		e.comp = c
		if p := e.prof; p != nil {
			p.Counts[c]++
			if p.Wall != nil {
				w0 := p.Wall()
				h.Fire()
				p.WallNs[c] += p.Wall() - w0
				continue
			}
		}
		h.Fire()
	}
	if !e.stopped && until > 0 && e.now < until {
		e.now = until
	}
	return e.now
}

// Pending returns the number of events still queued (including cancelled
// events that have not yet been discarded).
func (e *Engine) Pending() int { return len(e.queue) }

// PendingActive returns the number of queued events that can still fire —
// cancelled events awaiting discard are excluded. Periodic self-rescheduling
// work (metrics probes) keys off this so a lingering cancelled timer far in
// the future does not keep it alive.
func (e *Engine) PendingActive() int { return e.live }

// Timer is a restartable one-shot timer, the building block for transport
// retransmission timeouts. The zero value is an unarmed timer; set Fn before
// arming it.
type Timer struct {
	eng *Engine
	ev  Event
	// Fn runs when the timer expires.
	Fn func()
	// Comp attributes the timer's expiry dispatch; NewTimer defaults it to
	// CompTimer so retransmission timeouts profile as timer work. Owners
	// with a more specific identity (DCQCN rate timers → CompCC, NDP pacer
	// → CompTransport) override it after construction.
	Comp Comp
}

// NewTimer returns a timer bound to the engine, attributed to CompTimer.
func NewTimer(eng *Engine, fn func()) *Timer {
	return &Timer{eng: eng, Fn: fn, Comp: CompTimer}
}

// Reset (re)arms the timer to fire d from now, replacing any earlier
// deadline. An armed timer's queued event is moved in place with a fresh
// sequence number, which orders exactly like cancelling it and scheduling
// a new one; the timer itself is the event's Handler, so Reset allocates
// nothing.
func (t *Timer) Reset(d units.Time) {
	at := t.eng.now + d
	if !t.eng.rearm(t.ev, at, t.Comp) {
		t.ev = t.eng.schedule(at, t.Comp, t)
	}
}

// Fire implements Handler: the engine calls it when the deadline arrives.
func (t *Timer) Fire() {
	t.ev = Event{}
	t.Fn()
}

// Stop disarms the timer if it is armed.
func (t *Timer) Stop() {
	t.ev.Cancel()
	t.ev = Event{}
}

// Armed reports whether the timer has a pending deadline.
func (t *Timer) Armed() bool { return !t.ev.Cancelled() }

// Deadline returns the absolute expiry time; valid only if Armed.
func (t *Timer) Deadline() units.Time { return t.ev.Time() }
