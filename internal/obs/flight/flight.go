// Package flight is the flight recorder: an online analysis layer that
// attaches to the obs trace stream (as an obs.Sink) and turns a run's
// events into diagnosis. It does three things at once, in one pass, while
// the simulation runs:
//
//   - reconstructs per-PSN causal recovery chains — first send → trim/drop
//     → HO bounce → HO return → RetransQ fetch → retransmit(s) → delivery
//     → placement — with per-stage sim-time latency breakdowns;
//   - checks the paper's correctness claims as online invariants
//     (exactly-once placement per PSN and epoch, counter-vs-delivered-set
//     equivalence, eMSN monotonicity under RFC 1982 arithmetic, RetransQ
//     fetches only for PSNs named by an HO return, retry-epoch
//     consistency), reporting each violation with the causal chain that
//     led to it;
//   - aggregates everything into a deterministic autopsy report
//     (report.go): per-flow recovery waterfalls, stage-latency
//     percentiles, the violation list.
//
// The checker is bound by the obs determinism contract: it observes and
// never mutates simulation state, so a checked run is bit-identical to an
// unchecked one. All state is per-flow and retired as messages complete,
// keeping memory proportional to in-flight work, not run length.
package flight

import (
	"fmt"

	"dcpsim/internal/obs"
	"dcpsim/internal/stats"
	"dcpsim/internal/transport/base"
	"dcpsim/internal/units"
)

// Config tunes the checker.
type Config struct {
	// StrictHO promotes HO-packet drops from a counted warning to a
	// violation. The default is lenient because the control queue is
	// engineered, not guaranteed, to be lossless: the Table 5 experiments
	// deliberately overload it to measure exactly this drop rate, and DCP
	// recovers via the coarse timeout when it happens.
	StrictHO bool

	// MaxViolations caps retained violations (all are still counted).
	// 0 means DefaultMaxViolations.
	MaxViolations int

	// ChainEvents caps the raw events retained per live chain (longer
	// chains are marked truncated). 0 means DefaultChainEvents.
	ChainEvents int
}

// Defaults for Config zero fields.
const (
	DefaultMaxViolations = 64
	DefaultChainEvents   = 32
)

// Violation is one invariant breach, carrying the causal chain of raw
// events that led to it (ending with the triggering event).
type Violation struct {
	Invariant string
	At        units.Time
	Flow      uint64
	PSN       uint32
	MSN       uint32
	Detail    string
	Chain     []obs.Event
}

// The invariant names reported in violations.
const (
	InvDuplicatePlacement = "duplicate-placement"
	InvCounterSetMismatch = "counter-set-mismatch"
	InvEMSNRegression     = "emsn-regression"
	InvOrphanRQFetch      = "orphan-rq-fetch"
	InvStaleEpochRetrans  = "stale-epoch-retransmit"
	InvEpochRegression    = "epoch-regression"
	InvHODrop             = "ho-drop"
)

// Recovery-stage latency series. Each is a checker-level histogram fed one
// sample per observed stage transition (multi-cycle recoveries contribute
// one sample per cycle).
const (
	latClean         = iota // send → delivery, never lost, never retransmitted
	latLossToBounce         // trim/drop → HO bounce at the receiver
	latBounceToHORet        // HO bounce → HO return at the sender
	latHORetToFetch         // HO return (RetransQ push) → PCIe fetch completion
	latFetchToRetx          // fetch completion → CC-regulated retransmission
	latRetxToDeliver        // retransmission → delivery at the receiver NIC
	latLossToRecover        // first trim/drop → final placement (or delivery)
	numLats
)

// latNames index the latency series for reports.
var latNames = [numLats]string{
	"clean_send_to_deliver",
	"loss_to_ho_bounce",
	"ho_bounce_to_ho_return",
	"ho_return_to_rq_fetch",
	"rq_fetch_to_retransmit",
	"retransmit_to_deliver",
	"loss_to_recovery",
}

// Per-flow waterfall counters.
const (
	cntSent = iota
	cntRetx
	cntTrim
	cntDrop
	cntHOBounce
	cntHOReturn
	cntRQFetch
	cntDeliver
	cntPlace
	cntMsgComplete
	cntTimeout
	cntFallback
	cntHODrop
	numCounts
)

// cntNames index the waterfall counters for reports.
var cntNames = [numCounts]string{
	"sent", "retx", "trims", "drops", "ho_bounce", "ho_return", "rq_fetch",
	"deliver", "place", "msg_complete", "timeouts", "fallbacks", "ho_drops",
}

const unset = units.Time(-1)

// chain is the live causal-recovery record of one PSN.
type chain struct {
	psn uint32
	msn uint32

	sendAt    units.Time
	lossAt    units.Time // first trim or drop
	lastLoss  units.Time
	lastBoun  units.Time
	lastHORet units.Time
	lastFetch units.Time
	lastRetx  units.Time
	deliverAt units.Time
	placeAt   units.Time

	retx  int
	loss  int
	trunc bool
	ev    []obs.Event
}

// newChain returns an empty chain, reusing a retired one when it can: a
// chain is allocated per sent PSN, so recycling keeps the checker's
// allocation rate flat.
func (c *Checker) newChain(psn, msn uint32) *chain {
	var ch *chain
	if n := len(c.free); n > 0 {
		ch, c.free = c.free[n-1], c.free[:n-1]
	} else {
		ch = new(chain)
	}
	*ch = chain{psn: psn, msn: msn,
		sendAt: unset, lossAt: unset, lastLoss: unset, lastBoun: unset,
		lastHORet: unset, lastFetch: unset, lastRetx: unset,
		deliverAt: unset, placeAt: unset, ev: ch.ev[:0]}
	return ch
}

// msgState is the receiver-side exactly-once evidence for one message: the
// set of PSNs placed in the current retry epoch (a bitmask per 64-PSN
// word), mirrored against the receiver's own per-message counter.
type msgState struct {
	epoch  int64
	placed map[uint32]uint64
	n      int64 // distinct PSNs in placed
}

// flowState is everything the checker tracks about one flow.
type flowState struct {
	id      uint64
	bytes   int64
	startAt units.Time
	doneAt  units.Time
	started bool
	done    bool

	emsn     int64 // last EvEMSNAdv value
	emsnSeen bool

	msgs      map[uint32]*msgState // receiver placement evidence, per MSN
	epochs    map[uint32]int64     // sender retry epoch per MSN (EvEpochFallback)
	pendingRQ map[uint32]int       // PSN → HO returns not yet matched by a fetch
	chains    map[uint32]*chain    // live chains per PSN
	pending   *chain               // delivered, awaiting the adjacent EvPlace

	counts [numCounts]int64

	recoverN   int64
	recoverSum int64 // picoseconds
	recoverMax int64 // picoseconds
}

// Checker is the online invariant checker and chain reconstructor. Attach
// it with Tracer.Tee; call Finish when the run ends to obtain the report.
type Checker struct {
	cfg Config

	flows map[uint64]*flowState
	order []uint64 // flow IDs in first-seen order
	free  []*chain // retired chains for reuse

	lat [numLats]stats.LogHist

	events     int64
	hoDrops    int64
	violations []Violation
	violTotal  int64
	finished   bool
}

// New returns a checker with cfg's zero fields defaulted.
func New(cfg Config) *Checker {
	if cfg.MaxViolations <= 0 {
		cfg.MaxViolations = DefaultMaxViolations
	}
	if cfg.ChainEvents <= 0 {
		cfg.ChainEvents = DefaultChainEvents
	}
	return &Checker{cfg: cfg, flows: make(map[uint64]*flowState)}
}

// Violations returns the total number of invariant violations so far
// (including any beyond the retained cap).
func (c *Checker) Violations() int64 { return c.violTotal }

// Events returns the number of trace events observed.
func (c *Checker) Events() int64 { return c.events }

func (c *Checker) flow(id uint64) *flowState {
	f := c.flows[id]
	if f == nil {
		f = &flowState{id: id, startAt: unset, doneAt: unset, emsn: -1,
			msgs:      make(map[uint32]*msgState),
			epochs:    make(map[uint32]int64),
			pendingRQ: make(map[uint32]int),
			chains:    make(map[uint32]*chain),
		}
		c.flows[id] = f
		c.order = append(c.order, id)
	}
	return f
}

func (c *Checker) violate(inv string, e *obs.Event, ch *chain, detail string) {
	c.violTotal++
	if len(c.violations) >= c.cfg.MaxViolations {
		return
	}
	v := Violation{Invariant: inv, At: e.At, Flow: e.Flow, PSN: e.PSN, MSN: e.MSN, Detail: detail}
	if ch != nil {
		v.Chain = append(v.Chain, ch.ev...)
	}
	// The chain always ends with the triggering event.
	v.Chain = append(v.Chain, *e)
	c.violations = append(c.violations, v)
}

// record appends e to the chain's bounded raw-event log.
func (c *Checker) record(ch *chain, e *obs.Event) {
	if len(ch.ev) < c.cfg.ChainEvents {
		ch.ev = append(ch.ev, *e)
	} else {
		ch.trunc = true
	}
}

func (c *Checker) chainFor(f *flowState, e *obs.Event) *chain {
	ch := f.chains[e.PSN]
	if ch == nil {
		ch = c.newChain(e.PSN, e.MSN)
		f.chains[e.PSN] = ch
	}
	return ch
}

// sample feeds one stage-latency observation (negative deltas cannot occur
// with a monotone simulated clock, but guard anyway).
func (c *Checker) sample(lat int, from, to units.Time) {
	if from >= 0 && to >= from {
		c.lat[lat].Record((to - from).Picos())
	}
}

// retire finalizes a chain: recovery and clean-delivery latencies, per-flow
// recovery aggregates. The chain is then free for reuse.
func (c *Checker) retire(f *flowState, ch *chain) {
	c.free = append(c.free, ch)
	if ch.lossAt >= 0 {
		end := ch.placeAt
		if end < 0 {
			end = ch.deliverAt
		}
		if end >= ch.lossAt {
			d := (end - ch.lossAt).Picos()
			c.lat[latLossToRecover].Record(d)
			f.recoverN++
			f.recoverSum += d
			if d > f.recoverMax {
				f.recoverMax = d
			}
		}
		return
	}
	if ch.retx == 0 && ch.sendAt >= 0 && ch.deliverAt >= ch.sendAt {
		c.lat[latClean].Record((ch.deliverAt - ch.sendAt).Picos())
	}
}

// flushPending retires a delivered chain that no EvPlace claimed.
func (c *Checker) flushPending(f *flowState) {
	if f.pending != nil {
		ch := f.pending
		f.pending = nil
		c.retire(f, ch)
	}
}

// OnEvent implements obs.Sink.
func (c *Checker) OnEvent(e *obs.Event) {
	c.events++
	switch e.Type {
	case obs.EvEnqueue, obs.EvECNMark, obs.EvCCRate, obs.EvPause, obs.EvFault,
		obs.EvAckDrop:
		// Per-hop, congestion-signal and fabric-scoped events carry no
		// recovery-chain or invariant evidence; skipping them keeps the
		// checker cheap on the hottest event types.
		return
	}
	f := c.flow(e.Flow)
	if f.pending != nil && !(e.Type == obs.EvPlace && e.PSN == f.pending.psn) {
		c.flushPending(f)
	}
	switch e.Type {
	case obs.EvFlowStart:
		f.started = true
		f.startAt = e.At
		f.bytes = e.Aux

	case obs.EvFlowDone:
		f.done = true
		f.doneAt = e.At

	case obs.EvSend:
		f.counts[cntSent]++
		ch := c.chainFor(f, e)
		if ch.sendAt < 0 {
			ch.sendAt = e.At
		}
		c.record(ch, e)

	case obs.EvTrim, obs.EvDataDrop:
		if e.Type == obs.EvTrim {
			f.counts[cntTrim]++
		} else {
			f.counts[cntDrop]++
		}
		ch := c.chainFor(f, e)
		ch.loss++
		ch.lastLoss = e.At
		if ch.lossAt < 0 {
			ch.lossAt = e.At
		}
		c.record(ch, e)

	case obs.EvHOEnqueue:
		if ch := f.chains[e.PSN]; ch != nil {
			c.record(ch, e)
		}

	case obs.EvHODrop:
		f.counts[cntHODrop]++
		c.hoDrops++
		ch := f.chains[e.PSN]
		if c.cfg.StrictHO {
			c.violate(InvHODrop, e, ch, "control-queue HO packet dropped")
		}
		if ch != nil {
			c.record(ch, e)
		}

	case obs.EvHOBounce:
		f.counts[cntHOBounce]++
		ch := c.chainFor(f, e)
		c.sample(latLossToBounce, ch.lastLoss, e.At)
		ch.lastBoun = e.At
		c.record(ch, e)

	case obs.EvHOReturn:
		f.counts[cntHOReturn]++
		f.pendingRQ[e.PSN]++
		ch := c.chainFor(f, e)
		from := ch.lastBoun
		if from < 0 {
			from = ch.lastLoss // direct-return fabrics skip the bounce
		}
		c.sample(latBounceToHORet, from, e.At)
		ch.lastHORet = e.At
		c.record(ch, e)

	case obs.EvRQFetch:
		f.counts[cntRQFetch]++
		ch := f.chains[e.PSN]
		if f.pendingRQ[e.PSN] > 0 {
			f.pendingRQ[e.PSN]--
			if f.pendingRQ[e.PSN] == 0 {
				delete(f.pendingRQ, e.PSN)
			}
		} else {
			c.violate(InvOrphanRQFetch, e, ch,
				"RetransQ fetch for a PSN no HO return pushed")
		}
		if ch == nil {
			ch = c.chainFor(f, e)
		}
		c.sample(latHORetToFetch, ch.lastHORet, e.At)
		ch.lastFetch = e.At
		c.record(ch, e)

	case obs.EvRetransmit:
		f.counts[cntRetx]++
		ch := c.chainFor(f, e)
		ch.retx++
		c.sample(latFetchToRetx, ch.lastFetch, e.At)
		ch.lastRetx = e.At
		// Retry-epoch consistency, sender side: once a coarse-timeout
		// fallback bumped this message's epoch, every retransmission must
		// carry the current epoch — the receiver discards stale ones, so a
		// stale emission is wasted wire time at best and a state bug at
		// worst. Only DCP emits EvEpochFallback, so other transports are
		// naturally exempt. Checked before the event joins the chain: the
		// violation's chain ends with the triggering retransmit.
		if cur, ok := f.epochs[e.MSN]; ok && e.Aux < cur {
			c.violate(InvStaleEpochRetrans, e, ch,
				fmt.Sprintf("retransmit carries epoch %d, current epoch %d", e.Aux, cur))
		}
		c.record(ch, e)

	case obs.EvDeliver:
		f.counts[cntDeliver]++
		ch := f.chains[e.PSN]
		if ch == nil {
			ch = c.newChain(e.PSN, e.MSN)
		} else {
			delete(f.chains, e.PSN)
		}
		c.sample(latRetxToDeliver, ch.lastRetx, e.At)
		ch.deliverAt = e.At
		c.record(ch, e)
		// Park until the adjacent EvPlace claims it (DCP) or the next flow
		// event flushes it (non-DCP transports, or a discarded duplicate).
		f.pending = ch

	case obs.EvPlace:
		f.counts[cntPlace]++
		var ch *chain
		if f.pending != nil && f.pending.psn == e.PSN {
			ch = f.pending
			f.pending = nil
		} else if ch = f.chains[e.PSN]; ch != nil {
			delete(f.chains, e.PSN)
		}
		c.checkPlace(f, e, ch)
		if ch != nil {
			ch.placeAt = e.At
			c.record(ch, e)
			c.retire(f, ch)
		}

	case obs.EvMsgComplete:
		f.counts[cntMsgComplete]++
		if m := f.msgs[e.MSN]; m != nil {
			if m.n != e.Aux {
				c.violate(InvCounterSetMismatch, e, f.chains[e.PSN], fmt.Sprintf(
					"message completed with counter %d but %d distinct PSNs placed",
					e.Aux, m.n))
			}
			delete(f.msgs, e.MSN)
		}

	case obs.EvEMSNAdv:
		if f.emsnSeen && !base.SeqLess(uint32(f.emsn), uint32(e.Aux)) {
			c.violate(InvEMSNRegression, e, nil, fmt.Sprintf(
				"eMSN moved %d → %d (must be strictly increasing)", f.emsn, e.Aux))
		}
		f.emsn = e.Aux
		f.emsnSeen = true

	case obs.EvTimeout:
		f.counts[cntTimeout]++

	case obs.EvEpochFallback:
		f.counts[cntFallback]++
		// Retry epochs only ever increase (uint8 in the packet header; the
		// trace carries the widened value).
		if old, ok := f.epochs[e.MSN]; ok && e.Aux <= old {
			c.violate(InvEpochRegression, e, nil, fmt.Sprintf(
				"sender epoch moved %d → %d on fallback", old, e.Aux))
		}
		f.epochs[e.MSN] = e.Aux
	}
}

// checkPlace runs the receiver-side placement invariants: the heart of the
// bitmap-free claim. EvPlace's Aux packs (epoch << 32) | counter-after.
func (c *Checker) checkPlace(f *flowState, e *obs.Event, ch *chain) {
	epoch := e.Aux >> 32
	counter := e.Aux & 0xffffffff
	m := f.msgs[e.MSN]
	if m == nil {
		m = &msgState{epoch: epoch, placed: make(map[uint32]uint64)}
		f.msgs[e.MSN] = m
	}
	switch {
	case epoch > m.epoch:
		// The receiver reset its count for a new retry epoch; the placed
		// set resets with it.
		m.epoch = epoch
		clear(m.placed)
		m.n = 0
	case epoch < m.epoch:
		c.violate(InvEpochRegression, e, ch, fmt.Sprintf(
			"receiver accepted epoch %d after advancing to %d", epoch, m.epoch))
	}
	w, bit := e.PSN/64, uint64(1)<<(e.PSN%64)
	if m.placed[w]&bit != 0 {
		c.violate(InvDuplicatePlacement, e, ch, fmt.Sprintf(
			"PSN placed twice in epoch %d (payload double-counted)", epoch))
	} else {
		m.placed[w] |= bit
		m.n++
	}
	if m.n != counter {
		c.violate(InvCounterSetMismatch, e, ch, fmt.Sprintf(
			"receiver counter %d, distinct PSNs placed %d", counter, m.n))
	}
}
