package base

import (
	"dcpsim/internal/packet"
	"dcpsim/internal/sim"
	"dcpsim/internal/units"
)

// rtoLowThreshold is IRN's N: with fewer than N packets outstanding there
// may be no later packet to trigger a SACK, so the short timeout applies.
const rtoLowThreshold = 3

// Range is one selectively acknowledged PSN span [Lo, Hi).
type Range struct{ Lo, Hi uint32 }

// Scoreboard is a selective-repeat sender's per-PSN mark set.
type Scoreboard interface {
	Get(psn uint32) bool
	// Set marks psn, reporting false when it was already marked (or lies
	// outside the tracked span).
	Set(psn uint32) bool
	// SlideTo forgets every mark below psn, the new cumulative point.
	SlideTo(psn uint32)
}

// SackDecoder reads one ACK: the cumulative point and the SACK ranges,
// both as full-space PSNs (una is the sender's cumulative point, for
// wrap-safe expansion). buf is scratch space for the ranges. ok = false
// drops the ACK.
type SackDecoder func(p *packet.Packet, una uint32, buf []Range) (epsn uint32, sacks []Range, ok bool)

// Selective is the SACK-driven selective-repeat sender IRN and SDR share
// (§2.2): BDP-bounded new data, loss-recovery episodes that retransmit each
// hole at most once and take priority over new data, and the
// RTOlow/RTOhigh timeout pair.
type Selective struct {
	*SendQP
	decode SackDecoder
	marks  func(una uint32) Scoreboard
	// window caps new data at una+window, so a fixed receiver bitmap
	// covers everything in flight; 0 leaves it uncapped.
	window uint32

	una     uint32
	nextPSN uint32
	// sacked is the SACK scoreboard; highSack is one past the highest
	// SACKed PSN (0 = none); sackedOut counts SACKed PSNs at or above una,
	// whose window credit is already returned.
	sacked    Scoreboard
	highSack  uint32
	sackedOut int

	// Loss recovery episode: entered on a SACK (or timeout), left when una
	// passes recoverPSN; retransmitted holds the episode's resends.
	inRecovery    bool
	timeoutMode   bool // entered via RTO: all unSACKed count as lost
	recoverPSN    uint32
	retransmitted Scoreboard
	scan          uint32 // retransmission scan cursor

	timer   *sim.Timer
	scratch [1]Range
}

// NewSelective returns a selective-repeat sender over the sacked
// scoreboard. marks builds each recovery episode's empty retransmit marks
// based at una.
func NewSelective(q *SendQP, sacked Scoreboard, window uint32, marks func(una uint32) Scoreboard, decode SackDecoder) *Selective {
	s := &Selective{SendQP: q, sacked: sacked, window: window, marks: marks, decode: decode}
	s.timer = q.NewTimer(s.onTimeout)
	s.resetTimer()
	return s
}

// inflightBytes is the BDP window charge: the span of outstanding packets
// minus the ones already SACKed out of it. Retransmissions never widen it,
// so spurious retransmissions cannot starve the window.
func (s *Selective) inflightBytes() int {
	n := int(SeqDiff(s.nextPSN, s.una)) - s.sackedOut
	if n < 0 {
		n = 0
	}
	return n * s.Env().MTU
}

func (s *Selective) resetTimer() {
	if SeqDiff(s.nextPSN, s.una) < rtoLowThreshold {
		s.timer.Reset(s.Env().RTOLow)
	} else {
		s.timer.Reset(s.Env().RTOHigh)
	}
}

// Next implements QP: retransmissions (while in a recovery episode) take
// priority over new data; both share the BDP window.
func (s *Selective) Next(now units.Time) (*packet.Packet, units.Time) {
	if s.inRecovery {
		if psn, ok := s.nextLost(); ok {
			size := s.PayloadAt(psn)
			// A retransmission stays inside the already-charged window
			// span, so only rate pacing applies (inflight 0). Charging the
			// window here deadlocks after a whole-window loss (link flap):
			// no ACK ever arrives to reopen it.
			ok, at := s.CC.CanSend(now, 0, size)
			if !ok {
				return nil, at
			}
			s.retransmitted.Set(psn)
			s.scan = psn + 1
			p := s.Data(now, psn, size, true)
			s.CC.OnSent(now, size+packet.DataHeaderSize)
			return p, 0
		}
	}
	if SeqLess(s.nextPSN, s.Pkts) && (s.window == 0 || SeqLess(s.nextPSN, s.una+s.window)) {
		size := s.PayloadAt(s.nextPSN)
		ok, at := s.CC.CanSend(now, s.inflightBytes(), size)
		if !ok {
			return nil, at
		}
		psn := s.nextPSN
		s.nextPSN++
		p := s.Data(now, psn, size, false)
		s.CC.OnSent(now, size+packet.DataHeaderSize)
		return p, 0
	}
	return nil, 0
}

// nextLost scans for the next retransmission candidate: unSACKed, not yet
// retransmitted this episode, and (unless the episode began with a
// timeout) below the highest SACKed PSN, a hole the receiver has proven.
func (s *Selective) nextLost() (uint32, bool) {
	limit := s.highSack
	if s.timeoutMode {
		limit = s.nextPSN
	}
	psn := s.scan
	if SeqLess(psn, s.una) {
		psn = s.una
	}
	for ; SeqLess(psn, limit) && SeqLess(psn, s.nextPSN); psn++ {
		if !s.sacked.Get(psn) && !s.retransmitted.Get(psn) {
			return psn, true
		}
	}
	return 0, false
}

// OnAck implements Sender: advance the cumulative point, mark the SACKed
// ranges, and enter recovery on the first SACK, which implies
// out-of-order delivery. (This is exactly where reordering causes
// spurious retransmissions.)
func (s *Selective) OnAck(p *packet.Packet) {
	epsn, sacks, ok := s.decode(p, s.una, s.scratch[:0])
	if !ok {
		return
	}
	now := s.Now()
	progressed := false
	if SeqLess(s.una, epsn) && SeqGEQ(s.Pkts, epsn) {
		var acked int
		for psn := s.una; SeqLess(psn, epsn); psn++ {
			if s.sacked.Get(psn) {
				s.sackedOut-- // already credited when SACKed
			} else {
				acked += s.PayloadAt(psn)
			}
		}
		s.sacked.SlideTo(epsn)
		if s.retransmitted != nil {
			s.retransmitted.SlideTo(epsn)
		}
		s.una = epsn
		if s.sackedOut < 0 {
			s.sackedOut = 0
		}
		var rtt units.Time
		if p.SentAt > 0 {
			rtt = now - p.SentAt
		}
		s.CC.OnAck(now, acked, rtt)
		progressed = true
	}
	for _, r := range sacks {
		for psn := r.Lo; SeqLess(psn, r.Hi) && SeqLess(psn, s.nextPSN); psn++ {
			if SeqGEQ(psn, s.una) && s.sacked.Set(psn) {
				s.sackedOut++
				s.CC.OnAck(now, s.PayloadAt(psn), 0)
			}
			if SeqLess(s.highSack, psn+1) {
				s.highSack = psn + 1
			}
		}
	}
	if len(sacks) > 0 && !s.inRecovery {
		s.enterRecovery(false)
	}
	if progressed {
		s.resetTimer()
		if SeqGEQ(s.una, s.Pkts) {
			s.Complete(now)
			return
		}
		if s.inRecovery && SeqLess(s.recoverPSN, s.una) {
			s.inRecovery = false
			s.timeoutMode = false
		}
	}
	s.Kick()
}

func (s *Selective) enterRecovery(timeout bool) {
	s.inRecovery = true
	s.timeoutMode = timeout
	if s.nextPSN > 0 {
		s.recoverPSN = s.nextPSN - 1
	}
	s.retransmitted = s.marks(s.una)
	s.scan = s.una
}

func (s *Selective) onTimeout() {
	if SeqLess(s.una, s.nextPSN) {
		s.TimedOut(s.una)
		s.enterRecovery(true)
		s.Kick()
	}
	s.resetTimer()
}
