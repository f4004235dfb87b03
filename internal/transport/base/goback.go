package base

import (
	"dcpsim/internal/packet"
	"dcpsim/internal/sim"
	"dcpsim/internal/units"
)

// GoBack is the Go-Back-N sender of traditional RoCE NICs: CC-gated
// in-order transmission, cumulative ACKs, a rewind to the expected PSN on
// a NAK, and a rewind to the oldest unacknowledged PSN when the
// retransmission timer expires.
type GoBack struct {
	*SendQP
	rto      units.Time
	una      uint32 // cumulative acknowledged PSN
	nextPSN  uint32
	sentHigh uint32 // one past the highest PSN ever sent: below it is a resend
	inflight int
	timer    *sim.Timer
}

// NewGoBack returns a Go-Back-N sender whose timer fires after rto
// without progress.
func NewGoBack(q *SendQP, rto units.Time) *GoBack {
	s := &GoBack{SendQP: q, rto: rto}
	s.timer = q.NewTimer(s.onTimeout)
	s.timer.Reset(rto)
	return s
}

// Next implements QP.
func (s *GoBack) Next(now units.Time) (*packet.Packet, units.Time) {
	if SeqGEQ(s.nextPSN, s.Pkts) {
		return nil, 0
	}
	size := s.PayloadAt(s.nextPSN)
	ok, at := s.CC.CanSend(now, s.inflight, size)
	if !ok {
		return nil, at
	}
	psn := s.nextPSN
	s.nextPSN++
	resend := SeqLess(psn, s.sentHigh)
	if !resend {
		s.sentHigh = psn + 1
	}
	p := s.Data(now, psn, size, resend)
	s.inflight += size
	s.CC.OnSent(now, p.Size)
	return p, 0
}

// OnAck implements Sender.
func (s *GoBack) OnAck(p *packet.Packet) {
	now := s.Now()
	if SeqLess(s.una, p.EPSN) {
		var acked int
		for psn := s.una; SeqLess(psn, p.EPSN); psn++ {
			acked += s.PayloadAt(psn)
		}
		s.una = p.EPSN
		if SeqLess(s.nextPSN, s.una) {
			s.nextPSN = s.una // a rewind raced this cumulative ACK
		}
		s.inflight -= acked
		if s.inflight < 0 {
			s.inflight = 0
		}
		var rtt units.Time
		if p.SentAt > 0 {
			rtt = now - p.SentAt
		}
		s.CC.OnAck(now, acked, rtt)
		s.timer.Reset(s.rto)
		if SeqGEQ(s.una, s.Pkts) {
			s.Complete(now)
			return
		}
	}
	if p.Ack == packet.AckNak && SeqLess(p.EPSN, s.nextPSN) {
		s.rewind(p.EPSN)
	}
	s.Kick()
}

// rewind restarts transmission at to; everything beyond it is no longer
// in flight and will be resent.
func (s *GoBack) rewind(to uint32) {
	s.nextPSN = to
	var fly int
	for psn := s.una; SeqLess(psn, to); psn++ {
		fly += s.PayloadAt(psn)
	}
	s.inflight = fly
}

func (s *GoBack) onTimeout() {
	if SeqLess(s.una, s.nextPSN) {
		s.TimedOut(s.una)
		s.rewind(s.una)
		s.Kick()
	}
	s.timer.Reset(s.rto)
}
