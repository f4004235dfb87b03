// Package tcpish implements a software TCP-like endpoint (Reno congestion
// control, cumulative ACKs with duplicate-ACK fast retransmit) including
// the host-stack costs that hardware offload removes: a fixed per-direction
// stack latency and a CPU-bound packet rate. It exists for the Fig. 8
// validation ("offloaded DCP ≈ offloaded GBN ≫ software TCP"); the
// absolute overhead values are a documented model, not a kernel.
package tcpish

import (
	"dcpsim/internal/nic"
	"dcpsim/internal/packet"
	"dcpsim/internal/sim"
	"dcpsim/internal/transport/base"
	"dcpsim/internal/units"
)

// Stack cost model: each packet spends StackDelay in the host stack in each
// direction, and the CPU sustains at most CPURate of TCP throughput.
const (
	StackDelay = 12 * units.Microsecond
	CPURate    = 40 * units.Gbps
)

// New builds a TCP-like endpoint. Arrivals pay the receive-side stack
// delay before protocol processing.
func New(n *nic.NIC, env *base.Env) base.Transport {
	return base.NewEndpoint(n, env, base.Scheme{
		Name: "tcp", OwnWindow: true, StackDelay: StackDelay,
		NewSender:   newSender,
		NewReceiver: base.CumulativeReceiver(false),
	})
}

type sender struct {
	*base.SendQP

	una      uint32
	nextPSN  uint32
	sentHigh uint32 // one past the highest PSN ever sent: below it is a resend

	cwnd     float64 // packets
	ssthresh float64
	dupAcks  int

	nextSend units.Time // CPU pacing
	timer    *sim.Timer
}

func newSender(q *base.SendQP) base.Sender {
	s := &sender{SendQP: q, cwnd: 10, ssthresh: 1 << 20}
	s.timer = q.NewTimer(s.onTimeout)
	s.timer.Reset(q.Env().RTOHigh)
	return s
}

// Next implements base.QP.
func (s *sender) Next(now units.Time) (*packet.Packet, units.Time) {
	if base.SeqGEQ(s.nextPSN, s.Pkts) || float64(base.SeqDiff(s.nextPSN, s.una)) >= s.cwnd {
		return nil, 0
	}
	if now < s.nextSend {
		return nil, s.nextSend
	}
	psn := s.nextPSN
	s.nextPSN++
	size := s.PayloadAt(psn)
	s.nextSend = now + units.TxTime(size, CPURate)
	resend := base.SeqLess(psn, s.sentHigh)
	if !resend {
		s.sentHigh = psn + 1
	}
	return s.Data(now, psn, size, resend), 0
}

// OnAck implements base.Sender.
func (s *sender) OnAck(p *packet.Packet) {
	switch {
	case base.SeqLess(s.una, p.EPSN):
		s.una = p.EPSN
		if base.SeqLess(s.nextPSN, s.una) {
			// A rewind raced a straggler cumulative ACK; never send
			// already-acknowledged data (and never let nextPSN-una
			// underflow).
			s.nextPSN = s.una
		}
		s.dupAcks = 0
		if s.cwnd < s.ssthresh {
			s.cwnd++ // slow start
		} else {
			s.cwnd += 1 / s.cwnd // congestion avoidance
		}
		s.timer.Reset(s.Env().RTOHigh)
		if base.SeqGEQ(s.una, s.Pkts) {
			s.Complete(s.Now())
			return
		}
	case p.EPSN == s.una && base.SeqLess(s.una, s.nextPSN):
		s.dupAcks++
		if s.dupAcks == 3 {
			// Fast retransmit: Reno halves and resends the hole.
			s.halve()
			s.cwnd = s.ssthresh
			s.nextPSN = s.una
		}
	}
	s.Kick()
}

func (s *sender) halve() {
	s.ssthresh = s.cwnd / 2
	if s.ssthresh < 2 {
		s.ssthresh = 2
	}
}

func (s *sender) onTimeout() {
	if base.SeqLess(s.una, s.nextPSN) {
		s.TimedOut(s.una)
		s.halve()
		s.cwnd = 1
		s.nextPSN = s.una
		s.Kick()
	}
	s.timer.Reset(s.Env().RTOHigh)
}
