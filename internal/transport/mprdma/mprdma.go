// Package mprdma implements the MP-RDMA baseline (Lu et al., NSDI'18):
// packet-level multipath transmission over distinct virtual paths (UDP
// source ports), an ECN/ACK-clocked congestion window, a receiver-side
// out-of-order window beyond which packets are dropped, and Go-Back-N loss
// recovery. Per Table 2 it still requires PFC (R1 ✗) and lacks fast loss
// recovery (R3 ✗).
package mprdma

import (
	"dcpsim/internal/nic"
	"dcpsim/internal/packet"
	"dcpsim/internal/sim"
	"dcpsim/internal/transport/base"
	"dcpsim/internal/units"
)

// New builds an MP-RDMA endpoint.
func New(n *nic.NIC, env *base.Env) base.Transport {
	return base.NewEndpoint(n, env, base.Scheme{
		Name: "mprdma", OwnWindow: true,
		NewSender: newSender,
		NewReceiver: func(ep *base.Endpoint, first *packet.Packet) base.Receiver {
			return &receiver{ep: ep, Reorder: base.NewReorder(ep, first)}
		},
	})
}

type sender struct {
	*base.SendQP

	una      uint32
	nextPSN  uint32
	sentHigh uint32 // one past the highest PSN ever sent: below it is a resend
	inflight int    // packets in flight (ACK-clocked)

	// cwnd is MP-RDMA's adaptive congestion window in packets: +1/cwnd
	// per unmarked ACK, -1/2 per ECN-marked ACK.
	cwnd float64

	pathRR uint32
	timer  *sim.Timer
}

func newSender(q *base.SendQP) base.Sender {
	env := q.Env()
	s := &sender{SendQP: q}
	s.cwnd = float64(units.BDP(q.Endpoint().NIC.Rate(), env.BaseRTT)) / float64(env.MTU)
	if s.cwnd < 2 {
		s.cwnd = 2
	}
	s.timer = q.NewTimer(s.onTimeout)
	s.timer.Reset(env.RTOHigh)
	return s
}

// Next implements base.QP.
func (s *sender) Next(now units.Time) (*packet.Packet, units.Time) {
	if base.SeqGEQ(s.nextPSN, s.Pkts) || float64(s.inflight) >= s.cwnd {
		return nil, 0 // done, or ACK-clocked
	}
	psn := s.nextPSN
	s.nextPSN++
	resend := base.SeqLess(psn, s.sentHigh)
	if !resend {
		s.sentHigh = psn + 1
	}
	p := s.Data(now, psn, s.PayloadAt(psn), resend)
	// Virtual path selection: round robin across paths, hashed by the
	// fabric like distinct UDP source ports.
	p.PathKey = s.pathRR%uint32(s.Env().MP.Paths) + 1
	s.pathRR++
	s.inflight++
	return p, 0
}

// OnAck implements base.Sender: every ACK clocks the window, with
// ECN-echo driven adaptation.
func (s *sender) OnAck(p *packet.Packet) {
	if s.inflight > 0 {
		s.inflight--
	}
	if p.ECN {
		s.cwnd -= 0.5
		if s.cwnd < 1 {
			s.cwnd = 1
		}
	} else {
		s.cwnd += 1 / s.cwnd
	}
	if base.SeqLess(s.una, p.EPSN) {
		s.una = p.EPSN
		if base.SeqLess(s.nextPSN, s.una) {
			s.nextPSN = s.una // a rewind raced this cumulative ACK
		}
		s.timer.Reset(s.Env().RTOHigh)
		if base.SeqGEQ(s.una, s.Pkts) {
			s.Complete(s.Now())
			return
		}
	}
	if p.Ack == packet.AckNak && base.SeqLess(p.EPSN, s.nextPSN) {
		// OOO-window overflow at the receiver: Go-Back-N.
		s.nextPSN = p.EPSN
		s.inflight = 0
	}
	s.Kick()
}

func (s *sender) onTimeout() {
	if base.SeqLess(s.una, s.nextPSN) {
		s.TimedOut(s.una)
		s.nextPSN = s.una
		s.inflight = 0
		s.Kick()
	}
	s.timer.Reset(s.Env().RTOHigh)
}

type receiver struct {
	ep *base.Endpoint
	*base.Reorder
	nakSent bool
}

// Receive enforces the out-of-order window: the receiver bitmap only
// spans L packets beyond ePSN; packets further ahead are dropped and
// trigger Go-Back-N. The paper observes MP-RDMA fails to keep the OOO
// degree below this threshold under adaptive routing, causing its
// inferior performance.
func (r *receiver) Receive(p *packet.Packet) {
	flavor := packet.AckCumulative
	if base.SeqGEQ(p.PSN, r.EPSN+uint32(r.ep.Env.MP.OOOWindow)) {
		if r.nakSent {
			return
		}
		r.nakSent = true
		flavor = packet.AckNak
	} else if old := r.EPSN; r.Accept(p) && r.EPSN != old {
		r.nakSent = false
	}
	a := r.ep.Ack(p, r.EPSN)
	a.Ack = flavor
	a.ECN = p.ECN         // ECN echo drives the sender's window
	a.PathKey = p.PathKey // ACK returns on the data packet's path
	r.ep.QueueCtrl(a)
}
