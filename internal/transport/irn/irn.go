// Package irn implements the IRN baseline (Mittal et al., SIGCOMM'18), the
// paper's representative RNIC-SR scheme: BDP-bounded transmission, per-QP
// bitmaps, SACK-triggered loss recovery episodes (each lost packet
// retransmitted at most once per episode), and the RTOlow/RTOhigh timeout
// pair. Its two failure modes under packet-level load balancing — spurious
// retransmissions on reordering and excessive RTOs for tail/retransmitted
// losses — are exactly what the paper's Figs. 1, 2, 13–17 measure.
package irn

import (
	"dcpsim/internal/nic"
	"dcpsim/internal/packet"
	"dcpsim/internal/transport/base"
)

// Fixed per-QP tracking state beyond the full-message bitmaps, for the
// bitmap-vs-counter memory accounting (§4.5).
const (
	senderFixedState = 64
	recvFixedState   = 24
)

// New builds an IRN endpoint.
func New(n *nic.NIC, env *base.Env) base.Transport {
	return base.NewEndpoint(n, env, base.Scheme{
		Name: "irn", CNP: true,
		NewSender:   newSender,
		NewReceiver: newReceiver,
	})
}

// newSender is the shared selective-repeat sender over full-flow bitmaps:
// the SACK scoreboard and, per recovery episode, the retransmit marks.
func newSender(q *base.SendQP) base.Sender {
	sacked := base.NewBitmap(q.Pkts)
	q.Rec.NoteSendState(senderFixedState + 2*sacked.StateBytes())
	marks := func(uint32) base.Scoreboard { return base.NewBitmap(q.Pkts) }
	decode := func(p *packet.Packet, _ uint32, buf []base.Range) (uint32, []base.Range, bool) {
		// A SACK carries both the cumulative ack and the out-of-order PSN
		// (§2.2 issue #1).
		if p.Ack == packet.AckSelective && base.SeqLess(p.SackPSN, q.Pkts) {
			buf = append(buf, base.Range{Lo: p.SackPSN, Hi: p.SackPSN + 1})
		}
		return p.EPSN, buf, true
	}
	return base.NewSelective(q, sacked, 0, marks, decode)
}

type receiver struct {
	ep *base.Endpoint
	*base.Reorder
}

func newReceiver(ep *base.Endpoint, first *packet.Packet) base.Receiver {
	r := &receiver{ep, base.NewReorder(ep, first)}
	if rec := ep.Env.Collector.Flow(first.FlowID); rec != nil {
		rec.NoteRecvState(recvFixedState + r.StateBytes())
	}
	return r
}

// Receive acknowledges in-order arrivals and duplicates (a spurious
// retransmission refreshes the sender) cumulatively, and SACKs
// out-of-order arrivals with both the cumulative point and their PSN.
func (r *receiver) Receive(p *packet.Packet) {
	inOrder := p.PSN == r.EPSN
	fresh := r.Accept(p)
	a := r.ep.Ack(p, r.EPSN)
	if fresh && !inOrder {
		a.Ack = packet.AckSelective
		a.SackPSN = p.PSN
	}
	r.ep.QueueCtrl(a)
}
