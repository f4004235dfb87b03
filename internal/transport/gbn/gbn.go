// Package gbn implements the RNIC-GBN baseline: the Go-Back-N loss
// recovery of traditional RoCEv2 NICs (Mellanox CX5 class). The receiver
// only accepts in-order packets; an out-of-order arrival elicits a NAK
// carrying the expected PSN, and the sender rewinds its transmission to
// that PSN. Deployed with PFC (lossless) in production; over lossy fabrics
// its goodput collapses, which is the paper's Fig. 10/11 comparison.
package gbn

import (
	"dcpsim/internal/nic"
	"dcpsim/internal/packet"
	"dcpsim/internal/transport/base"
)

// New builds a GBN endpoint. Its traffic is traditional RoCE: dropped,
// not trimmed, by a congested switch.
func New(n *nic.NIC, env *base.Env) base.Transport {
	return base.NewEndpoint(n, env, base.Scheme{
		Name: "gbn", CNP: true,
		NewSender: func(q *base.SendQP) base.Sender { return base.NewGoBack(q, q.Env().RTOHigh) },
		NewReceiver: func(ep *base.Endpoint, first *packet.Packet) base.Receiver {
			return &receiver{ep: ep, total: first.MsgLen}
		},
	})
}

type receiver struct {
	ep      *base.Endpoint
	ePSN    uint32
	total   uint32
	nakSent bool
}

// Receive accepts only the expected PSN. GBN has no reorder buffer: an
// out-of-order arrival is dropped and NAKed once per gap (RoCE
// NAK-sequence-error semantics); a duplicate from a rewind refreshes the
// sender.
func (r *receiver) Receive(p *packet.Packet) {
	flavor := packet.AckCumulative
	switch {
	case p.PSN == r.ePSN:
		r.ePSN++
		r.nakSent = false
		r.ep.Place(p, 0, r.ePSN)
		if r.ePSN == r.total {
			r.ep.MsgComplete(p, r.total)
		}
	case base.SeqLess(r.ePSN, p.PSN):
		if r.nakSent {
			return
		}
		r.nakSent = true
		flavor = packet.AckNak
	}
	a := r.ep.Ack(p, r.ePSN)
	a.Ack = flavor
	r.ep.QueueCtrl(a)
}
