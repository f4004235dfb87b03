// This file holds the SDR endpoint: the shared selective-repeat sender
// over sliding-window scoreboards (each hole retransmitted at most once per
// recovery episode, IRN-style, with the RTOlow/RTOhigh timeout pair as the
// last resort), and the receiver, which is the driving side: it answers
// every data packet with a cumulative ACK carrying the encoded SACK state
// of its sliding window bitmap.
package sdr

import (
	"dcpsim/internal/nic"
	"dcpsim/internal/packet"
	"dcpsim/internal/transport/base"
)

// senderFixedState approximates the non-bitmap per-QP sender footprint
// (sequence cursors, timer, episode state), for the state-bytes account.
const senderFixedState = 64

// recvFixedState approximates the non-bitmap per-QP receiver footprint.
const recvFixedState = 32

// New builds an SDR endpoint.
func New(n *nic.NIC, env *base.Env) base.Transport {
	return base.NewEndpoint(n, env, base.Scheme{
		Name: "sdr", CNP: true,
		NewSender:   newSender,
		NewReceiver: newReceiver,
	})
}

// newSender bounds both the SACK scoreboard and the retransmit marks to
// the sliding window, and new data to the window's span above una, so the
// receiver's fixed bitmap always covers everything in flight.
func newSender(q *base.SendQP) base.Sender {
	size := q.Env().SDR.WindowPkts
	sacked := NewWindow(size)
	q.Rec.NoteSendState(2*sacked.StateBytes() + senderFixedState)
	marks := func(una uint32) base.Scoreboard {
		w := NewWindow(size)
		w.SlideTo(una)
		return w
	}
	return base.NewSelective(q, sacked, sacked.Size(), marks, decodeAck)
}

// decodeAck reads the cumulative point and SACK ranges from the 24-bit
// wire blob, expanded against una.
func decodeAck(p *packet.Packet, una uint32, _ []Range) (uint32, []Range, bool) {
	epsn, ranges, err := DecodeSack(p.SackBlob)
	if err != nil {
		// A malformed blob cannot happen on the simulated wire; drop it
		// rather than guessing.
		return 0, nil, false
	}
	for i, r := range ranges {
		ranges[i] = Range{Lo: Expand(una, r.Lo), Hi: Expand(una, r.Hi)}
	}
	return Expand(una, epsn), ranges, true
}

type receiver struct {
	ep     *base.Endpoint
	win    *Window
	placed uint32
	total  uint32
}

func newReceiver(ep *base.Endpoint, first *packet.Packet) base.Receiver {
	r := &receiver{ep: ep, win: NewWindow(ep.Env.SDR.WindowPkts), total: first.MsgLen}
	if rec := ep.Env.Collector.Flow(first.FlowID); rec != nil {
		rec.NoteRecvState(r.win.StateBytes() + recvFixedState)
	}
	return r
}

// Receive places new arrivals and answers every arrival with the
// cumulative point plus the current SACK ranges, encoded in the wire blob
// (the ACK grows by the blob size). Duplicates and (never under a
// compliant sender) beyond-window arrivals change no state; the ACK still
// refreshes the sender.
func (r *receiver) Receive(p *packet.Packet) {
	if r.win.Set(p.PSN) {
		r.placed++
		r.ep.Place(p, 0, r.placed)
		if r.placed == r.total {
			r.ep.MsgComplete(p, r.total)
		}
		if p.PSN == r.win.Base() {
			r.win.Advance()
		}
	}
	epsn := r.win.Base()
	ranges := r.win.Ranges(r.ep.Env.SDR.MaxRanges)
	a := r.ep.Ack(p, epsn)
	if len(ranges) > 0 {
		a.Ack = packet.AckSelective
	}
	a.SackBlob = EncodeSack(epsn, ranges)
	a.Size += len(a.SackBlob)
	r.ep.QueueCtrl(a)
}
