// Package ndp implements a simplified NDP endpoint (Handley et al.,
// SIGCOMM'17) over the same trimming fabric DCP uses — the paper's closest
// software relative (Table 2, §7). The sender blasts one initial window
// blind; afterwards every transmission is granted by a receiver-paced PULL
// credit. Trimmed headers arriving at the receiver become immediate NACKs
// plus high-priority pulls, so losses repair in about one RTT without
// sender timers.
//
// DCP's §7 contrast: NDP is receiver-driven *congestion control* built on
// trimming, whereas DCP keeps sender-driven CC and uses trimming purely as
// a reliability signal, which is what makes it implementable in an RNIC.
// This package exists to make that comparison executable.
package ndp

import (
	"dcpsim/internal/nic"
	"dcpsim/internal/packet"
	"dcpsim/internal/sim"
	"dcpsim/internal/transport/base"
	"dcpsim/internal/units"
)

// New builds an NDP endpoint: DCP-tagged so the fabric trims its data, and
// every trimmed header that reaches the receiver is its loss signal.
func New(n *nic.NIC, env *base.Env) base.Transport {
	pl := &puller{}
	ep := base.NewEndpoint(n, env, base.Scheme{
		Name: "ndp", OwnWindow: true, DCPTags: true, HO: base.HOReceive,
		NewSender: newSender,
		NewReceiver: func(ep *base.Endpoint, first *packet.Packet) base.Receiver {
			return &receiver{pl: pl, sender: first.Src, flowID: first.FlowID, Reorder: base.NewReorder(ep, first)}
		},
	})
	pl.ep = ep
	pl.pacer = sim.NewTimer(n.Engine(), pl.tick)
	// The pull pacer is the protocol's clock, not a retransmission timeout.
	pl.pacer.Comp = sim.CompTransport
	return ep
}

// ---------- sender ----------

type sender struct {
	*base.SendQP

	nextPSN uint32 // next never-sent packet
	window  uint32 // initial blind window (packets)
	sent    uint32 // packets sent blind so far
	pulls   int    // unspent pull credits

	retx     []uint32 // NACKed packets awaiting a pull
	retxHead int

	acked   *base.Bitmap
	rtoSafe *sim.Timer // last-resort safety timer (pull loss)
}

func newSender(q *base.SendQP) base.Sender {
	env := q.Env()
	s := &sender{SendQP: q, acked: base.NewBitmap(q.Pkts)}
	s.window = uint32(units.BDP(q.Endpoint().NIC.Rate(), env.BaseRTT) / env.MTU)
	if s.window < 2 {
		s.window = 2
	}
	s.rtoSafe = q.NewTimer(s.onSafety)
	s.rtoSafe.Reset(env.RTOHigh)
	return s
}

// Next implements base.QP: blind initial window first, then strictly
// pull-clocked (retransmissions before new data).
func (s *sender) Next(now units.Time) (*packet.Packet, units.Time) {
	// Initial window: fire-and-forget up to one BDP.
	if s.sent < s.window && base.SeqLess(s.nextPSN, s.Pkts) {
		return s.sendNew(now), 0
	}
	if s.pulls == 0 {
		return nil, 0
	}
	for s.retxHead < len(s.retx) {
		psn := s.retx[s.retxHead]
		s.retxHead++
		if s.acked.Get(psn) {
			continue
		}
		s.pulls--
		return s.Data(now, psn, s.PayloadAt(psn), true), 0
	}
	if s.retxHead > 0 && s.retxHead == len(s.retx) {
		s.retx = s.retx[:0]
		s.retxHead = 0
	}
	if base.SeqLess(s.nextPSN, s.Pkts) {
		s.pulls--
		return s.sendNew(now), 0
	}
	return nil, 0
}

func (s *sender) sendNew(now units.Time) *packet.Packet {
	psn := s.nextPSN
	s.nextPSN++
	s.sent++
	return s.Data(now, psn, s.PayloadAt(psn), false)
}

// OnAck implements base.Sender for NDP's ACK, NACK and PULL packets.
func (s *sender) OnAck(p *packet.Packet) {
	switch p.Ack {
	case packet.AckPull:
		s.pulls++
	case packet.AckNak:
		// A trimmed header was seen: queue the named packet for the next
		// pull.
		if base.SeqLess(p.SackPSN, s.Pkts) {
			s.retx = append(s.retx, p.SackPSN)
		}
	default:
		if base.SeqLess(p.SackPSN, s.Pkts) {
			s.acked.Set(p.SackPSN)
		}
	}
	s.rtoSafe.Reset(s.Env().RTOHigh)
	if uint32(s.acked.Count()) >= s.Pkts {
		s.Complete(s.Now())
		return
	}
	s.Kick()
}

// onSafety covers total control-plane loss (pulls and NACKs all gone):
// resend the lowest unacked packet to restart the pull clock.
func (s *sender) onSafety() {
	s.Rec.Timeouts++
	for psn := uint32(0); base.SeqLess(psn, s.nextPSN); psn++ {
		if !s.acked.Get(psn) {
			s.retx = append(s.retx, psn)
			s.pulls++ // self-granted credit: the pull clock was lost
			break
		}
	}
	s.rtoSafe.Reset(s.Env().RTOHigh)
	s.Kick()
}

// ---------- receiver ----------

type receiver struct {
	pl     *puller
	sender packet.NodeID
	flowID uint64
	*base.Reorder

	pullDue int // pulls owed (one per data/header arrival)
	queued  bool
}

// Receive NACKs a trimmed header right away, so the retransmission is
// queued, and owes a pull for the lost payload; new data is ACKed, and
// owes a pull until the flow is complete.
func (r *receiver) Receive(p *packet.Packet) {
	ep := r.pl.ep
	if p.Kind == packet.KindHO {
		nack := ep.Ack(p, 0)
		nack.Ack = packet.AckNak
		nack.SackPSN = p.PSN
		ep.QueueCtrl(nack)
		r.pullDue++
	} else {
		if r.Accept(p) {
			ack := ep.Ack(p, 0)
			ack.Ack = packet.AckSelective
			ack.SackPSN = p.PSN
			ep.QueueCtrl(ack)
		}
		if !r.Done() {
			r.pullDue++
		}
	}
	r.pl.enqueue(r)
}

// puller is the pull pacer shared by every receiving flow on one NIC: NDP
// grants exactly one packet's worth of credit per MTU-time at the
// receiver's line rate, round-robin across flows that are owed pulls.
type puller struct {
	ep       *base.Endpoint
	rr       base.Queue[*receiver]
	pacer    *sim.Timer
	on       bool
	lastPull units.Time
}

// enqueue registers that r is owed pulls and arms the pacer.
func (pl *puller) enqueue(r *receiver) {
	if r.pullDue > 0 && !r.queued {
		r.queued = true
		pl.rr.Push(r)
	}
	pl.start()
}

// start arms the NIC-wide pull clock: one pull per MTU-time at the
// receiver's line rate, the NDP pacing rule that keeps the access link
// exactly full regardless of how many flows converge on it.
func (pl *puller) start() {
	if pl.on || pl.rr.Len() == 0 {
		return
	}
	pl.on = true
	ep := pl.ep
	interval := units.TxTime(ep.Env.MTU+packet.DataHeaderSize, ep.NIC.Rate())
	next := pl.lastPull + interval
	now := ep.Eng.Now()
	if next < now {
		next = now
	}
	pl.pacer.Reset(next - now)
}

func (pl *puller) tick() {
	pl.on = false
	for r, ok := pl.rr.Pop(); ok; r, ok = pl.rr.Pop() {
		if r.pullDue == 0 || r.Done() {
			r.queued = false
			continue
		}
		r.pullDue--
		if r.pullDue > 0 {
			pl.rr.Push(r) // stay in the rotation
		} else {
			r.queued = false
		}
		pl.lastPull = pl.ep.Eng.Now()
		pull := pl.ep.Env.Packets.Ack(r.flowID, pl.ep.NIC.ID(), r.sender, 0)
		pull.Ack = packet.AckPull
		pl.ep.QueueCtrl(pull)
		break
	}
	pl.start()
}
