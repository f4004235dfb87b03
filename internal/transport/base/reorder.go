package base

import "dcpsim/internal/packet"

// Bitmap is a fixed-size PSN bitmap with a population count, the per-flow
// tracking structure whose memory and processing cost §4.5 weighs against
// DCP's per-message counters.
type Bitmap struct {
	words []uint64
	count int
}

// NewBitmap returns an empty bitmap over PSNs [0, n).
func NewBitmap(n uint32) *Bitmap { return &Bitmap{words: make([]uint64, (n+63)/64)} }

// Set marks i, reporting false when it was already set.
func (b *Bitmap) Set(i uint32) bool {
	w, m := i/64, uint64(1)<<(i%64)
	if b.words[w]&m != 0 {
		return false
	}
	b.words[w] |= m
	b.count++
	return true
}

// Get reports whether i is set.
func (b *Bitmap) Get(i uint32) bool { return b.words[i/64]&(uint64(1)<<(i%64)) != 0 }

// Count returns the number of set bits.
func (b *Bitmap) Count() int { return b.count }

// SlideTo implements Scoreboard. A whole-flow bitmap never forgets marks.
func (b *Bitmap) SlideTo(uint32) {}

// StateBytes returns the bitmap's memory footprint.
func (b *Bitmap) StateBytes() int64 { return int64(len(b.words)) * 8 }

// Reorder is the order-tolerant receive discipline: a bitmap of arrivals
// over the whole flow and the cumulative point EPSN below which every PSN
// has arrived. The flow's packet count comes from the first packet's
// MsgLen.
type Reorder struct {
	ep    *Endpoint
	got   *Bitmap
	total uint32
	// EPSN is the first PSN not yet received.
	EPSN uint32
}

// NewReorder returns the receive state of first's flow.
func NewReorder(ep *Endpoint, first *packet.Packet) *Reorder {
	return &Reorder{ep: ep, got: NewBitmap(first.MsgLen), total: first.MsgLen}
}

// Accept places p unless its PSN already arrived, advancing EPSN over the
// in-order prefix. It reports whether p was new.
func (r *Reorder) Accept(p *packet.Packet) bool {
	if !r.got.Set(p.PSN) {
		return false
	}
	for SeqLess(r.EPSN, r.total) && r.got.Get(r.EPSN) {
		r.EPSN++
	}
	n := uint32(r.got.Count())
	r.ep.Place(p, 0, n)
	if n == r.total {
		r.ep.MsgComplete(p, r.total)
	}
	return true
}

// Done reports whether every packet of the flow has arrived.
func (r *Reorder) Done() bool { return uint32(r.got.Count()) >= r.total }

// StateBytes returns the receive bitmap's memory footprint.
func (r *Reorder) StateBytes() int64 { return r.got.StateBytes() }

// CumulativeReceiver returns the plain order-tolerant receiver: every
// arrival, new or duplicate, is answered with a cumulative ACK. With sack
// set the ACK also names the arriving PSN (RACK-TLP's SACK).
func CumulativeReceiver(sack bool) func(*Endpoint, *packet.Packet) Receiver {
	return func(ep *Endpoint, first *packet.Packet) Receiver {
		return &cumulative{Reorder: NewReorder(ep, first), sack: sack}
	}
}

type cumulative struct {
	*Reorder
	sack bool
}

func (r *cumulative) Receive(p *packet.Packet) {
	r.Accept(p)
	a := r.ep.Ack(p, r.EPSN)
	if r.sack {
		a.Ack = packet.AckSelective
		a.SackPSN = p.PSN
	}
	r.ep.QueueCtrl(a)
}
