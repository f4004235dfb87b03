// Package sdr implements an SDR-RDMA-style receiver-driven SACK-bitmap
// reliable transport (Software-Defined Reliability for planetary-scale
// RDMA): the receiver tracks arrivals in a sliding window bitmap and
// answers every data packet with a cumulative ACK plus selective-ACK
// ranges; the sender retransmits straight from the reported holes. Unlike
// IRN's full-message bitmaps, both endpoints bound their tracking state to
// a fixed window — cheap per-flow memory, but the window also caps the
// rate at WindowPkts×MTU per RTT, which is exactly the trade-off the WAN
// crossover experiment measures against DCP's counter-based design.
//
// This file holds the tracking window and the SACK wire codec. The wire
// PSN space is 24 bits (the BTH PSN width); the simulator addresses
// packets with uint32 flow offsets, so the codec masks values onto the
// wire space and Expand lifts them back against the sender's state —
// wrap-safe across the 2^24 boundary via the shared RFC 1982 helpers.
package sdr

import (
	"fmt"
	"math/bits"

	"dcpsim/internal/transport/base"
)

// The 24-bit wire PSN space.
const (
	psnSpace = 1 << 24
	psnMask  = psnSpace - 1
)

// seq24Less reports a < b in the 24-bit wire space, built on the shared
// RFC 1982 helpers by shifting into the top bits of the uint32 space.
func seq24Less(a, b uint32) bool { return base.SeqLess(a<<8, b<<8) }

// seq24Diff returns the forward distance from b to a in the 24-bit space.
func seq24Diff(a, b uint32) uint32 { return base.SeqDiff(a<<8, b<<8) >> 8 }

// Expand lifts a wire-space PSN into the full uint32 sequence space: the
// unique value congruent to v (mod 2^24) within [ref, ref+2^24). Senders
// call it with their cumulative-ack point as ref, so any wire value a live
// peer can legally report expands to the right flow offset even when the
// flow has crossed the 2^24 wrap.
func Expand(ref, v uint32) uint32 { return ref + seq24Diff(v, ref) }

// Range is one SACK block: the receiver holds every PSN in [Lo, Hi).
// On the wire the bounds are 24-bit values; inside the endpoints they are
// full-space PSNs.
type Range = base.Range

// Window is a sliding PSN-indexed bitmap of fixed capacity. Bit addressing
// is psn & (size-1): any window of `size` consecutive PSNs maps bijectively
// onto the ring, so sliding the base never moves bits.
type Window struct {
	words []uint64
	size  uint32 // capacity in bits, always a power of two
	mask  uint32
	base  uint32 // lowest tracked PSN (the cumulative point)
	high  uint32 // one past the highest set PSN, never below base
	count int    // set bits in [base, high)
}

// NewWindow returns an empty window of at least `size` bits (rounded up to
// a power of two, floored at 64).
func NewWindow(size int) *Window {
	n := uint32(64)
	for int(n) < size {
		n <<= 1
	}
	return &Window{words: make([]uint64, n/64), size: n, mask: n - 1}
}

// Base returns the lowest tracked PSN (everything below is acknowledged).
func (w *Window) Base() uint32 { return w.base }

// Size returns the window capacity in bits.
func (w *Window) Size() uint32 { return w.size }

// Count returns the number of set bits above the base.
func (w *Window) Count() int { return w.count }

// StateBytes returns the bitmap's memory footprint, the per-flow state
// cost the stats layer accounts.
func (w *Window) StateBytes() int64 { return int64(len(w.words)) * 8 }

// Contains reports whether psn is inside the tracked window.
func (w *Window) Contains(psn uint32) bool {
	return base.SeqGEQ(psn, w.base) && base.SeqLess(psn, w.base+w.size)
}

// Get reports whether psn's bit is set (false outside the window).
func (w *Window) Get(psn uint32) bool {
	if !w.Contains(psn) {
		return false
	}
	i := psn & w.mask
	return w.words[i/64]&(1<<(i%64)) != 0
}

// Set marks psn received. It returns false when psn is outside the window
// or already set.
func (w *Window) Set(psn uint32) bool {
	if !w.Contains(psn) {
		return false
	}
	i := psn & w.mask
	m := uint64(1) << (i % 64)
	if w.words[i/64]&m != 0 {
		return false
	}
	w.words[i/64] |= m
	w.count++
	if base.SeqGEQ(psn, w.high) {
		w.high = psn + 1
	}
	return true
}

func (w *Window) clear(psn uint32) {
	i := psn & w.mask
	m := uint64(1) << (i % 64)
	if w.words[i/64]&m != 0 {
		w.words[i/64] &^= m
		w.count--
	}
}

// next returns the first PSN in [from, high) whose bit equals set, or high
// when there is none, scanning word-wise.
func (w *Window) next(from uint32, set bool) uint32 {
	for psn := from; base.SeqLess(psn, w.high); {
		i := psn & w.mask
		word := w.words[i/64]
		if !set {
			word = ^word
		}
		if word >>= i % 64; word != 0 {
			if cand := psn + uint32(bits.TrailingZeros64(word)); base.SeqLess(cand, w.high) {
				return cand
			}
			return w.high
		}
		psn += 64 - i%64
	}
	return w.high
}

// Advance slides the base over the contiguous run of set bits at the
// front, clearing them, and returns the new base — the receiver's
// cumulative-ack point after in-order delivery.
func (w *Window) Advance() uint32 {
	to := w.next(w.base, false)
	for psn := w.base; base.SeqLess(psn, to); psn++ {
		w.clear(psn)
	}
	w.base = to
	if base.SeqLess(w.high, w.base) {
		w.high = w.base
	}
	return w.base
}

// SlideTo moves the base forward to newBase, clearing every bit below it —
// the sender's scoreboard following a cumulative ACK. A newBase at or
// behind the current base is a no-op.
func (w *Window) SlideTo(newBase uint32) {
	if !base.SeqLess(w.base, newBase) {
		return
	}
	for psn := w.next(w.base, true); base.SeqLess(psn, newBase) && base.SeqLess(psn, w.high); psn = w.next(psn+1, true) {
		w.clear(psn)
	}
	w.base = newBase
	if base.SeqLess(w.high, w.base) {
		w.high = w.base
	}
}

// Ranges extracts up to max contiguous set runs above the base — the
// selective-ACK blocks. Runs beyond max are dropped (later ACKs re-report
// them as the cumulative point advances), mirroring a bounded SACK option.
func (w *Window) Ranges(max int) []Range {
	if max <= 0 || w.count == 0 {
		return nil
	}
	var out []Range
	psn := w.base
	for len(out) < max {
		lo := w.next(psn, true)
		if !base.SeqLess(lo, w.high) {
			break
		}
		hi := w.next(lo, false)
		out = append(out, Range{Lo: lo, Hi: hi})
		psn = hi + 1
	}
	return out
}

// Wire sizes of the SACK extension: a 3-byte cumulative PSN, a 1-byte
// range count, then two 24-bit PSNs per range.
const (
	sackFixedBytes = 4
	sackRangeBytes = 6
	maxWireRanges  = 255
)

func put24(buf []byte, v uint32) []byte {
	return append(buf, byte(v>>16), byte(v>>8), byte(v))
}

func get24(buf []byte) uint32 {
	return uint32(buf[0])<<16 | uint32(buf[1])<<8 | uint32(buf[2])
}

// EncodeSack renders the cumulative PSN and SACK ranges into the wire
// blob. Values are masked onto the 24-bit space; ranges must be sorted,
// disjoint, non-empty, strictly above epsn, and within half the wire space
// of it (guaranteed by any Window smaller than 2^23 bits). At most
// maxWireRanges ranges are encoded.
func EncodeSack(epsn uint32, ranges []Range) []byte {
	if len(ranges) > maxWireRanges {
		ranges = ranges[:maxWireRanges]
	}
	buf := make([]byte, 0, sackFixedBytes+len(ranges)*sackRangeBytes)
	buf = put24(buf, epsn&psnMask)
	buf = append(buf, byte(len(ranges)))
	for _, r := range ranges {
		buf = put24(buf, r.Lo&psnMask)
		buf = put24(buf, r.Hi&psnMask)
	}
	return buf
}

// DecodeSack parses a SACK blob, validating shape and order. Returned PSNs
// are wire-space (24-bit); lift them with Expand against the sender's
// cumulative point.
func DecodeSack(buf []byte) (epsn uint32, ranges []Range, err error) {
	if len(buf) < sackFixedBytes {
		return 0, nil, fmt.Errorf("sdr: sack blob too short (%d bytes)", len(buf))
	}
	epsn = get24(buf)
	n := int(buf[3])
	if len(buf) != sackFixedBytes+n*sackRangeBytes {
		return 0, nil, fmt.Errorf("sdr: sack blob length %d does not fit %d ranges", len(buf), n)
	}
	prev := epsn
	for i := 0; i < n; i++ {
		off := sackFixedBytes + i*sackRangeBytes
		lo := get24(buf[off:])
		hi := get24(buf[off+3:])
		if !seq24Less(prev, lo) || !seq24Less(lo, hi) {
			return 0, nil, fmt.Errorf("sdr: sack ranges must be sorted, disjoint and above the cumulative PSN")
		}
		prev = hi
		ranges = append(ranges, Range{Lo: lo, Hi: hi})
	}
	return epsn, ranges, nil
}
