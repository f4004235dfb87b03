// Package base provides the plumbing shared by every modeled transport:
// the per-host endpoint skeleton (control-packet priority queue,
// round-robin QP scheduling with pacing wake-ups), message segmentation,
// and the environment handed to transport factories.
package base

import (
	"dcpsim/internal/cc"
	"dcpsim/internal/nic"
	"dcpsim/internal/obs"
	"dcpsim/internal/packet"
	"dcpsim/internal/stats"
	"dcpsim/internal/units"
	"dcpsim/internal/workload"
)

// Transport is what experiment harnesses program against: the NIC pull/push
// interface plus flow admission.
type Transport interface {
	nic.Transport
	// StartFlow begins sending flow from this host (the flow's Src must
	// be this host).
	StartFlow(f *workload.Flow)
	// Name identifies the scheme ("dcp", "irn", ...).
	Name() string
}

// Factory builds a transport endpoint for one NIC.
type Factory func(n *nic.NIC, env *Env) Transport

// Env is the per-experiment environment shared by all endpoints.
type Env struct {
	Collector *stats.Collector
	CC        cc.Factory
	MTU       int
	// BaseRTT is the unloaded round-trip time of the longest path,
	// used to size windows and timeouts.
	BaseRTT units.Time
	// RTOLow/RTOHigh configure retransmission timers (scheme-specific
	// interpretation); zero values let transports pick defaults from
	// BaseRTT.
	RTOLow, RTOHigh units.Time
	// MessageSize caps one RDMA message; larger flows are split into
	// multiple messages (MSNs). Zero means 4 MB (§4.5: NCCL posts
	// messages of several MB, 8 outstanding per QP).
	MessageSize int
	// CNPInterval is the DCQCN notification-point minimum CNP gap.
	CNPInterval units.Time
	// Trace receives endpoint packet-lifecycle events when observability is
	// attached. nil means tracing is off: hooks must nil-check and the
	// disabled path stays allocation-free.
	Trace *obs.Tracer
	// Metrics is the time-series registry when observability is attached
	// (nil = off). Transports register per-flow gauges (in-flight bytes,
	// RetransQ depth, CC rate) against it at flow start.
	Metrics *obs.Metrics
	// Packets is the simulation's packet free list: every endpoint draws
	// the packets it sends from it, and Endpoint.dispatch releases each
	// arrival back once its consumer has returned. It starts empty.
	Packets packet.FreeList
	// Scheme-specific knobs.
	DCP DCPOptions
	MP  MPOptions
	SDR SDROptions
}

// DCPOptions tunes the DCP transport.
type DCPOptions struct {
	// PCIe overrides the PCIe model (zero RTT = default 1 µs).
	PCIe nic.PCIe
	// PerHOFetch disables batched RetransQ fetches: every HO packet costs
	// two PCIe round trips, the paper's inefficient strawman (challenge
	// #1). For ablation.
	PerHOFetch bool
	// ReceiverBitmap replaces bitmap-free counting with a conventional
	// receiver bitmap (orthogonality ablation, §4.5).
	ReceiverBitmap bool
	// UncontrolledRetrans bypasses CC for retransmissions (ablation of
	// challenge #2: retransmission rate tied to HO arrival rate).
	UncontrolledRetrans bool
	// Timeout is the coarse-grained fallback timeout (default 10 ms,
	// doubling on consecutive expiries of the same message).
	Timeout units.Time
	// MaxOutstandingMsgs bounds tracked messages per QP (default 8, the
	// NCCL setting in §4.5).
	MaxOutstandingMsgs int
}

// MPOptions tunes MP-RDMA.
type MPOptions struct {
	// Paths is the number of virtual paths (default 4).
	Paths int
	// OOOWindow L: packets beyond ePSN+L are dropped by the receiver
	// (default 64).
	OOOWindow int
}

// SDROptions tunes the SDR SACK-bitmap transport.
type SDROptions struct {
	// WindowPkts bounds the sliding tracking window in packets: both the
	// receiver's reassembly bitmap and the sender's SACK scoreboard hold
	// WindowPkts bits, so per-flow state is fixed regardless of message
	// size — but so is the achievable rate, WindowPkts×MTU per RTT
	// (default 1024; rounded up to a power of two).
	WindowPkts int
	// MaxRanges caps the selective-ACK ranges carried per ACK (default 8).
	MaxRanges int
}

// Defaults fills zero fields.
func (e *Env) Defaults() {
	if e.MTU == 0 {
		e.MTU = packet.DefaultMTU
	}
	if e.MessageSize == 0 {
		e.MessageSize = 4 * units.MB
	}
	if e.BaseRTT == 0 {
		e.BaseRTT = 10 * units.Microsecond
	}
	if e.RTOLow == 0 {
		e.RTOLow = 20*e.BaseRTT + 100*units.Microsecond
	}
	if e.RTOHigh == 0 {
		e.RTOHigh = 4 * e.RTOLow
	}
	if e.CNPInterval == 0 {
		e.CNPInterval = 50 * units.Microsecond
	}
	if e.CC == nil {
		e.CC = cc.NewBDPFactory(1)
	}
	if e.DCP.PCIe.RTT == 0 {
		e.DCP.PCIe = nic.DefaultPCIe()
	}
	if e.DCP.Timeout == 0 {
		e.DCP.Timeout = 10 * units.Millisecond
	}
	if e.DCP.MaxOutstandingMsgs == 0 {
		e.DCP.MaxOutstandingMsgs = 8
	}
	if e.MP.Paths == 0 {
		e.MP.Paths = 4
	}
	if e.MP.OOOWindow == 0 {
		e.MP.OOOWindow = 64
	}
	if e.SDR.WindowPkts == 0 {
		e.SDR.WindowPkts = 1024
	}
	if e.SDR.MaxRanges == 0 {
		e.SDR.MaxRanges = 8
	}
}

// QP is one sender-side queue pair as seen by the host scheduler.
type QP interface {
	// Next returns the next packet to transmit, or nil. When nil, the
	// second result optionally hints the absolute time the QP becomes
	// eligible (0 = only after an external event).
	Next(now units.Time) (*packet.Packet, units.Time)
	// Finished reports the QP can be removed from scheduling.
	Finished() bool
}

// QueueCtrl enqueues a control-plane packet (ACK, CNP, bounced HO) for
// strict-priority transmission and kicks the NIC.
func (h *Endpoint) QueueCtrl(p *packet.Packet) {
	h.ctrl.Push(p)
	h.NIC.Kick()
}

// PopCtrl removes the next control packet, or nil.
func (h *Endpoint) PopCtrl() *packet.Packet {
	p, _ := h.ctrl.Pop()
	return p
}

// AddQP registers a sender QP and kicks the NIC.
func (h *Endpoint) AddQP(q QP) {
	h.qps = append(h.qps, q)
	h.NIC.Kick()
}

// Dequeue implements the shared pull path: control packets first (they are
// never PFC-paused: ACK/CNP ride a separate priority), then round-robin
// over eligible QPs. If nothing is eligible but a QP reported a pacing
// deadline, a NIC kick is scheduled.
func (h *Endpoint) Dequeue(now units.Time, dataPaused bool) *packet.Packet {
	if p := h.PopCtrl(); p != nil {
		return p
	}
	if dataPaused {
		return nil
	}
	n := len(h.qps)
	var wake units.Time
	for i := 0; i < n; i++ {
		idx := (h.rr + i) % n
		qp := h.qps[idx]
		if qp == nil || qp.Finished() {
			continue
		}
		p, at := qp.Next(now)
		if p != nil {
			h.rr = (idx + 1) % n
			return p
		}
		if at > 0 && (wake == 0 || at < wake) {
			wake = at
		}
	}
	if wake > 0 {
		h.NIC.KickAt(wake)
	}
	h.compact()
	return nil
}

// compact drops finished QPs when they dominate the slice.
func (h *Endpoint) compact() {
	fin := 0
	for _, q := range h.qps {
		if q == nil || q.Finished() {
			fin++
		}
	}
	if fin < 32 || fin*2 < len(h.qps) {
		return
	}
	kept := h.qps[:0]
	for _, q := range h.qps {
		if q != nil && !q.Finished() {
			kept = append(kept, q)
		}
	}
	h.qps = kept
	h.rr = 0
}

// NumPackets returns how many MTU-sized packets carry size bytes.
func NumPackets(size int64, mtu int) uint32 {
	if size <= 0 {
		return 0
	}
	return uint32((size + int64(mtu) - 1) / int64(mtu))
}

// PayloadAt returns the payload length of packet index i (0-based) of a
// size-byte message at the given MTU.
func PayloadAt(size int64, mtu int, i uint32) int {
	n := NumPackets(size, mtu)
	if i >= n {
		return 0
	}
	if i == n-1 {
		last := int(size - int64(n-1)*int64(mtu))
		return last
	}
	return mtu
}

// Messages splits a flow of size bytes into message sizes of at most
// msgSize each (the MSN sequence).
func Messages(size int64, msgSize int) []int64 {
	if size <= 0 {
		return nil
	}
	var out []int64
	for size > 0 {
		m := int64(msgSize)
		if size < m {
			m = size
		}
		out = append(out, m)
		size -= m
	}
	return out
}
