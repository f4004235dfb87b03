// Package packet defines the simulation packet: the unit handed between
// NICs, wires and switches. It carries the union of the header fields used
// by every modeled transport (DCP, GBN, IRN, MP-RDMA, RACK-TLP, TCP-like),
// mirroring the extended RDMA header of the paper's Fig. 4. The on-the-wire
// binary layout of the DCP headers lives in package wire; simulation code
// works with this struct directly, and draws every packet it sends from a
// FreeList.
package packet

import (
	"fmt"

	"dcpsim/internal/units"
)

// NodeID identifies a host or switch in the simulated network.
type NodeID int32

// Kind classifies a packet for switch and endpoint processing.
type Kind uint8

// Packet kinds.
const (
	KindData Kind = iota // payload-carrying data packet
	KindHO               // header-only packet produced by trimming (or echoed)
	KindAck              // transport acknowledgment (ACK/SACK/NAK)
	KindCNP              // DCQCN congestion notification packet
)

func (k Kind) String() string {
	switch k {
	case KindData:
		return "DATA"
	case KindHO:
		return "HO"
	case KindAck:
		return "ACK"
	case KindCNP:
		return "CNP"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Tag is the 2-bit DCP tag carried in the IP ToS field (§4.2).
type Tag uint8

// DCP tags.
const (
	TagNonDCP Tag = 0b00 // dropped when over threshold
	TagAck    Tag = 0b01 // DCP ACK: dropped when over threshold
	TagData   Tag = 0b10 // DCP data: trimmed when over threshold
	TagHO     Tag = 0b11 // header-only: enqueued to the control queue
)

func (t Tag) String() string {
	switch t {
	case TagNonDCP:
		return "non-dcp"
	case TagAck:
		return "dcp-ack"
	case TagData:
		return "dcp-data"
	case TagHO:
		return "dcp-ho"
	default:
		return fmt.Sprintf("tag(%02b)", uint8(t))
	}
}

// AckFlavor distinguishes acknowledgment semantics within KindAck.
type AckFlavor uint8

// Ack flavors.
const (
	AckCumulative AckFlavor = iota // plain cumulative ACK (ePSN / eMSN)
	AckSelective                   // IRN SACK: cumulative + out-of-order PSN
	AckNak                         // RoCE NAK sequence error (go-back-N)
	AckPull                        // NDP-style pull: a paced credit for one packet
)

// Header and MTU sizes in bytes. DataHeaderSize follows Fig. 4: Ethernet(14)
// + IP(20) + UDP(8) + BTH(12) + MSN(3) = 57 bytes, which is exactly the HO
// packet size; the RETH extension rides in the remaining header bytes of the
// paper's full data-packet header.
const (
	DataHeaderSize = 57
	RETHSize       = 16
	AckSize        = 60 // Eth+IP+UDP+BTH+AETH(+eMSN)
	HOSize         = DataHeaderSize
	CNPSize        = 57
	DefaultMTU     = 1000 // payload bytes per packet, as in the paper (1KB MTU)
)

// Packet is one simulated packet. Fields irrelevant to a given transport are
// left zero. Packets are never shared between flows; switches may mutate
// them (trimming, ECN marking).
//
// A packet lives for one trip. A sender draws it from its simulation's
// FreeList (the builders Data, Ack and CNP reset every field) and hands it
// to the NIC; from then on the fabric owns it. The transport endpoint that
// receives it releases it back to the list once the packet's final
// consumer has returned, except a trimmed header it bounces, which travels
// on to the sender and is released there. A consumer may therefore use a
// packet only during the call that hands it over, never keep it. Packets
// the fabric drops (switch loss and overflow, wire faults, blackouts) are
// never released; the garbage collector takes them.
type Packet struct {
	Kind Kind
	Tag  Tag

	Src, Dst NodeID
	SrcQP    uint32
	DstQP    uint32
	FlowID   uint64

	// Size is the total on-the-wire size in bytes (headers + payload).
	Size int
	// PayloadBytes counts application payload carried (0 for HO/ACK/CNP).
	PayloadBytes int

	// RDMA sequencing (Fig. 4 extensions).
	PSN      uint32 // packet sequence number within the QP
	MSN      uint32 // message sequence number (posting order in the SQ)
	SRetryNo uint8  // sender retry epoch for the MSN-th message (§4.5)
	EMSN     uint32 // expected MSN carried by DCP ACKs
	EPSN     uint32 // cumulative PSN carried by ACK/SACK/NAK
	// AckBytes is the receiver's cumulative received payload count,
	// carried by DCP ACKs so BDP flow control can clock without
	// per-packet acknowledgments (aggregated counting, §4.5).
	AckBytes int64

	// MsgLen is the number of packets of message MSN (carried so the
	// receiver can size its per-message counter; stands in for the RETH
	// length field).
	MsgLen uint32
	// MsgOffset is this packet's index within its message; with the
	// always-present RETH it lets the receiver place any packet directly.
	MsgOffset uint32

	Ack AckFlavor
	// SackPSN is the out-of-order PSN reported by an IRN SACK.
	SackPSN uint32
	// SackBlob is the SDR SACK extension: the receiver's cumulative PSN
	// plus selective-ACK ranges in the 24-bit wrap-safe wire encoding of
	// package transport/sdr. Its length is included in Size.
	SackBlob []byte

	// PathKey perturbs the ECMP hash; multipath transports (MP-RDMA) set
	// it per virtual path, mimicking distinct UDP source ports.
	PathKey uint32

	// ECN marking (CE codepoint) applied by congested switches.
	ECN bool
	// Retransmitted marks retransmissions, for accounting.
	Retransmitted bool
	// Trimmed marks a data packet converted to header-only in the fabric.
	Trimmed bool
	// Echoed marks an HO packet already bounced by the receiver and now
	// travelling back to the sender.
	Echoed bool

	// SentAt is stamped by the sending transport when the packet first
	// leaves the NIC (used for RTT measurements and RACK timestamps).
	SentAt units.Time

	// Hops counts switch traversals, for sanity checks and tracing.
	Hops uint8

	// released marks a packet sitting on a FreeList.
	released bool

	// BufIngress is fabric-internal: while the packet sits in a switch
	// buffer it records the ingress port the packet arrived on, for PFC
	// per-ingress accounting.
	BufIngress int32
}

// IsControl reports whether the packet belongs to the fabric's control
// plane: HO packets travel in the control queue.
func (p *Packet) IsControl() bool { return p.Kind == KindHO }

// Trim converts a DCP data packet into a header-only packet in place,
// exactly as the DCP-Switch packet trimming module does: payload removed,
// DCP tag rewritten to 11, size reduced to the 57-byte remaining header.
func (p *Packet) Trim() {
	p.Kind = KindHO
	p.Tag = TagHO
	p.Size = HOSize
	p.PayloadBytes = 0
	p.Trimmed = true
}

// Bounce turns a received HO packet around: source and destination (and QP
// numbers) are swapped so the packet travels back to the sender (§4.1 step 2).
func (p *Packet) Bounce() {
	p.Src, p.Dst = p.Dst, p.Src
	p.SrcQP, p.DstQP = p.DstQP, p.SrcQP
	p.Echoed = true
	p.Hops = 0
}

func (p *Packet) String() string {
	return fmt.Sprintf("%s flow=%d %d->%d psn=%d msn=%d size=%d", p.Kind, p.FlowID, p.Src, p.Dst, p.PSN, p.MSN, p.Size)
}

// Released reports whether p has been released to a FreeList and not
// drawn again.
func (p *Packet) Released() bool { return p.released }

// FreeList recycles the packets of one simulation. Its zero value is an
// empty list ready to use. The builders reuse the most recently released
// packet and allocate only when the list is empty, so a steady-state
// simulation builds its packets without allocating. A FreeList belongs to
// one simulation and, like the engine, to one goroutine.
type FreeList struct {
	free []*Packet
}

// take returns a packet for a builder to overwrite in full.
func (l *FreeList) take() *Packet {
	n := len(l.free)
	if n == 0 {
		return new(Packet)
	}
	p := l.free[n-1]
	l.free = l.free[:n-1]
	return p
}

// Release gives p back to the list. Only the packet's final consumer may
// release it, once nothing refers to it any more. Releasing a packet that
// is already on a list panics.
func (l *FreeList) Release(p *Packet) {
	if p.released {
		panic(fmt.Sprintf("packet: %v released twice", p))
	}
	p.released = true
	l.free = append(l.free, p)
}

// Data draws a payload-carrying packet with the DCP-style header size:
// 57-byte base header plus RETH (always present for order-tolerant
// one-sided reception) plus payload.
func (l *FreeList) Data(flow uint64, src, dst NodeID, psn, msn uint32, payload int) *Packet {
	p := l.take()
	*p = Packet{
		Kind:         KindData,
		Tag:          TagData,
		FlowID:       flow,
		Src:          src,
		Dst:          dst,
		PSN:          psn,
		MSN:          msn,
		Size:         DataHeaderSize + RETHSize + payload,
		PayloadBytes: payload,
	}
	return p
}

// Ack draws a cumulative acknowledgment.
func (l *FreeList) Ack(flow uint64, src, dst NodeID, epsn uint32) *Packet {
	p := l.take()
	*p = Packet{
		Kind:   KindAck,
		Tag:    TagAck,
		FlowID: flow,
		Src:    src,
		Dst:    dst,
		EPSN:   epsn,
		Size:   AckSize,
		Ack:    AckCumulative,
	}
	return p
}

// CNP draws a DCQCN congestion notification.
func (l *FreeList) CNP(flow uint64, src, dst NodeID) *Packet {
	p := l.take()
	*p = Packet{
		Kind:   KindCNP,
		Tag:    TagAck,
		FlowID: flow,
		Src:    src,
		Dst:    dst,
		Size:   CNPSize,
	}
	return p
}
