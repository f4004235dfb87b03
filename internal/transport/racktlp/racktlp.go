// Package racktlp implements the RACK-TLP loss detection baseline (RFC
// 8985), compared in Fig. 17: per-packet send timestamps, a reordering
// window of min-RTT/4 before declaring loss, a tail loss probe after two
// SRTTs of ACK silence, and an RTO fallback. It tolerates reordering but
// delays every retransmission by about one RTT and needs per-packet
// timestamp state — the trade-off §6.3 discusses.
package racktlp

import (
	"dcpsim/internal/nic"
	"dcpsim/internal/packet"
	"dcpsim/internal/sim"
	"dcpsim/internal/transport/base"
	"dcpsim/internal/units"
)

// New builds a RACK-TLP endpoint over the order-tolerant receiver, whose
// every ACK also SACKs the arriving PSN.
func New(n *nic.NIC, env *base.Env) base.Transport {
	return base.NewEndpoint(n, env, base.Scheme{
		Name:        "racktlp",
		NewSender:   newSender,
		NewReceiver: base.CumulativeReceiver(true),
	})
}

// pktState is the per-packet state RACK requires — the memory overhead the
// paper contrasts with DCP's constant per-message counters.
type pktState struct {
	sentAt units.Time
	sacked bool
	queued bool // queued for retransmission
}

type sender struct {
	*base.SendQP

	una     uint32
	nextPSN uint32
	pkts    []pktState

	srtt   units.Time
	minRTT units.Time

	// rackTime is the send time of the most recently delivered packet;
	// packets sent reoWnd earlier and still unSACKed are lost.
	rackTime units.Time

	retxQ    []uint32
	retxHead int
	inflight int

	rackTimer *sim.Timer // reorder-window expiry check
	probe     *sim.Timer // TLP
	rto       *sim.Timer
}

func newSender(q *base.SendQP) base.Sender {
	env := q.Env()
	s := &sender{SendQP: q}
	s.pkts = make([]pktState, q.Pkts)
	s.srtt = env.BaseRTT
	s.minRTT = env.BaseRTT
	s.rackTimer = q.NewTimer(s.rackCheck)
	s.probe = q.NewTimer(s.onProbe)
	s.rto = q.NewTimer(s.onRTO)
	s.probe.Reset(2 * s.srtt)
	s.rto.Reset(env.RTOHigh)
	return s
}

func (s *sender) reoWnd() units.Time { return s.minRTT / 4 }

// Next implements base.QP: queued (RACK-marked lost) retransmissions
// first, then new data.
func (s *sender) Next(now units.Time) (*packet.Packet, units.Time) {
	for s.retxHead < len(s.retxQ) {
		psn := s.retxQ[s.retxHead]
		st := &s.pkts[psn]
		if st.sacked || base.SeqLess(psn, s.una) {
			s.retxHead++
			continue
		}
		size := s.PayloadAt(psn)
		ok, at := s.CC.CanSend(now, s.inflight, size)
		if !ok {
			return nil, at
		}
		s.retxHead++
		st.queued = false
		st.sentAt = now
		return s.send(now, psn, size, true), 0
	}
	if s.retxHead > 0 && s.retxHead == len(s.retxQ) {
		s.retxQ = s.retxQ[:0]
		s.retxHead = 0
	}
	if base.SeqLess(s.nextPSN, s.Pkts) {
		size := s.PayloadAt(s.nextPSN)
		ok, at := s.CC.CanSend(now, s.inflight, size)
		if !ok {
			return nil, at
		}
		psn := s.nextPSN
		s.nextPSN++
		s.pkts[psn].sentAt = now
		return s.send(now, psn, size, false), 0
	}
	return nil, 0
}

func (s *sender) send(now units.Time, psn uint32, size int, retrans bool) *packet.Packet {
	p := s.Data(now, psn, size, retrans)
	s.inflight += size
	s.CC.OnSent(now, size)
	return p
}

// OnAck implements base.Sender.
func (s *sender) OnAck(p *packet.Packet) {
	now := s.Now()
	if p.SentAt > 0 {
		rtt := now - p.SentAt
		if rtt < s.minRTT {
			s.minRTT = rtt
		}
		s.srtt = (7*s.srtt + rtt) / 8
	}
	if base.SeqLess(s.una, p.EPSN) {
		for psn := s.una; base.SeqLess(psn, p.EPSN); psn++ {
			s.delivered(now, psn)
		}
		s.una = p.EPSN
		s.rto.Reset(s.Env().RTOHigh)
		if base.SeqGEQ(s.una, s.Pkts) {
			s.Complete(now)
			return
		}
	}
	if p.Ack == packet.AckSelective && base.SeqLess(p.SackPSN, s.Pkts) {
		s.delivered(now, p.SackPSN)
	}
	s.probe.Reset(2 * s.srtt)
	s.rackDetect(now)
	s.Kick()
}

// delivered records the first acknowledgment of psn: its window share
// returns and it becomes a RACK reference point.
func (s *sender) delivered(now units.Time, psn uint32) {
	st := &s.pkts[psn]
	if st.sacked {
		return
	}
	st.sacked = true
	size := s.PayloadAt(psn)
	s.inflight -= size
	if s.inflight < 0 {
		s.inflight = 0
	}
	s.CC.OnAck(now, size, 0)
	if st.sentAt > s.rackTime {
		s.rackTime = st.sentAt
	}
}

// markLost queues psn for retransmission and releases its window share: a
// packet declared lost is no longer in flight (without this, every real
// loss would permanently leak window credit and stall the pipe).
func (s *sender) markLost(psn uint32) {
	st := &s.pkts[psn]
	if st.sacked || st.queued {
		return
	}
	st.queued = true
	s.retxQ = append(s.retxQ, psn)
	s.inflight -= s.PayloadAt(psn)
	if s.inflight < 0 {
		s.inflight = 0
	}
}

// rackDetect marks as lost every unSACKed packet sent more than reoWnd
// before the most recently delivered packet, and arms the reorder timer for
// packets still inside the window.
func (s *sender) rackDetect(now units.Time) {
	reo := s.reoWnd()
	var nextDeadline units.Time
	for psn := s.una; base.SeqLess(psn, s.nextPSN); psn++ {
		st := &s.pkts[psn]
		if st.sacked || st.queued || st.sentAt == 0 {
			continue
		}
		if s.rackTime > st.sentAt+reo {
			s.markLost(psn)
			continue
		}
		// Not yet declarable: it may become declarable purely by time.
		dl := st.sentAt + s.srtt + reo
		if dl > now && (nextDeadline == 0 || dl < nextDeadline) {
			nextDeadline = dl
		} else if dl <= now && s.rackTime >= st.sentAt {
			s.markLost(psn)
		}
	}
	if nextDeadline > 0 {
		s.rackTimer.Reset(nextDeadline - now)
	}
}

func (s *sender) rackCheck() {
	s.rackDetect(s.Now())
	s.Kick()
}

// onProbe is the tail loss probe: after 2×SRTT without ACKs, retransmit the
// highest outstanding packet to elicit a SACK.
func (s *sender) onProbe() {
	if s.nextPSN == 0 || base.SeqGEQ(s.una, s.nextPSN) {
		s.probe.Reset(2 * s.srtt)
		return
	}
	for psn := s.nextPSN; base.SeqLess(s.una, psn); psn-- {
		st := &s.pkts[psn-1]
		if !st.sacked && !st.queued {
			s.markLost(psn - 1)
			break
		}
	}
	s.probe.Reset(2 * s.srtt)
	s.Kick()
}

func (s *sender) onRTO() {
	if base.SeqLess(s.una, s.nextPSN) {
		s.TimedOut(s.una)
		for psn := s.una; base.SeqLess(psn, s.nextPSN); psn++ {
			s.markLost(psn)
		}
		s.inflight = 0
		s.Kick()
	}
	s.rto.Reset(s.Env().RTOHigh)
}
