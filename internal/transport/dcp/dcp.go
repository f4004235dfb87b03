// Package dcp implements the paper's DCP-RNIC transport (§4): HO-based
// retransmission fed by the fabric's lossless control plane, order-tolerant
// packet reception, bitmap-free packet tracking with per-message counters
// and eMSN acknowledgments, and a coarse-grained timeout fallback with
// sRetryNo/rRetryNo retry epochs.
package dcp

import (
	"fmt"

	"dcpsim/internal/cc"
	"dcpsim/internal/nic"
	"dcpsim/internal/obs"
	"dcpsim/internal/packet"
	"dcpsim/internal/sim"
	"dcpsim/internal/transport/base"
	"dcpsim/internal/units"
)

// New builds a DCP endpoint: DCP-tagged traffic, DCQCN notifications, and
// trimmed headers bounced back to their sender.
func New(n *nic.NIC, env *base.Env) base.Transport {
	return base.NewEndpoint(n, env, base.Scheme{
		Name: "dcp", DCPTags: true, CNP: true, HO: base.HOBounce,
		NewSender: newSenderQP,
		NewReceiver: func(ep *base.Endpoint, first *packet.Packet) base.Receiver {
			return &recvQP{ep: ep, msgs: make(map[uint32]*recvMsg)}
		},
	})
}

// ---------- sender ----------

type senderMsg struct {
	size    int64
	basePSN uint32
	npkts   uint32
	retryNo uint8
	acked   bool
}

// Per-QP NIC tracking state, for the bitmap-vs-counter memory accounting
// (§4.5): the sender holds sequence cursors plus one small entry per
// outstanding message; the receiver holds a counter entry per incomplete
// message (plus the bitmap words only in the ReceiverBitmap ablation).
const (
	senderFixedState = 48
	senderMsgState   = 24
	recvFixedState   = 24
	recvMsgState     = 16
)

type senderQP struct {
	*base.SendQP

	msgs []*senderMsg

	nextPSN  uint32 // next new-data PSN
	unaMSN   uint32 // oldest unacknowledged message
	inflight int    // payload bytes believed in flight

	ackedBytes int64

	// RetransQ machinery (§4.3): entries live in host memory; the Tx path
	// fetches batches across PCIe into fetched, one fetch in flight at a
	// time, and consumes them from fetchHead. The batch buffer is reused.
	rq         nic.RetransQ
	fetched    []nic.RetransEntry
	fetchHead  int
	fetching   bool
	resend     []uint32 // PSNs queued by the coarse timeout fallback
	resendHead int

	timer   *sim.Timer
	backoff uint // consecutive coarse timeouts (exponential backoff)
}

func newSenderQP(q *base.SendQP) base.Sender {
	env, f := q.Env(), q.Flow
	qp := &senderQP{SendQP: q}
	var psn uint32
	for _, sz := range base.Messages(f.Size, env.MessageSize) {
		n := base.NumPackets(sz, env.MTU)
		qp.msgs = append(qp.msgs, &senderMsg{size: sz, basePSN: psn, npkts: n})
		psn += n
	}
	q.Pkts = psn
	outstanding := len(qp.msgs)
	if outstanding > env.DCP.MaxOutstandingMsgs {
		outstanding = env.DCP.MaxOutstandingMsgs
	}
	q.Rec.NoteSendState(senderFixedState + int64(outstanding)*senderMsgState)
	qp.timer = q.NewTimer(qp.onTimeout)
	qp.timer.Reset(env.DCP.Timeout)
	if env.Metrics != nil {
		env.Metrics.Gauge(fmt.Sprintf("flow%d.inflight_bytes", f.ID),
			func() float64 { return float64(qp.inflight) })
		env.Metrics.Gauge(fmt.Sprintf("flow%d.retransq_depth", f.ID),
			func() float64 { return float64(qp.rq.Len()) })
		env.Metrics.Gauge(fmt.Sprintf("flow%d.cc_rate_gbps", f.ID),
			func() float64 { return q.CC.Rate().Gigabits() })
	}
	if env.Trace != nil {
		tr, node, id := env.Trace, f.Src, f.ID
		cc.SetTrace(q.CC, func(now units.Time, r units.Rate) {
			tr.CCRate(now, node, id, r)
		})
	}
	return qp
}

// msgForPSN locates the message containing psn by binary search.
func (qp *senderQP) msgForPSN(psn uint32) (uint32, *senderMsg) {
	lo, hi := 0, len(qp.msgs)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if base.SeqGEQ(psn, qp.msgs[mid].basePSN) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return uint32(lo), qp.msgs[lo]
}

// Next implements base.QP: fetched retransmissions first, then
// timeout-fallback resends, then new data, all gated by the CC module.
func (qp *senderQP) Next(now units.Time) (*packet.Packet, units.Time) {
	env := qp.Env()

	// 1. HO-triggered retransmissions from the fetched batch.
	for qp.fetchHead < len(qp.fetched) {
		e := qp.fetched[qp.fetchHead]
		msn := e.MSN
		m := qp.msgs[msn]
		if m.acked || e.Epoch != m.retryNo {
			qp.fetchHead++
			continue
		}
		size := base.PayloadAt(m.size, env.MTU, e.Offset)
		if !env.DCP.UncontrolledRetrans {
			ok, at := qp.CC.CanSend(now, qp.inflight, size)
			if !ok {
				return nil, at
			}
		}
		qp.fetchHead++
		return qp.emit(now, e.PSN, msn, m, e.Offset, true), 0
	}
	qp.maybeFetch()

	// 2. Coarse-timeout resends.
	for qp.resendHead < len(qp.resend) {
		psn := qp.resend[qp.resendHead]
		msn, m := qp.msgForPSN(psn)
		if m.acked {
			qp.resendHead++
			continue
		}
		size := base.PayloadAt(m.size, env.MTU, base.SeqDiff(psn, m.basePSN))
		ok, at := qp.CC.CanSend(now, qp.inflight, size)
		if !ok {
			return nil, at
		}
		qp.resendHead++
		return qp.emit(now, psn, msn, m, base.SeqDiff(psn, m.basePSN), true), 0
	}
	if qp.resendHead > 0 && qp.resendHead == len(qp.resend) {
		qp.resend = qp.resend[:0]
		qp.resendHead = 0
	}

	// 3. New data, bounded by the outstanding-message cap.
	if base.SeqLess(qp.nextPSN, qp.Pkts) {
		msn, m := qp.msgForPSN(qp.nextPSN)
		if base.SeqGEQ(msn, qp.unaMSN+uint32(env.DCP.MaxOutstandingMsgs)) {
			return nil, 0 // wait for eMSN to advance
		}
		off := base.SeqDiff(qp.nextPSN, m.basePSN)
		size := base.PayloadAt(m.size, env.MTU, off)
		ok, at := qp.CC.CanSend(now, qp.inflight, size)
		if !ok {
			return nil, at
		}
		psn := qp.nextPSN
		qp.nextPSN++
		return qp.emit(now, psn, msn, m, off, false), 0
	}
	return nil, 0
}

func (qp *senderQP) emit(now units.Time, psn, msn uint32, m *senderMsg, off uint32, retrans bool) *packet.Packet {
	size := base.PayloadAt(m.size, qp.Env().MTU, off)
	p := qp.Env().Packets.Data(qp.Flow.ID, qp.Flow.Src, qp.Flow.Dst, psn, msn, size)
	p.MsgLen = m.npkts
	p.MsgOffset = off
	p.SRetryNo = m.retryNo
	p.SentAt = now
	p.Retransmitted = retrans
	qp.Sent(now, p)
	qp.inflight += size
	qp.CC.OnSent(now, p.Size)
	return p
}

// maybeFetch starts a PCIe batch fetch from the RetransQ when the RNIC has
// no fetched entries in hand (§4.3 steps 1–3). The PerHOFetch strawman
// fetches one entry per WQE fetch + data fetch (two PCIe RTTs).
func (qp *senderQP) maybeFetch() {
	if qp.fetching || qp.fetchHead < len(qp.fetched) || qp.rq.Len() == 0 || qp.Finished() {
		return
	}
	qp.fetching = true
	rtt := qp.Env().DCP.PCIe.RTT
	if qp.Env().DCP.PerHOFetch {
		rtt *= 2
	}
	qp.Endpoint().Eng.AfterHandler(rtt, sim.CompTransport, qp)
}

// Fire implements sim.Handler: the PCIe fetch started by maybeFetch
// completes. The previous batch was fully consumed before the fetch
// started, so the new one overwrites the buffer.
func (qp *senderQP) Fire() {
	qp.fetching = false
	limit := nic.BatchLimit
	if qp.Env().DCP.PerHOFetch {
		limit = 1
	}
	batch := qp.rq.FetchBatch(limit)
	qp.fetched = append(qp.fetched[:0], batch...)
	qp.fetchHead = 0
	qp.traceFetch(batch)
	qp.Kick()
}

// traceFetch records one EvRQFetch per entry when its PCIe fetch completes
// (Aux = the entry's retry epoch at push time).
func (qp *senderQP) traceFetch(batch []nic.RetransEntry) {
	tr := qp.Env().Trace
	if tr == nil {
		return
	}
	now := qp.Now()
	for _, e := range batch {
		tr.Emit(obs.Event{At: now, Type: obs.EvRQFetch, Node: qp.Flow.Src, Port: -1,
			Flow: qp.Flow.ID, PSN: e.PSN, MSN: e.MSN, Aux: int64(e.Epoch)})
	}
}

// OnHO receives a bounced HO packet: push a retransmission entry (the
// Rx-path DMA write) and kick the Tx path.
func (qp *senderQP) OnHO(p *packet.Packet) {
	msn, m := qp.msgForPSN(p.PSN)
	if m.acked || base.SeqLess(msn, qp.unaMSN) {
		return // stale: the message already completed
	}
	qp.Rec.HOTriggers++
	// The HO packet is an explicit loss notification: the named packet is
	// no longer in flight, so release its window share before the
	// (CC-regulated) retransmission claims it again.
	off := base.SeqDiff(p.PSN, m.basePSN)
	qp.inflight -= base.PayloadAt(m.size, qp.Env().MTU, off)
	if qp.inflight < 0 {
		qp.inflight = 0
	}
	qp.rq.Push(nic.RetransEntry{MSN: msn, PSN: p.PSN, Offset: off, Epoch: m.retryNo})
	if tr := qp.Env().Trace; tr != nil {
		tr.Emit(obs.Event{At: qp.Now(), Type: obs.EvHOReturn, Node: qp.Flow.Src, Port: -1,
			Flow: p.FlowID, PSN: p.PSN, MSN: msn, Size: int32(p.Size), Aux: int64(qp.rq.Len())})
	}
	qp.maybeFetch()
	qp.Kick()
}

// OnAck processes a DCP ACK: advance unaMSN to the carried eMSN, refresh
// the coarse timer, update flow control, and complete the flow when every
// message is acknowledged.
func (qp *senderQP) OnAck(p *packet.Packet) {
	now := qp.Now()
	if p.AckBytes > qp.ackedBytes {
		delta := p.AckBytes - qp.ackedBytes
		qp.ackedBytes = p.AckBytes
		qp.inflight -= int(delta)
		if qp.inflight < 0 {
			qp.inflight = 0
		}
		var rtt units.Time
		if p.SentAt > 0 {
			rtt = now - p.SentAt
		}
		qp.CC.OnAck(now, int(delta), rtt)
	}
	if base.SeqLess(qp.unaMSN, p.EMSN) {
		for i := qp.unaMSN; base.SeqLess(i, p.EMSN) && i < uint32(len(qp.msgs)); i++ {
			qp.msgs[i].acked = true
		}
		qp.unaMSN = p.EMSN
		qp.backoff = 0
		qp.timer.Reset(qp.Env().DCP.Timeout)
		if base.SeqGEQ(qp.unaMSN, uint32(len(qp.msgs))) {
			qp.Complete(now)
			return
		}
	}
	qp.Kick()
}

// onTimeout is the coarse-grained fallback (§4.5): bump the unaMSN-th
// message's retry epoch and resend all of its packets through the normal
// (CC-regulated) send path.
func (qp *senderQP) onTimeout() {
	env := qp.Env()
	if qp.nextPSN == 0 {
		// Nothing sent yet (flow starved by CC): just re-arm.
		qp.timer.Reset(env.DCP.Timeout)
		return
	}
	m := qp.msgs[qp.unaMSN]
	m.retryNo++
	qp.Rec.Timeouts++
	if env.Trace != nil {
		now := qp.Now()
		env.Trace.Emit(obs.Event{At: now, Type: obs.EvTimeout, Node: qp.Flow.Src, Port: -1,
			Flow: qp.Flow.ID, MSN: qp.unaMSN, Aux: int64(qp.backoff)})
		env.Trace.Emit(obs.Event{At: now, Type: obs.EvEpochFallback, Node: qp.Flow.Src, Port: -1,
			Flow: qp.Flow.ID, PSN: m.basePSN, MSN: qp.unaMSN, Aux: int64(m.retryNo)})
	}
	// Conservative restart: consider the window empty.
	qp.inflight = 0
	// Queue every already-sent packet of the message for resending.
	qp.resend = qp.resend[:0]
	qp.resendHead = 0
	end := m.basePSN + m.npkts
	if base.SeqLess(qp.nextPSN, end) {
		end = qp.nextPSN
	}
	for psn := m.basePSN; base.SeqLess(psn, end); psn++ {
		qp.resend = append(qp.resend, psn)
	}
	// Exponential backoff: under sustained congestion each epoch bump
	// discards the receiver's partial count for the message, so retrying
	// at a fixed cadence can livelock. Back off until progress resumes.
	if qp.backoff < 5 {
		qp.backoff++
	}
	qp.timer.Reset(env.DCP.Timeout << qp.backoff)
	qp.Kick()
}

// ---------- receiver ----------

type recvMsg struct {
	total    uint32
	counter  uint32
	retryNo  uint8
	complete bool
	// bitmap is only allocated in the ReceiverBitmap ablation.
	bitmap []uint64
}

type recvQP struct {
	ep       *base.Endpoint
	eMSN     uint32
	msgs     map[uint32]*recvMsg
	rxBytes  int64
	sinceAck int
}

// ackEvery is the ACK coalescing factor: one ACK per this many data
// packets, plus an immediate ACK whenever eMSN advances.
const ackEvery = 4

// Receive places a data packet by its per-message counter (§4.4).
func (qp *recvQP) Receive(p *packet.Packet) {
	ep := qp.ep
	if base.SeqLess(p.MSN, qp.eMSN) {
		// Duplicate of a completed message (late timeout retransmission):
		// refresh the sender with the current state.
		qp.sendAck(p)
		return
	}
	m := qp.msgs[p.MSN]
	if m == nil {
		m = &recvMsg{total: p.MsgLen}
		var bitmapBytes int64
		if ep.Env.DCP.ReceiverBitmap {
			m.bitmap = make([]uint64, (p.MsgLen+63)/64)
			bitmapBytes = int64(len(m.bitmap)) * 8
		}
		qp.msgs[p.MSN] = m
		if rec := ep.Env.Collector.Flow(p.FlowID); rec != nil {
			rec.NoteRecvState(recvFixedState + int64(len(qp.msgs))*(recvMsgState+bitmapBytes))
		}
	}
	// Retry-epoch check (§4.5). Note rxBytes stays cumulative across the
	// reset: packets of the discarded epoch remain counted, which can
	// over-credit the sender's window slightly after a timeout — the
	// sender compensates by conservatively zeroing its inflight estimate
	// when the timer fires.
	switch {
	case p.SRetryNo > m.retryNo:
		m.retryNo = p.SRetryNo
		m.counter = 0
		for i := range m.bitmap {
			m.bitmap[i] = 0
		}
	case p.SRetryNo < m.retryNo:
		return // stale epoch
	}
	if m.complete {
		return
	}

	if ep.Env.DCP.ReceiverBitmap {
		w, b := p.MsgOffset/64, p.MsgOffset%64
		if m.bitmap[w]&(1<<b) != 0 {
			return // duplicate within epoch (only possible in ablations)
		}
		m.bitmap[w] |= 1 << b
	}
	m.counter++
	qp.rxBytes += int64(p.PayloadBytes)
	qp.sinceAck++
	ep.Place(p, m.retryNo, m.counter)

	advanced := false
	if m.counter >= m.total {
		m.complete = true
		ep.MsgComplete(p, m.total)
		// Advance eMSN over consecutively completed messages, releasing
		// their tracking state (the CQE generation point).
		for {
			cm := qp.msgs[qp.eMSN]
			if cm == nil || !cm.complete {
				break
			}
			delete(qp.msgs, qp.eMSN)
			qp.eMSN++
			advanced = true
		}
	}
	if advanced && ep.Env.Trace != nil {
		ep.Env.Trace.Emit(obs.Event{At: ep.Eng.Now(), Type: obs.EvEMSNAdv, Node: ep.NIC.ID(), Port: -1,
			Flow: p.FlowID, MSN: qp.eMSN, Aux: int64(qp.eMSN)})
	}
	if advanced || qp.sinceAck >= ackEvery {
		qp.sendAck(p)
	}
}

func (qp *recvQP) sendAck(data *packet.Packet) {
	qp.sinceAck = 0
	ack := qp.ep.Ack(data, 0)
	ack.EMSN = qp.eMSN
	ack.AckBytes = qp.rxBytes
	qp.ep.QueueCtrl(ack)
}

// RecvState exposes receiver-side tracking for tests: returns the expected
// MSN and number of tracked (outstanding) messages for a flow received by
// the DCP endpoint t.
func RecvState(t base.Transport, flowID uint64) (eMSN uint32, tracked int, ok bool) {
	qp, ok := t.(*base.Endpoint).Receiver(flowID).(*recvQP)
	if !ok {
		return 0, 0, false
	}
	return qp.eMSN, len(qp.msgs), true
}

// SenderState exposes sender-side state for tests: the oldest
// unacknowledged message and RetransQ depth of a flow sent by t.
func SenderState(t base.Transport, flowID uint64) (unaMSN uint32, retransQLen int, ok bool) {
	qp, ok := t.(*base.Endpoint).Sender(flowID).(*senderQP)
	if !ok {
		return 0, 0, false
	}
	return qp.unaMSN, qp.rq.Len(), true
}
