package base

import (
	"fmt"

	"dcpsim/internal/cc"
	"dcpsim/internal/nic"
	"dcpsim/internal/obs"
	"dcpsim/internal/packet"
	"dcpsim/internal/sim"
	"dcpsim/internal/stats"
	"dcpsim/internal/units"
	"dcpsim/internal/workload"
)

// Scheme is what one transport adds to the shared endpoint skeleton: its
// per-flow sender and receiver policies, plus the few switches on which the
// schemes' plumbing differs.
type Scheme struct {
	// Name identifies the scheme ("dcp", "irn", ...).
	Name string
	// NewSender wraps a flow's sender core in the scheme's sender policy.
	// The core is complete when it runs (flow record, CC controller, packet
	// count), so timers armed here follow the controller's in event order.
	NewSender func(q *SendQP) Sender
	// NewReceiver builds a flow's receiver state from the first packet of
	// the flow that reaches this host. first is valid only during the
	// call: the receiver may copy its fields but not keep it.
	NewReceiver func(ep *Endpoint, first *packet.Packet) Receiver
	// OwnWindow marks schemes that pace themselves: their flows get no
	// Env.CC controller (SendQP.CC is nil) and ignore CNPs.
	OwnWindow bool
	// DCPTags keeps the DCP ToS tags on data, ACKs and CNPs, so a trimming
	// switch trims data instead of dropping it. Otherwise every packet the
	// endpoint sends is tagged non-DCP.
	DCPTags bool
	// CNP makes receivers answer ECN-marked data with DCQCN congestion
	// notifications, at most one per flow per Env.CNPInterval.
	CNP bool
	// HO says what a receiver does with a trimmed header.
	HO HOPolicy
	// StackDelay delays every arrival before protocol processing (the
	// receive path of a software host stack).
	StackDelay units.Time
}

// HOPolicy is a receiver's treatment of trimmed headers (KindHO).
type HOPolicy uint8

// HO policies.
const (
	HOIgnore  HOPolicy = iota // the scheme never runs on a trimming fabric
	HOBounce                  // return the header to its sender (DCP §4.1)
	HOReceive                 // hand the header to the receiver (NDP's NACK)
)

// Sender is a scheme's per-flow sender policy. Implementations embed
// *SendQP, which supplies Finished and the shared core.
type Sender interface {
	QP
	// OnAck handles an ACK-kind packet of the flow (ACK, SACK, NAK, pull).
	// The skeleton drops it once the flow is done. p is valid only during
	// the call: the skeleton releases it when OnAck returns.
	OnAck(p *packet.Packet)
	sendQP() *SendQP
}

// HOSender is implemented by senders that take back bounced headers.
type HOSender interface {
	// OnHO handles the flow's header echoed back by its receiver. p is
	// valid only during the call: the skeleton releases it when OnHO
	// returns.
	OnHO(p *packet.Packet)
}

// Receiver is a scheme's per-flow receiver policy.
type Receiver interface {
	// Receive handles one data packet of the flow, or a trimmed header
	// when the scheme's HO policy is HOReceive. p is valid only during the
	// call: the skeleton releases it when Receive returns, so a receiver
	// copies what it needs and never keeps p.
	Receive(p *packet.Packet)
}

// rxFlow is a receiver plus the skeleton's per-flow CNP rate limiter.
type rxFlow struct {
	Receiver
	lastCNP units.Time
	cnpSet  bool
}

// Endpoint is the transport endpoint every scheme runs on: the packet
// scheduler, the per-flow sender and receiver tables, arrival dispatch,
// and the flow-lifecycle and placement trace events, emitted here once for
// every scheme. Arrivals end here too: dispatch releases every packet to
// Env.Packets once its consumer has returned.
type Endpoint struct {
	NIC *nic.NIC
	Eng *sim.Engine
	Env *Env

	scheme Scheme
	send   map[uint64]Sender
	recv   map[uint64]*rxFlow

	// The scheduler: a FIFO of control packets served first, then
	// round-robin over the sender QPs.
	ctrl Queue[*packet.Packet]
	qps  []QP
	rr   int

	// stack holds arrivals waiting out Scheme.StackDelay, oldest first.
	// Only schemes with a stack delay use it, so it is made on their first
	// arrival rather than carried by every endpoint.
	stack *Queue[*packet.Packet]
}

// NewEndpoint binds a scheme to a NIC.
func NewEndpoint(n *nic.NIC, env *Env, s Scheme) *Endpoint {
	return &Endpoint{
		NIC: n, Eng: n.Engine(), Env: env,
		scheme: s,
		send:   make(map[uint64]Sender),
		recv:   make(map[uint64]*rxFlow),
	}
}

// Name implements Transport.
func (ep *Endpoint) Name() string { return ep.scheme.Name }

// Sender returns the sender of a flow started on this host, or nil.
func (ep *Endpoint) Sender(flow uint64) Sender { return ep.send[flow] }

// Receiver returns the receiver of a flow arriving at this host, or nil.
func (ep *Endpoint) Receiver(flow uint64) Receiver {
	if r := ep.recv[flow]; r != nil {
		return r.Receiver
	}
	return nil
}

// StartFlow implements Transport: it builds the flow's sender core, wraps
// it in the scheme's policy and schedules it.
func (ep *Endpoint) StartFlow(f *workload.Flow) {
	env, now := ep.Env, ep.Eng.Now()
	if env.Trace != nil {
		env.Trace.Flow(now, obs.EvFlowStart, f.Src, f.ID, f.Size)
	}
	q := &SendQP{ep: ep, Flow: f}
	q.Rec = env.Collector.Flow(f.ID)
	if q.Rec == nil {
		q.Rec = env.Collector.Add(f.ID, f.Src, f.Dst, f.Size, now)
	}
	if !ep.scheme.OwnWindow {
		q.CC = env.CC(ep.Eng, ep.NIC.Rate(), env.BaseRTT)
	}
	q.Pkts = NumPackets(f.Size, env.MTU)
	q.lastPay = PayloadAt(f.Size, env.MTU, q.Pkts-1)
	s := ep.scheme.NewSender(q)
	ep.send[f.ID] = s
	ep.AddQP(s)
}

// Handle implements nic.Transport. Under a stack delay the arrival waits
// in the host stack first. The delay is fixed, so arrivals leave the stack
// in the order they entered it and each Fire takes the oldest.
func (ep *Endpoint) Handle(p *packet.Packet) {
	if d := ep.scheme.StackDelay; d > 0 {
		if ep.stack == nil {
			ep.stack = new(Queue[*packet.Packet])
		}
		ep.stack.Push(p)
		ep.Eng.AfterHandler(d, sim.CompTransport, ep)
		return
	}
	ep.dispatch(p)
}

// Fire implements sim.Handler: the oldest arrival in the host stack
// reaches protocol processing.
func (ep *Endpoint) Fire() {
	p, _ := ep.stack.Pop()
	ep.dispatch(p)
}

// dispatch hands an arrival to its consumer and then releases it to
// Env.Packets, the one place a packet goes back: data after Receive, an
// echoed header after OnHO, a header the scheme receives or ignores, an
// ACK after OnAck or once its flow is done, and a CNP. A bounced header is
// not released: it travels on to its sender, whose dispatch releases it.
func (ep *Endpoint) dispatch(p *packet.Packet) {
	if p.Released() {
		panic(fmt.Sprintf("base: dispatch of released packet %v", p))
	}
	switch p.Kind {
	case packet.KindData:
		ep.receive(p)
	case packet.KindHO:
		switch {
		case p.Echoed:
			if s, ok := ep.live(p.FlowID).(HOSender); ok {
				s.OnHO(p)
			}
		case ep.scheme.HO == HOBounce:
			// Swap source and destination and return the header to the
			// sender (§4.1 step 2).
			if ep.Env.Trace != nil {
				ep.Env.Trace.Packet(ep.Eng.Now(), obs.EvHOBounce, ep.NIC.ID(), -1, p, 0)
			}
			p.Bounce()
			ep.QueueCtrl(p)
			return
		case ep.scheme.HO == HOReceive:
			ep.receive(p)
		}
	case packet.KindAck:
		if s := ep.live(p.FlowID); s != nil {
			s.OnAck(p)
		}
	case packet.KindCNP:
		if s := ep.live(p.FlowID); s != nil && s.sendQP().CC != nil {
			s.sendQP().CC.OnCongestion(ep.Eng.Now())
		}
	}
	ep.Env.Packets.Release(p)
}

// live returns the flow's sender while the flow is still sending.
func (ep *Endpoint) live(flow uint64) Sender {
	if s := ep.send[flow]; s != nil && !s.sendQP().done {
		return s
	}
	return nil
}

func (ep *Endpoint) receive(p *packet.Packet) {
	r := ep.recv[p.FlowID]
	if r == nil {
		r = &rxFlow{Receiver: ep.scheme.NewReceiver(ep, p)}
		ep.recv[p.FlowID] = r
	}
	if p.ECN && ep.scheme.CNP {
		ep.maybeCNP(r, p)
	}
	r.Receive(p)
}

// maybeCNP sends a DCQCN congestion notification, rate-limited per flow.
func (ep *Endpoint) maybeCNP(r *rxFlow, data *packet.Packet) {
	now := ep.Eng.Now()
	if r.cnpSet && now-r.lastCNP < ep.Env.CNPInterval {
		return
	}
	r.cnpSet = true
	r.lastCNP = now
	c := ep.Env.Packets.CNP(data.FlowID, data.Dst, data.Src)
	c.Tag = ep.tag(c.Tag)
	ep.QueueCtrl(c)
}

// tag returns t under DCP tagging, else the non-DCP tag.
func (ep *Endpoint) tag(t packet.Tag) packet.Tag {
	if ep.scheme.DCPTags {
		return t
	}
	return packet.TagNonDCP
}

// Ack builds (but does not queue) the receiver's cumulative ACK answering
// data, echoing its send timestamp for RTT estimation.
func (ep *Endpoint) Ack(data *packet.Packet, epsn uint32) *packet.Packet {
	a := ep.Env.Packets.Ack(data.FlowID, data.Dst, data.Src, epsn)
	a.Tag = ep.tag(a.Tag)
	a.SentAt = data.SentAt
	return a
}

// Place records that the receiver placed p's payload. counter is the
// receiver's count of distinct packets of message p.MSN placed in retry
// epoch epoch, including this one: the flight recorder's exactly-once
// evidence.
func (ep *Endpoint) Place(p *packet.Packet, epoch uint8, counter uint32) {
	if tr := ep.Env.Trace; tr != nil {
		tr.Emit(obs.Event{At: ep.Eng.Now(), Type: obs.EvPlace, Node: ep.NIC.ID(), Port: -1,
			Flow: p.FlowID, PSN: p.PSN, MSN: p.MSN, Size: int32(p.PayloadBytes),
			Aux: int64(epoch)<<32 | int64(counter)})
	}
}

// MsgComplete records that message p.MSN has all of its total packets
// placed; p is the packet that completed it.
func (ep *Endpoint) MsgComplete(p *packet.Packet, total uint32) {
	if tr := ep.Env.Trace; tr != nil {
		tr.Emit(obs.Event{At: ep.Eng.Now(), Type: obs.EvMsgComplete, Node: ep.NIC.ID(), Port: -1,
			Flow: p.FlowID, PSN: p.PSN, MSN: p.MSN, Aux: int64(total)})
	}
}

// SendQP is the sender-side core of one flow, shared by every scheme:
// the flow and its stats record, the CC controller, the packet count,
// completion, and the send/retransmit/timeout accounting and tracing.
type SendQP struct {
	ep   *Endpoint
	Flow *workload.Flow
	Rec  *stats.FlowRecord
	// CC is the flow's congestion controller; nil for OwnWindow schemes.
	CC cc.Controller
	// Pkts is the number of MTU-sized packets in the flow.
	Pkts uint32

	lastPay int
	done    bool
	timers  []*sim.Timer
}

func (q *SendQP) sendQP() *SendQP { return q }

// Finished implements QP.
func (q *SendQP) Finished() bool { return q.done }

// Endpoint returns the host the flow is sent from.
func (q *SendQP) Endpoint() *Endpoint { return q.ep }

// Env returns the experiment environment.
func (q *SendQP) Env() *Env { return q.ep.Env }

// Now returns the current simulated time.
func (q *SendQP) Now() units.Time { return q.ep.Eng.Now() }

// Kick prompts the NIC to pull work.
func (q *SendQP) Kick() { q.ep.NIC.Kick() }

// PayloadAt returns the payload length of flow packet psn.
func (q *SendQP) PayloadAt(psn uint32) int {
	if psn == q.Pkts-1 {
		return q.lastPay
	}
	return q.ep.Env.MTU
}

// NewTimer returns a timer that runs fn while the flow is live and is
// stopped when the flow completes.
func (q *SendQP) NewTimer(fn func()) *sim.Timer {
	t := sim.NewTimer(q.ep.Eng, func() {
		if !q.done {
			fn()
		}
	})
	q.timers = append(q.timers, t)
	return t
}

// Data builds flow packet psn of the given payload size and accounts it
// as sent.
func (q *SendQP) Data(now units.Time, psn uint32, size int, retrans bool) *packet.Packet {
	p := q.ep.Env.Packets.Data(q.Flow.ID, q.Flow.Src, q.Flow.Dst, psn, 0, size)
	p.Tag = q.ep.tag(p.Tag)
	p.MsgLen = q.Pkts
	p.SentAt = now
	p.Retransmitted = retrans
	q.Sent(now, p)
	return p
}

// Sent accounts a data packet leaving the sender: the flow's data or
// retransmission counter, and an EvSend or EvRetransmit trace event.
func (q *SendQP) Sent(now units.Time, p *packet.Packet) {
	typ := obs.EvSend
	if p.Retransmitted {
		typ = obs.EvRetransmit
		q.Rec.RetransPkts++
	} else {
		q.Rec.DataPkts++
	}
	if tr := q.ep.Env.Trace; tr != nil {
		tr.Emit(obs.Event{At: now, Type: typ, Node: q.Flow.Src, Port: -1,
			Flow: q.Flow.ID, PSN: p.PSN, MSN: p.MSN, Size: int32(p.PayloadBytes), Aux: int64(p.SRetryNo)})
	}
}

// TimedOut accounts a retransmission timeout that found psn (the oldest
// unacknowledged packet) outstanding.
func (q *SendQP) TimedOut(psn uint32) {
	q.Rec.Timeouts++
	if tr := q.ep.Env.Trace; tr != nil {
		tr.Emit(obs.Event{At: q.Now(), Type: obs.EvTimeout, Node: q.Flow.Src, Port: -1,
			Flow: q.Flow.ID, PSN: psn})
	}
}

// Complete finishes the flow: its timers and controller stop, the NIC
// stops polling it, and the collector records the completion time.
func (q *SendQP) Complete(now units.Time) {
	q.done = true
	for _, t := range q.timers {
		t.Stop()
	}
	if q.CC != nil {
		q.CC.Close()
	}
	if tr := q.ep.Env.Trace; tr != nil {
		tr.Flow(now, obs.EvFlowDone, q.Flow.Src, q.Flow.ID, q.Flow.Size)
	}
	q.ep.Env.Collector.Done(q.Flow.ID, now)
}
