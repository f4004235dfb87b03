package base

import (
	"testing"
	"testing/quick"

	"dcpsim/internal/cc"
	"dcpsim/internal/fabric"
	"dcpsim/internal/nic"
	"dcpsim/internal/packet"
	"dcpsim/internal/sim"
	"dcpsim/internal/stats"
	"dcpsim/internal/units"
	"dcpsim/internal/workload"
)

// testPkts builds the packets these tests inject; nothing releases into it.
var testPkts packet.FreeList

func TestNumPackets(t *testing.T) {
	cases := []struct {
		size int64
		want uint32
	}{
		{0, 0}, {1, 1}, {999, 1}, {1000, 1}, {1001, 2}, {30_000_000, 30000},
	}
	for _, c := range cases {
		if got := NumPackets(c.size, 1000); got != c.want {
			t.Errorf("NumPackets(%d) = %d, want %d", c.size, got, c.want)
		}
	}
}

func TestPayloadAt(t *testing.T) {
	// 2500 bytes at MTU 1000: payloads 1000, 1000, 500.
	if PayloadAt(2500, 1000, 0) != 1000 || PayloadAt(2500, 1000, 1) != 1000 {
		t.Fatal("full packets")
	}
	if PayloadAt(2500, 1000, 2) != 500 {
		t.Fatal("tail packet")
	}
	if PayloadAt(2500, 1000, 3) != 0 {
		t.Fatal("out of range")
	}
}

func TestPayloadsSumToSizeQuick(t *testing.T) {
	f := func(sz uint32) bool {
		size := int64(sz%10_000_000) + 1
		n := NumPackets(size, 1000)
		var sum int64
		for i := uint32(0); i < n; i++ {
			p := PayloadAt(size, 1000, i)
			if p <= 0 || p > 1000 {
				return false
			}
			sum += int64(p)
		}
		return sum == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMessages(t *testing.T) {
	msgs := Messages(10<<20, 4<<20)
	if len(msgs) != 3 {
		t.Fatalf("%d messages", len(msgs))
	}
	if msgs[0] != 4<<20 || msgs[2] != 2<<20 {
		t.Fatalf("sizes %v", msgs)
	}
	var sum int64
	for _, m := range msgs {
		sum += m
	}
	if sum != 10<<20 {
		t.Fatal("conservation")
	}
	if Messages(0, 1<<20) != nil {
		t.Fatal("empty")
	}
}

func TestEnvDefaults(t *testing.T) {
	e := &Env{}
	e.Defaults()
	if e.MTU != packet.DefaultMTU || e.MessageSize != 4*units.MB {
		t.Fatal("mtu/message defaults")
	}
	if e.RTOLow == 0 || e.RTOHigh != 4*e.RTOLow {
		t.Fatal("RTO defaults")
	}
	if e.CC == nil || e.DCP.PCIe.RTT == 0 || e.DCP.Timeout == 0 {
		t.Fatal("controller/DCP defaults")
	}
	if e.DCP.MaxOutstandingMsgs != 8 || e.MP.Paths != 4 || e.MP.OOOWindow != 64 {
		t.Fatal("scheme defaults")
	}
	// Explicit values survive.
	e2 := &Env{MTU: 500, MessageSize: 1 << 20}
	e2.Defaults()
	if e2.MTU != 500 || e2.MessageSize != 1<<20 {
		t.Fatal("explicit values overridden")
	}
}

// scriptedQP returns packets from a list.
type scriptedQP struct {
	pkts []*packet.Packet
	fin  bool
	at   units.Time
}

func (q *scriptedQP) Next(now units.Time) (*packet.Packet, units.Time) {
	if len(q.pkts) == 0 {
		return nil, q.at
	}
	p := q.pkts[0]
	q.pkts = q.pkts[1:]
	return p, 0
}
func (q *scriptedQP) Finished() bool { return q.fin }

type sinkNode struct{}

func (s *sinkNode) Receive(p *packet.Packet, _ int) {}
func (s *sinkNode) AddIngress(w *fabric.Wire) int   { return 0 }

func newHost(eng *sim.Engine) *Endpoint { return newEndpoint(eng, Scheme{}) }

func newEndpoint(eng *sim.Engine, s Scheme) *Endpoint {
	n := nic.New(eng, 0, 100*units.Gbps)
	n.SetUplink(fabric.Attach(eng, 0, &sinkNode{}))
	env := &Env{}
	env.Defaults()
	return NewEndpoint(n, env, s)
}

func TestCtrlQueueFIFOAndPriority(t *testing.T) {
	eng := sim.NewEngine(1)
	h := newHost(eng)
	data := testPkts.Data(1, 0, 1, 0, 0, 100)
	h.AddQP(&scriptedQP{pkts: []*packet.Packet{data}})
	a1 := testPkts.Ack(1, 0, 1, 1)
	a2 := testPkts.Ack(1, 0, 1, 2)
	h.QueueCtrl(a1)
	h.QueueCtrl(a2)
	if got := h.Dequeue(0, false); got != a1 {
		t.Fatal("ctrl served first, FIFO")
	}
	if got := h.Dequeue(0, false); got != a2 {
		t.Fatal("ctrl FIFO order")
	}
	if got := h.Dequeue(0, false); got != data {
		t.Fatal("then data")
	}
}

// TestQueueBoundedWhenNeverDrained: a FIFO that always holds a few items
// (the control queue under steady ACK traffic, NDP's pull rotation) keeps
// its order and reuses its slots instead of growing with every push.
func TestQueueBoundedWhenNeverDrained(t *testing.T) {
	var q Queue[int]
	next := 0
	for i := 0; i < 100_000; i++ {
		q.Push(i)
		if i < 3 {
			continue
		}
		if v, ok := q.Pop(); !ok || v != next {
			t.Fatalf("pop %d = %d, %v; want %d", i, v, ok, next)
		}
		next++
	}
	if q.Len() != 3 || cap(q.items) > 64 {
		t.Fatalf("len %d, cap %d: the queue must stay at its depth", q.Len(), cap(q.items))
	}
	for ; q.Len() > 0; next++ {
		if v, _ := q.Pop(); v != next {
			t.Fatalf("drain popped %d, want %d", v, next)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("an empty queue must report false")
	}
}

func TestPauseHoldsDataNotCtrl(t *testing.T) {
	eng := sim.NewEngine(1)
	h := newHost(eng)
	h.AddQP(&scriptedQP{pkts: []*packet.Packet{testPkts.Data(1, 0, 1, 0, 0, 100)}})
	ack := testPkts.Ack(1, 0, 1, 1)
	h.QueueCtrl(ack)
	if got := h.Dequeue(0, true); got != ack {
		t.Fatal("PFC pause must not hold ACKs")
	}
	if got := h.Dequeue(0, true); got != nil {
		t.Fatal("PFC pause must hold data")
	}
	if got := h.Dequeue(0, false); got == nil {
		t.Fatal("unpaused serves data")
	}
}

func TestRoundRobinAcrossQPs(t *testing.T) {
	eng := sim.NewEngine(1)
	h := newHost(eng)
	mk := func(flow uint64, n int) *scriptedQP {
		q := &scriptedQP{}
		for i := 0; i < n; i++ {
			q.pkts = append(q.pkts, testPkts.Data(flow, 0, 1, uint32(i), 0, 100))
		}
		return q
	}
	h.AddQP(mk(1, 3))
	h.AddQP(mk(2, 3))
	var order []uint64
	for {
		p := h.Dequeue(0, false)
		if p == nil {
			break
		}
		order = append(order, p.FlowID)
	}
	want := []uint64{1, 2, 1, 2, 1, 2}
	for i, f := range want {
		if order[i] != f {
			t.Fatalf("RR order %v", order)
		}
	}
}

func TestPacingWakeScheduled(t *testing.T) {
	eng := sim.NewEngine(1)
	h := newHost(eng)
	h.AddQP(&scriptedQP{at: 10 * units.Microsecond})
	if h.Dequeue(0, false) != nil {
		t.Fatal("nothing eligible")
	}
	// The host must have scheduled a wake-up kick at the pacing hint.
	if eng.Pending() == 0 {
		t.Fatal("no wake-up scheduled")
	}
}

func TestCompactDropsFinishedQPs(t *testing.T) {
	eng := sim.NewEngine(1)
	h := newHost(eng)
	for i := 0; i < 100; i++ {
		h.AddQP(&scriptedQP{fin: true})
	}
	live := &scriptedQP{pkts: []*packet.Packet{testPkts.Data(9, 0, 1, 0, 0, 10)}}
	h.AddQP(live)
	if h.Dequeue(0, false) == nil {
		t.Fatal("live QP must be served")
	}
	h.Dequeue(0, false) // triggers compaction sweep
	if len(h.qps) > 2 {
		t.Fatalf("compact left %d QPs", len(h.qps))
	}
}

// probe is a scheme whose sender and receiver count what the skeleton
// hands them.
type probe struct {
	*SendQP
	acks, rx  int
	congested int
}

func (p *probe) Next(units.Time) (*packet.Packet, units.Time) { return nil, 0 }
func (p *probe) OnAck(*packet.Packet)                         { p.acks++ }
func (p *probe) Receive(*packet.Packet)                       { p.rx++ }

// congestionCC counts congestion signals on the probe.
type congestionCC struct {
	*cc.Window
	p *probe
}

func (c congestionCC) OnCongestion(units.Time) { c.p.congested++ }

func newProbeEndpoint(eng *sim.Engine, s Scheme) (*Endpoint, *probe) {
	pr := &probe{}
	s.NewSender = func(q *SendQP) Sender { pr.SendQP = q; return pr }
	s.NewReceiver = func(*Endpoint, *packet.Packet) Receiver { return pr }
	ep := newEndpoint(eng, s)
	ep.Env.CC = func(*sim.Engine, units.Rate, units.Time) cc.Controller { return congestionCC{&cc.Window{}, pr} }
	return ep, pr
}

func TestEndpointDispatch(t *testing.T) {
	eng := sim.NewEngine(1)
	ep, pr := newProbeEndpoint(eng, Scheme{Name: "probe"})
	ep.Env.Collector = stats.NewCollector()
	ep.StartFlow(&workload.Flow{ID: 7, Src: 0, Dst: 1, Size: 2500})
	if pr.Pkts != 3 || pr.PayloadAt(2) != 500 || ep.Sender(7) != pr {
		t.Fatal("sender core")
	}
	ep.Handle(testPkts.Ack(7, 1, 0, 1))
	ep.Handle(&packet.Packet{Kind: packet.KindCNP, FlowID: 7})
	ep.Handle(testPkts.Data(9, 1, 0, 0, 0, 100))
	if pr.acks != 1 || pr.congested != 1 || pr.rx != 1 || ep.Receiver(9) != pr {
		t.Fatalf("acks=%d cnps=%d rx=%d", pr.acks, pr.congested, pr.rx)
	}
	pr.Complete(eng.Now())
	ep.Handle(testPkts.Ack(7, 1, 0, 2))
	ep.Handle(&packet.Packet{Kind: packet.KindCNP, FlowID: 7})
	if pr.acks != 1 || pr.congested != 1 || !pr.Finished() || !ep.Env.Collector.Flow(7).Done {
		t.Fatal("a finished flow must ignore ACKs and CNPs")
	}
}

// TestDispatchReleasesArrivals: dispatch gives every arrival back to the
// free list once its consumer has returned — including an ACK of a flow
// that is already done — except a header it bounces, which travels on to
// its sender.
func TestDispatchReleasesArrivals(t *testing.T) {
	eng := sim.NewEngine(1)
	ep, pr := newProbeEndpoint(eng, Scheme{Name: "probe", HO: HOBounce})
	ep.Env.Collector = stats.NewCollector()
	ep.StartFlow(&workload.Flow{ID: 7, Src: 0, Dst: 1, Size: 2500})
	echoed := testPkts.Data(7, 0, 1, 0, 0, 100)
	echoed.Trim()
	echoed.Bounce()
	ho := testPkts.Data(9, 1, 0, 4, 0, 100)
	ho.Trim()
	late := testPkts.Ack(7, 1, 0, 3)
	arrivals := []*packet.Packet{
		testPkts.Ack(7, 1, 0, 1),
		testPkts.Data(9, 1, 0, 0, 0, 100),
		echoed,
		ho,
		&packet.Packet{Kind: packet.KindCNP, FlowID: 7},
	}
	for _, p := range arrivals {
		ep.Handle(p)
	}
	pr.Complete(eng.Now())
	ep.Handle(late)
	for i, p := range append(arrivals, late) {
		if p.Released() == (p == ho) {
			t.Fatalf("arrival %d (%v): released = %v", i, p, p.Released())
		}
	}
	if ep.PopCtrl() != ho {
		t.Fatal("the bounced header must be queued toward its sender")
	}
	if d := ep.Env.Packets.Data(9, 1, 0, 1, 0, 100); d != late || d.Released() {
		t.Fatal("the next packet built must reuse the last one released")
	}
}

// TestDispatchReleasedPanics: a packet that comes back after it was
// released (a consumer kept it, or the fabric delivered a stale pointer)
// stops the run instead of corrupting whichever packet reuses it.
func TestDispatchReleasedPanics(t *testing.T) {
	ep, pr := newProbeEndpoint(sim.NewEngine(1), Scheme{Name: "probe"})
	d := testPkts.Data(9, 1, 0, 0, 0, 100)
	ep.Handle(d)
	defer func() {
		if recover() == nil {
			t.Fatal("dispatching a released packet must panic")
		}
		if pr.rx != 1 {
			t.Fatalf("receiver saw %d arrivals, want 1", pr.rx)
		}
	}()
	ep.Handle(d)
}

func TestEndpointCNPRateLimit(t *testing.T) {
	for _, dcp := range []bool{false, true} {
		eng := sim.NewEngine(1)
		ep, _ := newProbeEndpoint(eng, Scheme{Name: "probe", CNP: true, DCPTags: dcp})
		for i := 0; i < 3; i++ {
			d := testPkts.Data(1, 1, 0, uint32(i), 0, 100)
			d.ECN = true
			ep.Handle(d)
		}
		cnp := ep.PopCtrl()
		if cnp == nil || cnp.Kind != packet.KindCNP || cnp.Dst != 1 || ep.PopCtrl() != nil {
			t.Fatal("one CNP per interval")
		}
		if want := map[bool]packet.Tag{false: packet.TagNonDCP, true: packet.TagAck}[dcp]; cnp.Tag != want {
			t.Fatalf("CNP tag %v, want %v", cnp.Tag, want)
		}
	}
}

func TestEndpointHOPolicies(t *testing.T) {
	for _, pol := range []HOPolicy{HOIgnore, HOBounce, HOReceive} {
		eng := sim.NewEngine(1)
		ep, pr := newProbeEndpoint(eng, Scheme{Name: "probe", HO: pol})
		ho := testPkts.Data(1, 1, 0, 4, 0, 100)
		ho.Trim()
		ep.Handle(ho)
		bounced := ep.PopCtrl()
		if (bounced != nil) != (pol == HOBounce) || (pr.rx == 1) != (pol == HOReceive) {
			t.Fatalf("policy %d: bounced=%v received=%d", pol, bounced != nil, pr.rx)
		}
		if bounced != nil && (!bounced.Echoed || bounced.Dst != 1) {
			t.Fatal("bounce must echo the header back to its sender")
		}
		if ho.Released() != (pol != HOBounce) {
			t.Fatalf("policy %d: header released = %v; only a bounced header travels on", pol, ho.Released())
		}
	}
}

func TestStackDelayDefersArrivals(t *testing.T) {
	eng := sim.NewEngine(1)
	ep, pr := newProbeEndpoint(eng, Scheme{Name: "probe", StackDelay: units.Microsecond})
	ep.Handle(testPkts.Data(1, 1, 0, 0, 0, 100))
	if pr.rx != 0 {
		t.Fatal("arrival processed before the stack delay")
	}
	eng.Run(units.Millisecond)
	if pr.rx != 1 {
		t.Fatal("arrival lost")
	}
}

func TestReorderAccept(t *testing.T) {
	ep, _ := newProbeEndpoint(sim.NewEngine(1), Scheme{Name: "probe"})
	first := testPkts.Data(1, 1, 0, 2, 0, 100)
	first.MsgLen = 3
	r := NewReorder(ep, first)
	for i, c := range []struct {
		psn  uint32
		new  bool
		epsn uint32
	}{{2, true, 0}, {2, false, 0}, {0, true, 1}, {1, true, 3}, {0, false, 3}} {
		p := testPkts.Data(1, 1, 0, c.psn, 0, 100)
		if got := r.Accept(p); got != c.new || r.EPSN != c.epsn {
			t.Fatalf("step %d: accept(%d) = %v epsn %d", i, c.psn, got, r.EPSN)
		}
	}
	if !r.Done() || r.StateBytes() != 8 {
		t.Fatal("reorder completion")
	}
}
