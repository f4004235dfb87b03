package nic

import (
	"testing"

	"dcpsim/internal/fabric"
	"dcpsim/internal/packet"
	"dcpsim/internal/sim"
	"dcpsim/internal/units"
)

// testPkts builds the packets these tests inject; nothing releases into it.
var testPkts packet.FreeList

// stubTransport is a scripted transport.
type stubTransport struct {
	out      []*packet.Packet
	handled  []*packet.Packet
	dequeues int
}

func (s *stubTransport) Handle(p *packet.Packet) { s.handled = append(s.handled, p) }
func (s *stubTransport) Dequeue(_ units.Time, paused bool) *packet.Packet {
	s.dequeues++
	if paused || len(s.out) == 0 {
		return nil
	}
	p := s.out[0]
	s.out = s.out[1:]
	return p
}

type sinkNode struct{ got []*packet.Packet }

func (s *sinkNode) Receive(p *packet.Packet, _ int) { s.got = append(s.got, p) }
func (s *sinkNode) AddIngress(w *fabric.Wire) int   { return 0 }

func TestNICTransmitsFromTransport(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng, 0, 100*units.Gbps)
	sink := &sinkNode{}
	n.SetUplink(fabric.Attach(eng, units.Microsecond, sink))
	tr := &stubTransport{}
	n.SetTransport(tr)
	for i := 0; i < 5; i++ {
		tr.out = append(tr.out, testPkts.Data(1, 0, 1, uint32(i), 0, 1000))
	}
	n.Kick()
	eng.Run(0)
	if len(sink.got) != 5 {
		t.Fatalf("delivered %d/5", len(sink.got))
	}
	if n.Port().TxPackets != 5 {
		t.Fatal("port counter")
	}
}

func TestNICReceiveForwardsToTransport(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng, 0, 100*units.Gbps)
	tr := &stubTransport{}
	n.SetTransport(tr)
	p := testPkts.Data(1, 1, 0, 0, 0, 100)
	n.Receive(p, 0)
	if len(tr.handled) != 1 || tr.handled[0] != p {
		t.Fatal("packet not handed to transport")
	}
	if n.RxPackets != 1 {
		t.Fatal("rx counter")
	}
	// Without a transport, receive must not crash.
	n2 := New(eng, 1, 100*units.Gbps)
	n2.Receive(p, 0)
}

func TestKickAtCoalesces(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng, 0, 100*units.Gbps)
	sink := &sinkNode{}
	n.SetUplink(fabric.Attach(eng, 0, sink))
	tr := &stubTransport{}
	n.SetTransport(tr)

	n.KickAt(10 * units.Microsecond)
	n.KickAt(20 * units.Microsecond) // later: subsumed by the earlier kick
	n.KickAt(5 * units.Microsecond)  // earlier: replaces
	eng.Run(0)
	// The transport should have been pulled at 5µs (and possibly at 10µs
	// from the replaced event being cancelled — it must be cancelled).
	if eng.Now() != 5*units.Microsecond {
		t.Fatalf("last event at %v, want 5us", eng.Now())
	}
	if tr.dequeues == 0 {
		t.Fatal("kick never pulled")
	}
}

func TestKickAtPastKicksNow(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng, 0, 100*units.Gbps)
	sink := &sinkNode{}
	n.SetUplink(fabric.Attach(eng, 0, sink))
	tr := &stubTransport{out: []*packet.Packet{testPkts.Data(1, 0, 1, 0, 0, 10)}}
	n.SetTransport(tr)
	n.KickAt(0) // not in the future: immediate
	if len(tr.out) != 0 {
		t.Fatal("immediate kick should have dequeued")
	}
}

func TestRetransQFIFOAndBatchLimit(t *testing.T) {
	var q RetransQ
	for i := 0; i < 40; i++ {
		q.Push(RetransEntry{PSN: uint32(i)})
	}
	if q.Len() != 40 || q.Pushed != 40 {
		t.Fatal("len/pushed")
	}
	b := q.FetchBatch(100)
	if len(b) != BatchLimit {
		t.Fatalf("batch capped at %d, got %d", BatchLimit, len(b))
	}
	for i, e := range b {
		if e.PSN != uint32(i) {
			t.Fatal("FIFO order violated")
		}
	}
	b2 := q.FetchBatch(10)
	if len(b2) != 10 || b2[0].PSN != 16 {
		t.Fatal("second batch wrong")
	}
	if q.Len() != 14 {
		t.Fatalf("len after fetches = %d", q.Len())
	}
	q.FetchBatch(100)
	if q.Len() != 0 {
		t.Fatal("drain")
	}
	if q.FetchBatch(5) != nil {
		t.Fatal("empty fetch returns nil")
	}
	if q.Fetched != 40 {
		t.Fatalf("fetched counter = %d", q.Fetched)
	}
}

func TestRetransQReusesStorageAfterDrain(t *testing.T) {
	var q RetransQ
	for round := 0; round < 3; round++ {
		for i := 0; i < 8; i++ {
			q.Push(RetransEntry{PSN: uint32(round*8 + i)})
		}
		b := q.FetchBatch(8)
		if len(b) != 8 || b[0].PSN != uint32(round*8) {
			t.Fatal("round mismatch")
		}
	}
}

func TestDefaultPCIe(t *testing.T) {
	if DefaultPCIe().RTT != units.Microsecond {
		t.Fatal("the paper assumes ~1us PCIe RTT (footnote 9)")
	}
}

// TestRetransQBoundedWhenNeverDrained: a queue that always holds an entry
// must reuse its storage. Before Push compacted the fetched prefix, a
// million push/fetch pairs left a slice of over a million entries.
func TestRetransQBoundedWhenNeverDrained(t *testing.T) {
	var q RetransQ
	q.Push(RetransEntry{PSN: 0})
	for i := 1; i <= 1_000_000; i++ {
		q.Push(RetransEntry{PSN: uint32(i)})
		b := q.FetchBatch(1)
		if len(b) != 1 || b[0].PSN != uint32(i-1) {
			t.Fatalf("fetch %d returned %v", i, b)
		}
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}
	if c := cap(q.entries); c > 64 {
		t.Fatalf("capacity %d after 1M push/fetch pairs with one entry queued, want <= 64", c)
	}
}

// TestRetransQBatchValidUntilPush: the slice FetchBatch returns is intact
// up to the next Push, and a Push that compacts the queue keeps its order.
func TestRetransQBatchValidUntilPush(t *testing.T) {
	var q RetransQ
	for i := 0; i < 40; i++ {
		q.Push(RetransEntry{PSN: uint32(i)})
	}
	q.FetchBatch(BatchLimit)
	b := q.FetchBatch(BatchLimit) // PSNs 16..31; 8 entries left behind 32 fetched
	for i, e := range b {
		if e.PSN != uint32(16+i) {
			t.Fatalf("batch[%d] = %d before the next Push", i, e.PSN)
		}
	}
	q.Push(RetransEntry{PSN: 40})
	got := q.FetchBatch(BatchLimit)
	if len(got) != 9 || got[0].PSN != 32 || got[8].PSN != 40 {
		t.Fatalf("after compaction fetched %v", got)
	}
}
