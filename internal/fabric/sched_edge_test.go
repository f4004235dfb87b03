package fabric

import (
	"testing"

	"dcpsim/internal/packet"
)

// dataPkt is shared with fabric_test.go.

func edgeCtrlPkt() *packet.Packet {
	p := testPkts.Data(1, 0, 1, 0, 0, 0)
	p.Trim()
	return p
}

// Zero or negative WRR weight must degrade to 1:1, not a zero quantum that
// starves the control queue forever.
func TestDRRZeroWeightDefaultsToOne(t *testing.T) {
	for _, w := range []float64{0, -3} {
		s := newDRRScheduler(w)
		if s.ctrlQ != drrBaseQuantum {
			t.Fatalf("weight %v: ctrl quantum %d, want %d", w, s.ctrlQ, drrBaseQuantum)
		}
		s.pushCtrl(edgeCtrlPkt())
		s.pushData(dataPkt(1000))
		if p := s.Next(false); p == nil || !p.IsControl() {
			t.Fatalf("weight %v: control packet not served first", w)
		}
	}
}

// An empty control queue must never stall data (and vice versa): the
// deficit loop has to terminate by serving the sole backlogged queue.
func TestDRRSingleQueueDegenerate(t *testing.T) {
	s := newDRRScheduler(2)
	for i := 0; i < 3; i++ {
		s.pushData(dataPkt(1500))
	}
	for i := 0; i < 3; i++ {
		if p := s.Next(false); p == nil || p.IsControl() {
			t.Fatal("data-only backlog not drained")
		}
	}
	if s.Next(false) != nil {
		t.Fatal("empty scheduler returned a packet")
	}
	for i := 0; i < 3; i++ {
		s.pushCtrl(edgeCtrlPkt())
	}
	for i := 0; i < 3; i++ {
		if p := s.Next(false); p == nil || !p.IsControl() {
			t.Fatal("control-only backlog not drained")
		}
	}
}

// With data paused, a DRR port may only emit control packets, and the data
// deficit must not bank credit while paused.
func TestDRRPausedDataBanksNoCredit(t *testing.T) {
	s := newDRRScheduler(1)
	s.pushData(dataPkt(1500))
	for i := 0; i < 4; i++ {
		s.pushCtrl(edgeCtrlPkt())
	}
	for i := 0; i < 4; i++ {
		if p := s.Next(true); p == nil || !p.IsControl() {
			t.Fatal("paused scheduler must serve control only")
		}
	}
	if s.dataDef != 0 {
		t.Fatalf("paused data queue banked %d bytes of deficit", s.dataDef)
	}
	if p := s.Next(false); p == nil || p.IsControl() {
		t.Fatal("unpaused data packet not served")
	}
}

// drain must return every queued packet, control first, and reset deficits
// so a revived port starts a clean round.
func TestDRRDrainReturnsEverythingCtrlFirst(t *testing.T) {
	s := newDRRScheduler(2)
	for i := 0; i < 2; i++ {
		s.pushCtrl(edgeCtrlPkt())
	}
	for i := 0; i < 3; i++ {
		s.pushData(dataPkt(1000))
	}
	s.Next(false) // start a round so deficits are nonzero
	out := s.drain()
	if len(out) != 4 { // Next consumed one of the five
		t.Fatalf("drain returned %d packets, want 4", len(out))
	}
	if !out[0].IsControl() {
		t.Fatal("drain must return control packets first")
	}
	if s.Backlog() != 0 {
		t.Fatalf("backlog %d after drain, want 0", s.Backlog())
	}
	if s.ctrlDef != 0 || s.dataDef != 0 {
		t.Fatal("drain must reset deficit counters")
	}
	if s.Next(false) != nil {
		t.Fatal("drained scheduler returned a packet")
	}
}

func TestPrioDrainReturnsEverything(t *testing.T) {
	s := &prioScheduler{}
	s.pushData(dataPkt(1000))
	s.pushCtrl(edgeCtrlPkt())
	out := s.drain()
	if len(out) != 2 || !out[0].IsControl() {
		t.Fatalf("prio drain = %d packets (ctrl-first=%v), want 2 ctrl-first", len(out), len(out) > 0 && out[0].IsControl())
	}
	if s.Backlog() != 0 {
		t.Fatal("backlog after prio drain")
	}
}

// WRRWeight clamps: an infeasible ratio (r <= N-1) returns maxW, and the
// weight never drops below 0.1.
func TestWRRWeightClamps(t *testing.T) {
	if w := WRRWeight(64, 28, 8); w != 8 {
		t.Fatalf("infeasible ratio: weight %v, want maxW 8", w)
	}
	if w := WRRWeight(2, 1000, 8); w != 0.1 {
		t.Fatalf("tiny weight not floored: %v, want 0.1", w)
	}
	if w := WRRWeight(16, 28, 8); w <= 0.1 || w >= 8 {
		t.Fatalf("feasible ratio clamped: %v", w)
	}
}

// TestFIFOBoundedWhenNeverDrained: a queue that always holds a packet must
// reuse its storage. Before pop compacted the popped prefix, a million
// push/pop pairs left a slice of over a million entries.
func TestFIFOBoundedWhenNeverDrained(t *testing.T) {
	var q fifoQueue
	pkts := [2]*packet.Packet{edgeCtrlPkt(), edgeCtrlPkt()}
	q.push(pkts[0])
	for i := 1; i <= 1_000_000; i++ {
		q.push(pkts[i%2])
		if got := q.pop(); got != pkts[(i-1)%2] {
			t.Fatalf("pop %d out of order", i)
		}
	}
	if q.len() != 1 || q.byteLen() != pkts[0].Size {
		t.Fatalf("len %d bytes %d, want one packet", q.len(), q.byteLen())
	}
	if c := cap(q.pkts); c > 64 {
		t.Fatalf("capacity %d after 1M push/pop pairs with one packet queued, want <= 64", c)
	}
}

// TestFIFOCompactionKeepsOrder: compaction moves live packets to the front
// without reordering or losing any, across a queue that grows and shrinks.
func TestFIFOCompactionKeepsOrder(t *testing.T) {
	var q fifoQueue
	pkts := make([]*packet.Packet, 300)
	for i := range pkts {
		pkts[i] = edgeCtrlPkt()
	}
	in, out := 0, 0
	for _, burst := range []int{5, 100, 3, 50, 1, 80, 60} {
		for k := 0; k < burst && in < len(pkts); k++ {
			q.push(pkts[in])
			in++
		}
		for k := 0; k < burst*2/3 && !q.empty(); k++ {
			if q.pop() != pkts[out] {
				t.Fatalf("pop %d out of order", out)
			}
			out++
		}
	}
	for !q.empty() {
		if q.pop() != pkts[out] {
			t.Fatalf("pop %d out of order", out)
		}
		out++
	}
	if out != in || q.pop() != nil {
		t.Fatalf("popped %d of %d pushed", out, in)
	}
}
