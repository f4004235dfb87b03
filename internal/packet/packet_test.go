package packet

import (
	"reflect"
	"testing"
)

// testPkts builds the packets these tests inspect.
var testPkts FreeList

func TestDataPacketSizes(t *testing.T) {
	p := testPkts.Data(1, 2, 3, 10, 1, 1000)
	if p.Size != DataHeaderSize+RETHSize+1000 {
		t.Fatalf("size = %d", p.Size)
	}
	if p.Kind != KindData || p.Tag != TagData {
		t.Fatalf("kind/tag wrong: %v %v", p.Kind, p.Tag)
	}
	if p.PayloadBytes != 1000 || p.PSN != 10 || p.MSN != 1 {
		t.Fatal("fields not carried")
	}
}

func TestTrimMatchesPaperHOSize(t *testing.T) {
	p := testPkts.Data(1, 2, 3, 10, 1, 1000)
	p.Trim()
	if p.Size != 57 {
		t.Fatalf("HO packet must be 57 bytes (footnote 6), got %d", p.Size)
	}
	if p.Kind != KindHO || p.Tag != TagHO {
		t.Fatalf("trim must retag to HO: %v %v", p.Kind, p.Tag)
	}
	if p.PayloadBytes != 0 || !p.Trimmed {
		t.Fatal("payload must be removed and Trimmed set")
	}
	// Sequencing metadata survives trimming — that is the whole point.
	if p.PSN != 10 || p.MSN != 1 {
		t.Fatal("PSN/MSN must survive trimming")
	}
}

func TestBounceSwapsEndpoints(t *testing.T) {
	p := testPkts.Data(1, 2, 3, 10, 1, 1000)
	p.SrcQP, p.DstQP = 100, 200
	p.Hops = 3
	p.Trim()
	p.Bounce()
	if p.Src != 3 || p.Dst != 2 {
		t.Fatalf("bounce did not swap src/dst: %d->%d", p.Src, p.Dst)
	}
	if p.SrcQP != 200 || p.DstQP != 100 {
		t.Fatal("bounce did not swap QPNs")
	}
	if !p.Echoed {
		t.Fatal("bounce must mark Echoed")
	}
	if p.Hops != 0 {
		t.Fatal("bounce must reset hop count")
	}
}

func TestAckPacket(t *testing.T) {
	a := testPkts.Ack(7, 3, 2, 55)
	if a.Kind != KindAck || a.Tag != TagAck || a.EPSN != 55 || a.Size != AckSize {
		t.Fatalf("bad ack: %+v", a)
	}
}

func TestIsControl(t *testing.T) {
	d := testPkts.Data(1, 2, 3, 0, 0, 100)
	if d.IsControl() {
		t.Fatal("data is not control")
	}
	d.Trim()
	if !d.IsControl() {
		t.Fatal("HO packets are control plane")
	}
}

func TestKindAndTagStrings(t *testing.T) {
	if KindData.String() != "DATA" || KindHO.String() != "HO" || Kind(99).String() == "" {
		t.Fatal("kind strings")
	}
	if TagHO.String() != "dcp-ho" || TagNonDCP.String() != "non-dcp" || Tag(9).String() == "" {
		t.Fatal("tag strings")
	}
	p := testPkts.Data(1, 2, 3, 4, 5, 6)
	if p.String() == "" {
		t.Fatal("packet String empty")
	}
}

// TestFreeListReuse: a builder takes the most recently released packet and
// resets every field of it.
func TestFreeListReuse(t *testing.T) {
	var l FreeList
	d := l.Data(1, 2, 3, 10, 1, 1000)
	d.SackBlob = []byte{1, 2}
	d.ECN, d.Echoed, d.Hops, d.BufIngress = true, true, 3, 5
	d.Trim()
	l.Release(d)
	if !d.Released() {
		t.Fatal("release must mark the packet")
	}
	a := l.Ack(7, 3, 2, 55)
	if a != d {
		t.Fatal("the builder must reuse the released packet")
	}
	want := Packet{Kind: KindAck, Tag: TagAck, FlowID: 7, Src: 3, Dst: 2, EPSN: 55, Size: AckSize}
	if !reflect.DeepEqual(*a, want) {
		t.Fatalf("reused packet = %+v, want %+v", *a, want)
	}
	if c := l.CNP(7, 3, 2); c == a || c.Kind != KindCNP || c.Size != CNPSize {
		t.Fatalf("an empty list must allocate a fresh packet: %+v", *c)
	}
}

func TestReleaseTwicePanics(t *testing.T) {
	var l FreeList
	p := l.Data(1, 2, 3, 10, 1, 1000)
	l.Release(p)
	defer func() {
		if recover() == nil {
			t.Fatal("releasing a packet twice must panic")
		}
		if l.Data(1, 2, 3, 0, 0, 0) != p || l.Data(1, 2, 3, 0, 0, 0) == p {
			t.Fatal("a refused second release must leave the packet on the list once")
		}
	}()
	l.Release(p)
}

func TestDCPTagValues(t *testing.T) {
	// §4.2 tag assignments are load-bearing for switch dispatch.
	if TagNonDCP != 0b00 || TagAck != 0b01 || TagData != 0b10 || TagHO != 0b11 {
		t.Fatal("DCP tag values must match the paper")
	}
}
