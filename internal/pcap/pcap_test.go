package pcap

import (
	"bytes"
	"encoding/binary"
	"testing"

	"dcpsim/internal/packet"
	"dcpsim/internal/units"
	"dcpsim/internal/wire"
)

// testPkts builds the packets these tests inject; nothing releases into it.
var testPkts packet.FreeList

// readAll parses the writer's output back with a minimal pcap reader.
func readAll(t *testing.T, buf []byte) [][]byte {
	t.Helper()
	if len(buf) < 24 {
		t.Fatal("missing global header")
	}
	if binary.LittleEndian.Uint32(buf) != magicMicros {
		t.Fatal("bad magic")
	}
	if binary.LittleEndian.Uint32(buf[20:]) != linkEthernet {
		t.Fatal("bad linktype")
	}
	var frames [][]byte
	off := 24
	for off < len(buf) {
		if off+16 > len(buf) {
			t.Fatal("truncated record header")
		}
		capLen := int(binary.LittleEndian.Uint32(buf[off+8:]))
		origLen := int(binary.LittleEndian.Uint32(buf[off+12:]))
		if capLen > origLen || capLen > SnapLen {
			t.Fatalf("caplen %d origlen %d", capLen, origLen)
		}
		off += 16
		if off+capLen > len(buf) {
			t.Fatal("truncated record")
		}
		frames = append(frames, buf[off:off+capLen])
		off += capLen
	}
	return frames
}

func TestWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	data := testPkts.Data(7, 1, 2, 100, 3, 64)
	data.SRetryNo = 2
	w.Record(data, 5*units.Microsecond)

	ho := testPkts.Data(7, 1, 2, 101, 3, 1000)
	ho.Trim()
	w.Record(ho, 6*units.Microsecond)

	ack := testPkts.Ack(7, 2, 1, 55)
	ack.EMSN = 4
	w.Record(ack, 7*units.Microsecond)

	if w.Err() != nil || w.Packets != 3 {
		t.Fatalf("err=%v packets=%d", w.Err(), w.Packets)
	}
	frames := readAll(t, buf.Bytes())
	if len(frames) != 3 {
		t.Fatalf("%d frames", len(frames))
	}

	// Frame 0: a data packet decodable by the wire parser.
	d, err := wire.UnmarshalDataPacket(frames[0])
	if err != nil {
		t.Fatal(err)
	}
	if d.BTH.PSN != 100 || d.MSN != 3 || d.BTH.SRetryNo != 2 {
		t.Fatalf("data fields: %+v", d.BTH)
	}
	if d.IP.Tag != wire.TagData {
		t.Fatal("data tag")
	}

	// Frame 1: the HO packet is exactly 57 bytes with tag 11.
	if len(frames[1]) != wire.HOSize {
		t.Fatalf("HO frame %d bytes", len(frames[1]))
	}
	h, err := wire.UnmarshalDataPacket(frames[1])
	if err != nil {
		t.Fatal(err)
	}
	if !h.IsHO() || h.BTH.PSN != 101 {
		t.Fatal("HO decode")
	}

	// Frame 2: the ACK carries the eMSN.
	a, err := wire.UnmarshalAckPacket(frames[2])
	if err != nil {
		t.Fatal(err)
	}
	if a.AETH.MSN != 4 || a.BTH.PSN != 55 {
		t.Fatalf("ack fields: %+v", a)
	}
}

func TestSnapLenTruncation(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	big := testPkts.Data(1, 1, 2, 0, 0, 1000) // 1073-byte frame
	w.Record(big, 0)
	frames := readAll(t, buf.Bytes())
	if len(frames[0]) != SnapLen {
		t.Fatalf("expected snaplen truncation, got %d", len(frames[0]))
	}
}

func TestAddrDerivation(t *testing.T) {
	if addrFor(0x0102) != [4]byte{10, 0, 1, 2} {
		t.Fatal("addr mapping")
	}
	p := testPkts.Data(5, 3, 4, 0, 0, 10)
	e := Encode(p)
	d, err := wire.UnmarshalDataPacket(e)
	if err != nil {
		t.Fatal(err)
	}
	if d.IP.Src != addrFor(3) || d.IP.Dst != addrFor(4) {
		t.Fatal("IP addresses")
	}
}

func TestStableSrcPortPerFlow(t *testing.T) {
	a := testPkts.Data(42, 0, 1, 0, 0, 10)
	b := testPkts.Data(42, 0, 1, 9, 0, 10)
	pa, _ := wire.UnmarshalDataPacket(Encode(a))
	pb, _ := wire.UnmarshalDataPacket(Encode(b))
	if pa.UDP.SrcPort != pb.UDP.SrcPort {
		t.Fatal("same flow must keep its UDP source port")
	}
	c := testPkts.Data(43, 0, 1, 0, 0, 10)
	pc, _ := wire.UnmarshalDataPacket(Encode(c))
	if pc.UDP.SrcPort == pa.UDP.SrcPort {
		t.Fatal("different flows should (almost surely) differ")
	}
	// MP-RDMA virtual paths change the entropy.
	d := testPkts.Data(42, 0, 1, 0, 0, 10)
	d.PathKey = 3
	pd, _ := wire.UnmarshalDataPacket(Encode(d))
	if pd.UDP.SrcPort == pa.UDP.SrcPort {
		t.Fatal("path key must change the source port")
	}
}

func TestCNPEncodesAsAck(t *testing.T) {
	cnp := &packet.Packet{Kind: packet.KindCNP, Tag: packet.TagAck, FlowID: 1, Src: 1, Dst: 2, Size: 57}
	if _, err := wire.UnmarshalAckPacket(Encode(cnp)); err != nil {
		t.Fatal(err)
	}
}
