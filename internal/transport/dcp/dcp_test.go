package dcp_test

import (
	"testing"

	"dcpsim/internal/exp"
	"dcpsim/internal/fabric"
	"dcpsim/internal/packet"
	"dcpsim/internal/sim"
	"dcpsim/internal/stats"
	"dcpsim/internal/topo"
	"dcpsim/internal/transport/base"
	"dcpsim/internal/transport/dcp"
	"dcpsim/internal/units"
	"dcpsim/internal/workload"
)

func runOne(t *testing.T, sch exp.Scheme, size int64, mutate func(*fabric.SwitchConfig), tweak func(*base.Env)) (*exp.Sim, *stats.FlowRecord) {
	t.Helper()
	sch.Tweak = tweak
	s := exp.NewSim(7, sch, exp.PairNet(sch, 1, mutate))
	f := &workload.Flow{ID: 1, Src: 0, Dst: 1, Size: size}
	s.ScheduleFlows([]*workload.Flow{f})
	if left := s.Run(20 * units.Second); left != 0 {
		t.Fatalf("flow unfinished at %v", s.Eng.Now())
	}
	return s, s.Col.Flow(1)
}

func TestDeliversAtLineRate(t *testing.T) {
	_, rec := runOne(t, exp.SchemeDCP(false), 20<<20, nil, nil)
	if gp := stats.Goodput(rec.Size, rec.FCT()); gp < 85 {
		t.Fatalf("goodput %.1f Gbps", gp)
	}
	if rec.RetransPkts != 0 || rec.Timeouts != 0 {
		t.Fatal("clean run must not retransmit")
	}
}

func TestHOPathRecoversWithoutTimeouts(t *testing.T) {
	s, rec := runOne(t, exp.SchemeDCP(false), 20<<20,
		func(c *fabric.SwitchConfig) { c.LossRate = 0.02 }, nil)
	if rec.Timeouts != 0 {
		t.Fatalf("HO-based recovery must avoid RTOs, saw %d", rec.Timeouts)
	}
	if rec.RetransPkts == 0 || rec.HOTriggers == 0 {
		t.Fatal("loss must be repaired via bounced HO packets")
	}
	c := s.Net.Counters()
	if c.TrimmedPkts == 0 {
		t.Fatal("forced loss must trim DCP data")
	}
	// Every retransmission was named by an HO notification.
	if rec.RetransPkts > rec.HOTriggers {
		t.Fatalf("retrans=%d > HO=%d: unsolicited retransmissions", rec.RetransPkts, rec.HOTriggers)
	}
	if gp := stats.Goodput(rec.Size, rec.FCT()); gp < 60 {
		t.Fatalf("goodput %.1f Gbps under 2%% loss", gp)
	}
}

func TestExactlyOnceAccounting(t *testing.T) {
	// The receiver must see every message exactly complete: eMSN reaches
	// the message count and no tracking state is left behind.
	sch := exp.SchemeDCP(false)
	s := exp.NewSim(7, sch, exp.PairNet(sch, 1, func(c *fabric.SwitchConfig) { c.LossRate = 0.01 }))
	size := int64(12 << 20)
	s.ScheduleFlows([]*workload.Flow{{ID: 1, Src: 0, Dst: 1, Size: size}})
	if left := s.Run(10 * units.Second); left != 0 {
		t.Fatal("unfinished")
	}
	eMSN, tracked, ok := dcp.RecvState(s.Net.Transports[1], 1)
	if !ok {
		t.Fatal("no receiver state")
	}
	msgs := len(base.Messages(size, s.Env.MessageSize))
	if eMSN != uint32(msgs) {
		t.Fatalf("eMSN=%d, want %d", eMSN, msgs)
	}
	if tracked != 0 {
		t.Fatalf("%d message trackers leaked", tracked)
	}
	una, rq, _ := dcp.SenderState(s.Net.Transports[0], 1)
	if una != uint32(msgs) || rq != 0 {
		t.Fatalf("sender state: una=%d rq=%d", una, rq)
	}
}

func TestTimeoutFallbackWhenControlPlaneFails(t *testing.T) {
	// Kill the control plane entirely: every HO packet is dropped, so only
	// the coarse timeout (with sRetryNo epochs) can recover.
	sch := exp.SchemeDCP(false)
	s, rec := runOne(t, sch, 2<<20,
		func(c *fabric.SwitchConfig) {
			c.LossRate = 0.01
			c.CtrlQueueCap = 0 // lossless-CP assumption violated
		},
		func(e *base.Env) { e.DCP.Timeout = 500 * units.Microsecond })
	if rec.Timeouts == 0 {
		t.Fatal("with a dead control plane recovery must come from timeouts")
	}
	if rec.HOTriggers != 0 {
		t.Fatal("no HO should survive a zero-capacity control queue")
	}
	c := s.Net.Counters()
	if c.DroppedHO == 0 {
		t.Fatal("HO drops must be accounted")
	}
}

func TestOrderTolerantReceptionUnderSpray(t *testing.T) {
	// Per-packet spraying reorders heavily; DCP must neither retransmit
	// nor time out (R2).
	sch := exp.SchemeDCP(false)
	sch.LB = fabric.LBSpray
	s := exp.NewSim(7, sch, exp.PairNet(sch, 8, nil)) // eight parallel paths
	s.ScheduleFlows([]*workload.Flow{{ID: 1, Src: 0, Dst: 1, Size: 20 << 20}})
	if left := s.Run(5 * units.Second); left != 0 {
		t.Fatal("unfinished")
	}
	rec := s.Col.Flow(1)
	if rec.RetransPkts != 0 || rec.Timeouts != 0 {
		t.Fatalf("spraying must not cause retransmissions: retrans=%d timeouts=%d",
			rec.RetransPkts, rec.Timeouts)
	}
}

func TestReceiverBitmapAblationEquivalent(t *testing.T) {
	// §4.5 orthogonality: swapping counters for a receiver bitmap leaves
	// behaviour identical.
	_, recCounters := runOne(t, exp.SchemeDCP(false), 8<<20,
		func(c *fabric.SwitchConfig) { c.LossRate = 0.01 }, nil)
	_, recBitmap := runOne(t, exp.SchemeDCP(false), 8<<20,
		func(c *fabric.SwitchConfig) { c.LossRate = 0.01 },
		func(e *base.Env) { e.DCP.ReceiverBitmap = true })
	if recCounters.FCT() != recBitmap.FCT() {
		t.Fatalf("tracking mode changed behaviour: %v vs %v",
			recCounters.FCT(), recBitmap.FCT())
	}
	if recCounters.RetransPkts != recBitmap.RetransPkts {
		t.Fatal("retransmission counts must match")
	}
}

func TestPerHOFetchSlower(t *testing.T) {
	// Challenge #1: fetching per-HO across PCIe throttles loss recovery.
	_, batched := runOne(t, exp.SchemeDCP(false), 20<<20,
		func(c *fabric.SwitchConfig) { c.LossRate = 0.05 }, nil)
	_, perHO := runOne(t, exp.SchemeDCP(false), 20<<20,
		func(c *fabric.SwitchConfig) { c.LossRate = 0.05 },
		func(e *base.Env) { e.DCP.PerHOFetch = true })
	if perHO.FCT() <= batched.FCT() {
		t.Fatalf("per-HO fetch should be slower: %v vs %v", perHO.FCT(), batched.FCT())
	}
}

func TestMessageSegmentation(t *testing.T) {
	// A multi-message flow respects the outstanding-message cap and still
	// completes (eMSN advances in order).
	sch := exp.SchemeDCP(false)
	_, rec := runOne(t, sch, 64<<20, nil,
		func(e *base.Env) {
			e.MessageSize = 1 << 20
			e.DCP.MaxOutstandingMsgs = 2
		})
	if rec.DataPkts != 64<<20/1000+1 && rec.DataPkts < 64000 {
		t.Fatalf("data packets = %d", rec.DataPkts)
	}
}

func TestSmallMessages(t *testing.T) {
	// Single-packet and sub-MTU flows.
	for _, size := range []int64{1, 64, 999, 1000, 1001} {
		sch := exp.SchemeDCP(false)
		s := exp.NewSim(7, sch, exp.PairNet(sch, 1, nil))
		s.ScheduleFlows([]*workload.Flow{{ID: 1, Src: 0, Dst: 1, Size: size}})
		if left := s.Run(units.Second); left != 0 {
			t.Fatalf("size %d unfinished", size)
		}
	}
}

func TestManyConcurrentFlows(t *testing.T) {
	// Both directions, several QPs per host, all complete.
	sch := exp.SchemeDCP(false)
	s := exp.NewSim(7, sch, exp.PairNet(sch, 1, func(c *fabric.SwitchConfig) { c.LossRate = 0.005 }))
	var flows []*workload.Flow
	for i := uint64(0); i < 10; i++ {
		src, dst := 0, 1
		if i%2 == 1 {
			src, dst = 1, 0
		}
		flows = append(flows, &workload.Flow{
			ID: i + 1, Src: packet.NodeID(src), Dst: packet.NodeID(dst), Size: 2 << 20,
			Start: units.Time(i) * 10 * units.Microsecond,
		})
	}
	s.ScheduleFlows(flows)
	if left := s.Run(10 * units.Second); left != 0 {
		t.Fatalf("%d flows unfinished", left)
	}
	for _, f := range s.Col.Flows() {
		if f.Timeouts != 0 {
			t.Fatalf("flow %d timed out", f.ID)
		}
	}
}

// TestExactlyOncePropertyAcrossSeeds drives DCP through many random loss
// patterns and checks the §4.5 invariants every time: the flow completes,
// recovery never needs more retransmissions than loss notifications, and
// the receiver's tracking state fully drains.
func TestExactlyOncePropertyAcrossSeeds(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		sch := exp.SchemeDCP(false)
		s := exp.NewSim(seed, sch, exp.PairNet(sch, 1, func(c *fabric.SwitchConfig) {
			c.LossRate = 0.01 + float64(seed)*0.004
		}))
		size := int64(3 << 20)
		s.ScheduleFlows([]*workload.Flow{{ID: 1, Src: 0, Dst: 1, Size: size}})
		if left := s.Run(30 * units.Second); left != 0 {
			t.Fatalf("seed %d: unfinished", seed)
		}
		rec := s.Col.Flow(1)
		if rec.RetransPkts > rec.HOTriggers+rec.Timeouts*4096 {
			t.Fatalf("seed %d: unsolicited retransmissions", seed)
		}
		if _, tracked, _ := dcp.RecvState(s.Net.Transports[1], 1); tracked != 0 {
			t.Fatalf("seed %d: %d trackers leaked", seed, tracked)
		}
	}
}

// TestDCQCNIntegration runs DCP+CC through a congested hop and checks that
// ECN marks translate into CNPs that actually reduce the sending rate
// (§4.3's decoupled CC contract).
func TestDCQCNIntegration(t *testing.T) {
	sch := exp.SchemeDCP(true)
	s := exp.NewSim(7, sch, func(eng *sim.Engine) *topo.Network {
		cfg := topo.DefaultDumbbell()
		cfg.HostsPerSwitch = 4
		cfg.CrossLinks = 1 // 4 senders share one 100G cross link
		cfg.Switch = exp.SwitchConfigFor(sch)
		return topo.Dumbbell(eng, cfg)
	})
	var flows []*workload.Flow
	for i := uint64(0); i < 4; i++ {
		flows = append(flows, &workload.Flow{
			ID: i + 1, Src: packet.NodeID(i), Dst: packet.NodeID(4 + i), Size: 8 << 20,
		})
	}
	s.ScheduleFlows(flows)
	if left := s.Run(10 * units.Second); left != 0 {
		t.Fatalf("%d unfinished", left)
	}
	c := s.Net.Counters()
	if c.ECNMarked == 0 {
		t.Fatal("congestion must mark ECN for DCQCN")
	}
	// DCQCN keeps the shared queue in the ECN band rather than the trim
	// band: trims should be rare relative to the 32k packets sent.
	if c.TrimmedPkts > 2000 {
		t.Fatalf("DCQCN failed to contain the queue: %d trims", c.TrimmedPkts)
	}
}

// TestBounceStateless verifies the receiver bounces HO packets for flows it
// has never seen data from (the bounce must not require receiver QP state).
func TestBounceStateless(t *testing.T) {
	sch := exp.SchemeDCP(false)
	s := exp.NewSim(7, sch, exp.PairNet(sch, 1, func(c *fabric.SwitchConfig) {
		c.TrimThreshold = 1 // trim everything beyond the wire
	}))
	s.ScheduleFlows([]*workload.Flow{{ID: 1, Src: 0, Dst: 1, Size: 64 << 10}})
	if left := s.Run(10 * units.Second); left != 0 {
		t.Fatal("unfinished — first-packet trims must still recover")
	}
}
