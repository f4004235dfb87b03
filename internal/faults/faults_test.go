package faults_test

import (
	"reflect"
	"strings"
	"testing"

	"dcpsim/internal/faults"
	"dcpsim/internal/packet"
	"dcpsim/internal/sim"
	"dcpsim/internal/topo"
	"dcpsim/internal/units"
)

// testPkts builds the packets these tests inject; nothing releases into it.
var testPkts packet.FreeList

func tinyNet(eng *sim.Engine) *topo.Network {
	cfg := topo.DefaultDumbbell()
	cfg.HostsPerSwitch = 1
	cfg.CrossLinks = 2
	return topo.Dumbbell(eng, cfg)
}

func TestPlanSeedDeterminism(t *testing.T) {
	build := func(seed int64) []faults.Event {
		return faults.NewPlan(seed).
			LossBursts("cross0", 0, units.Millisecond, 5, 2, 10).
			LinkFlap("cross1", units.Microsecond, 10*units.Microsecond, 0.5, 3).
			Events()
	}
	if !reflect.DeepEqual(build(7), build(7)) {
		t.Fatal("same seed produced different plans")
	}
	if reflect.DeepEqual(build(7), build(8)) {
		t.Fatal("different seeds produced identical burst placement")
	}
}

func TestPlanSortedAndHorizon(t *testing.T) {
	p := faults.NewPlan(1).
		Add(faults.Event{At: 30, Kind: faults.LinkUp, Link: "a"}).
		Add(faults.Event{At: 10, Kind: faults.LinkDown, Link: "a"}).
		Add(faults.Event{At: 20, Kind: faults.LinkLoss, Link: "a", Rate: 0.1})
	evs := p.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("events not sorted: %v", evs)
		}
	}
	if p.Horizon() != 30 {
		t.Fatalf("horizon = %v, want 30", p.Horizon())
	}
}

func TestInjectValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	net := tinyNet(eng)
	if _, err := net.Inject(faults.NewPlan(1).LinkDownFor("nosuch", 0, units.Microsecond)); err == nil || !strings.Contains(err.Error(), "unknown link") {
		t.Fatalf("unknown link not rejected: %v", err)
	}
	if _, err := net.Inject(faults.NewPlan(1).Blackout(99, 0, units.Microsecond)); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("bad switch index not rejected: %v", err)
	}
	eng.At(units.Microsecond, func() {})
	eng.Run(units.Microsecond)
	if _, err := net.Inject(faults.NewPlan(1).LinkDownFor("cross0", 0, units.Microsecond)); err == nil || !strings.Contains(err.Error(), "past") {
		t.Fatalf("past event not rejected: %v", err)
	}
}

func TestAdminDownDropsSilently(t *testing.T) {
	eng := sim.NewEngine(1)
	net := tinyNet(eng)
	w := net.LinkEnds("cross0")[0].Wire
	w.SetAdminDown(true)
	if !w.AdminDown() {
		t.Fatal("AdminDown not set")
	}
	p := testPkts.Data(1, 0, 1, 0, 0, 1000)
	w.Deliver(p)
	if w.FaultDrops != 1 || w.Delivered != 0 {
		t.Fatalf("FaultDrops=%d Delivered=%d, want 1/0", w.FaultDrops, w.Delivered)
	}
	w.SetAdminDown(false)
	w.Deliver(p)
	if w.FaultDrops != 1 || w.Delivered != 1 {
		t.Fatalf("after restore FaultDrops=%d Delivered=%d, want 1/1", w.FaultDrops, w.Delivered)
	}
}

func TestBurstAndLossRateDrops(t *testing.T) {
	eng := sim.NewEngine(1)
	net := tinyNet(eng)
	w := net.LinkEnds("cross0")[0].Wire
	p := testPkts.Data(1, 0, 1, 0, 0, 1000)
	w.InjectBurst(3)
	for i := 0; i < 5; i++ {
		w.Deliver(p)
	}
	if w.FaultDrops != 3 || w.Delivered != 2 {
		t.Fatalf("burst: FaultDrops=%d Delivered=%d, want 3/2", w.FaultDrops, w.Delivered)
	}
	w.SetLossRate(1)
	w.Deliver(p)
	if w.FaultDrops != 4 {
		t.Fatalf("lossRate=1 did not drop (FaultDrops=%d)", w.FaultDrops)
	}
	w.SetLossRate(0)
	w.Deliver(p)
	if w.Delivered != 3 {
		t.Fatalf("lossRate=0 did not deliver (Delivered=%d)", w.Delivered)
	}
}

func TestInjectorAppliesEvents(t *testing.T) {
	eng := sim.NewEngine(1)
	net := tinyNet(eng)
	us := units.Microsecond
	plan := faults.NewPlan(1).
		LinkDownFor("cross0", 1*us, 2*us).
		PauseStorm("cross1", 1*us, 2*us, 0, 1).
		Blackout(0, 1*us, 2*us)
	in, err := net.Inject(plan)
	if err != nil {
		t.Fatal(err)
	}
	ends := net.LinkEnds("cross0")
	eng.Run(2 * us) // mid-fault
	for _, e := range ends {
		if !e.Wire.AdminDown() {
			t.Fatal("cross0 wire not admin-down mid-fault")
		}
		if e.Switch != nil && !e.Switch.EgressAt(e.Egress).LinkDown() {
			t.Fatal("cross0 egress not marked down mid-fault")
		}
	}
	for _, e := range net.LinkEnds("cross1") {
		if src := e.Wire.Src(); src == nil || !src.ForcedPause() {
			t.Fatal("cross1 feeding port not force-paused mid-storm")
		}
	}
	if !net.Switches[0].Blackout() {
		t.Fatal("switch 0 not blacked out mid-fault")
	}
	// A packet arriving at a blacked-out switch vanishes.
	net.Switches[0].Receive(testPkts.Data(1, 0, 1, 0, 0, 1000), 0)
	if net.Switches[0].Counters.BlackoutDrops != 1 {
		t.Fatalf("BlackoutDrops=%d, want 1", net.Switches[0].Counters.BlackoutDrops)
	}
	eng.Run(4 * us) // past recovery
	for _, e := range ends {
		if e.Wire.AdminDown() {
			t.Fatal("cross0 wire still down after recovery")
		}
	}
	for _, e := range net.LinkEnds("cross1") {
		if e.Wire.Src().ForcedPause() {
			t.Fatal("cross1 port still paused after storm")
		}
	}
	if net.Switches[0].Blackout() {
		t.Fatal("switch 0 still blacked out after reboot")
	}
	if in.Fired != 6 {
		t.Fatalf("Fired=%d, want 6", in.Fired)
	}
}
