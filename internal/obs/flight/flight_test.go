package flight_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"dcpsim/internal/exp"
	"dcpsim/internal/faults"
	"dcpsim/internal/nic"
	"dcpsim/internal/obs"
	"dcpsim/internal/obs/flight"
	"dcpsim/internal/packet"
	"dcpsim/internal/sim"
	"dcpsim/internal/topo"
	"dcpsim/internal/transport/base"
	"dcpsim/internal/units"
	"dcpsim/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

func us(f float64) units.Time { return units.Scale(units.Microsecond, f) }

// findViolation returns the first retained violation of the given invariant
// or fails the test.
func findViolation(t *testing.T, r *flight.Report, inv string) *flight.Violation {
	t.Helper()
	for i := range r.Violations {
		if r.Violations[i].Invariant == inv {
			return &r.Violations[i]
		}
	}
	t.Fatalf("no %s violation; report has %d retained violations", inv, len(r.Violations))
	return nil
}

func hasStage(r *flight.Report, name string) *flight.StageLat {
	for i := range r.Stages {
		if r.Stages[i].Name == name {
			return &r.Stages[i]
		}
	}
	return nil
}

// placeAux packs EvPlace's Aux: (epoch << 32) | receiver counter after the
// placement.
func placeAux(epoch, counter int64) int64 { return epoch<<32 | counter }

// TestSyntheticCleanRun drives a hand-written two-packet message through
// the checker: no violations, and the clean-delivery stage is sampled.
func TestSyntheticCleanRun(t *testing.T) {
	c := flight.New(flight.Config{})
	evs := []obs.Event{
		{At: us(0), Type: obs.EvFlowStart, Node: 0, Flow: 1, Aux: 8192},
		{At: us(1), Type: obs.EvSend, Node: 0, Flow: 1, PSN: 0, MSN: 0},
		{At: us(1.1), Type: obs.EvSend, Node: 0, Flow: 1, PSN: 1, MSN: 0},
		{At: us(3), Type: obs.EvDeliver, Node: 1, Flow: 1, PSN: 0, MSN: 0},
		{At: us(3), Type: obs.EvPlace, Node: 1, Flow: 1, PSN: 0, MSN: 0, Aux: placeAux(0, 1)},
		{At: us(3.2), Type: obs.EvDeliver, Node: 1, Flow: 1, PSN: 1, MSN: 0},
		{At: us(3.2), Type: obs.EvPlace, Node: 1, Flow: 1, PSN: 1, MSN: 0, Aux: placeAux(0, 2)},
		{At: us(3.2), Type: obs.EvMsgComplete, Node: 1, Flow: 1, MSN: 0, Aux: 2},
		{At: us(3.2), Type: obs.EvEMSNAdv, Node: 1, Flow: 1, MSN: 1, Aux: 1},
		{At: us(5), Type: obs.EvFlowDone, Node: 0, Flow: 1, Aux: 8192},
	}
	for i := range evs {
		c.OnEvent(&evs[i])
	}
	r := c.Finish()
	if r.TotalViolations != 0 {
		t.Fatalf("clean run reported %d violations: %+v", r.TotalViolations, r.Violations)
	}
	s := hasStage(r, "clean_send_to_deliver")
	if s == nil || s.Count != 2 {
		t.Fatalf("clean stage not sampled twice: %+v", r.Stages)
	}
	if len(r.Flows) != 1 || !r.Flows[0].Done || r.Flows[0].Bytes != 8192 {
		t.Fatalf("flow autopsy wrong: %+v", r.Flows)
	}
}

// TestSyntheticRecoveryChain walks one PSN through the full DCP recovery
// pipeline and checks every stage latency is sampled with the exact
// sim-time deltas.
func TestSyntheticRecoveryChain(t *testing.T) {
	c := flight.New(flight.Config{})
	evs := []obs.Event{
		{At: us(1), Type: obs.EvSend, Node: 0, Flow: 1, PSN: 4, MSN: 0},
		{At: us(2), Type: obs.EvTrim, Node: 2, Flow: 1, PSN: 4, MSN: 0},
		{At: us(3), Type: obs.EvHOBounce, Node: 1, Flow: 1, PSN: 4, MSN: 0},
		{At: us(5), Type: obs.EvHOReturn, Node: 0, Flow: 1, PSN: 4, MSN: 0},
		{At: us(6), Type: obs.EvRQFetch, Node: 0, Flow: 1, PSN: 4, MSN: 0},
		{At: us(7), Type: obs.EvRetransmit, Node: 0, Flow: 1, PSN: 4, MSN: 0, Aux: 0},
		{At: us(9), Type: obs.EvDeliver, Node: 1, Flow: 1, PSN: 4, MSN: 0},
		{At: us(9), Type: obs.EvPlace, Node: 1, Flow: 1, PSN: 4, MSN: 0, Aux: placeAux(0, 1)},
	}
	for i := range evs {
		c.OnEvent(&evs[i])
	}
	r := c.Finish()
	if r.TotalViolations != 0 {
		t.Fatalf("recovery chain flagged: %+v", r.Violations)
	}
	want := map[string]units.Time{
		"loss_to_ho_bounce":      us(1),
		"ho_bounce_to_ho_return": us(2),
		"ho_return_to_rq_fetch":  us(1),
		"rq_fetch_to_retransmit": us(1),
		"retransmit_to_deliver":  us(2),
		"loss_to_recovery":       us(7),
	}
	for name, d := range want {
		s := hasStage(r, name)
		if s == nil {
			t.Fatalf("stage %s not sampled", name)
		}
		// LogHist lower bounds: p50 within the relative error bound, never
		// above the true value.
		if s.Count != 1 || s.P50 > d || s.Max > d {
			t.Fatalf("stage %s: count=%d p50=%v max=%v want <= %v", name, s.Count, s.P50, s.Max, d)
		}
	}
	if hasStage(r, "clean_send_to_deliver") != nil {
		t.Fatal("recovered chain must not count as clean delivery")
	}
	f := r.Flows[0]
	names := flight.CountNames()
	got := map[string]int64{}
	for i, n := range names {
		got[n] = f.Counts[i]
	}
	for _, n := range []string{"sent", "trims", "ho_bounce", "ho_return", "rq_fetch", "retx", "deliver", "place"} {
		if got[n] != 1 {
			t.Fatalf("counter %s = %d, want 1 (%v)", n, got[n], got)
		}
	}
	if f.Recoveries != 1 || f.RecoverMax != us(7) {
		t.Fatalf("recovery aggregate: %+v", f)
	}
}

// TestSyntheticDuplicatePlacement replays a double delivery of one PSN: the
// exactly-once invariant and the counter-vs-set equivalence must both fire,
// each carrying a non-empty causal chain ending in the triggering event.
func TestSyntheticDuplicatePlacement(t *testing.T) {
	c := flight.New(flight.Config{})
	evs := []obs.Event{
		{At: us(1), Type: obs.EvSend, Node: 0, Flow: 9, PSN: 7, MSN: 0},
		{At: us(2), Type: obs.EvDeliver, Node: 1, Flow: 9, PSN: 7, MSN: 0},
		{At: us(2), Type: obs.EvPlace, Node: 1, Flow: 9, PSN: 7, MSN: 0, Aux: placeAux(0, 1)},
		{At: us(2.1), Type: obs.EvDeliver, Node: 1, Flow: 9, PSN: 7, MSN: 0},
		{At: us(2.1), Type: obs.EvPlace, Node: 1, Flow: 9, PSN: 7, MSN: 0, Aux: placeAux(0, 2)},
		{At: us(3), Type: obs.EvMsgComplete, Node: 1, Flow: 9, MSN: 0, Aux: 2},
	}
	for i := range evs {
		c.OnEvent(&evs[i])
	}
	r := c.Finish()
	dup := findViolation(t, r, flight.InvDuplicatePlacement)
	if len(dup.Chain) == 0 {
		t.Fatal("duplicate-placement violation has no causal chain")
	}
	last := dup.Chain[len(dup.Chain)-1]
	if last.Type != obs.EvPlace || last.PSN != 7 {
		t.Fatalf("chain must end with the triggering EvPlace, got %v", last.Type)
	}
	mm := findViolation(t, r, flight.InvCounterSetMismatch)
	if mm.Flow != 9 {
		t.Fatalf("mismatch on wrong flow: %+v", mm)
	}
}

// TestSyntheticOrphanFetch: a RetransQ fetch for a PSN no HO return named.
func TestSyntheticOrphanFetch(t *testing.T) {
	c := flight.New(flight.Config{})
	e := obs.Event{At: us(1), Type: obs.EvRQFetch, Node: 0, Flow: 2, PSN: 3, MSN: 0}
	c.OnEvent(&e)
	findViolation(t, c.Finish(), flight.InvOrphanRQFetch)
}

// TestSyntheticEpochInvariants: stale-epoch retransmission after a fallback
// bump, and a non-advancing fallback.
func TestSyntheticEpochInvariants(t *testing.T) {
	c := flight.New(flight.Config{})
	evs := []obs.Event{
		{At: us(1), Type: obs.EvEpochFallback, Node: 0, Flow: 3, PSN: 0, MSN: 0, Aux: 1},
		{At: us(2), Type: obs.EvRetransmit, Node: 0, Flow: 3, PSN: 5, MSN: 0, Aux: 0},
		{At: us(3), Type: obs.EvEpochFallback, Node: 0, Flow: 3, PSN: 0, MSN: 0, Aux: 1},
	}
	for i := range evs {
		c.OnEvent(&evs[i])
	}
	r := c.Finish()
	st := findViolation(t, r, flight.InvStaleEpochRetrans)
	if len(st.Chain) == 0 || st.Chain[len(st.Chain)-1].Type != obs.EvRetransmit {
		t.Fatalf("stale-epoch chain must end with the retransmit: %+v", st.Chain)
	}
	findViolation(t, r, flight.InvEpochRegression)
}

// TestSyntheticEMSN: a repeated eMSN advance is a regression, but a wrap
// through the 32-bit boundary is legal RFC 1982 sequence progress.
func TestSyntheticEMSN(t *testing.T) {
	c := flight.New(flight.Config{})
	a := obs.Event{At: us(1), Type: obs.EvEMSNAdv, Node: 1, Flow: 4, Aux: 5}
	b := obs.Event{At: us(2), Type: obs.EvEMSNAdv, Node: 1, Flow: 4, Aux: 5}
	c.OnEvent(&a)
	c.OnEvent(&b)
	findViolation(t, c.Finish(), flight.InvEMSNRegression)

	w := flight.New(flight.Config{})
	hi := obs.Event{At: us(1), Type: obs.EvEMSNAdv, Node: 1, Flow: 4, Aux: 0xFFFFFFFF}
	lo := obs.Event{At: us(2), Type: obs.EvEMSNAdv, Node: 1, Flow: 4, Aux: 0}
	w.OnEvent(&hi)
	w.OnEvent(&lo)
	if n := w.Violations(); n != 0 {
		t.Fatalf("eMSN wraparound flagged as regression (%d violations)", n)
	}
}

// TestSyntheticHODropModes: lenient mode counts, strict mode violates.
func TestSyntheticHODropModes(t *testing.T) {
	e := obs.Event{At: us(1), Type: obs.EvHODrop, Node: 2, Flow: 5, PSN: 1, MSN: 0}

	lenient := flight.New(flight.Config{})
	lenient.OnEvent(&e)
	r := lenient.Finish()
	if r.TotalViolations != 0 || r.HODrops != 1 {
		t.Fatalf("lenient: violations=%d hoDrops=%d", r.TotalViolations, r.HODrops)
	}

	strict := flight.New(flight.Config{StrictHO: true})
	strict.OnEvent(&e)
	findViolation(t, strict.Finish(), flight.InvHODrop)
}

// dumbbellSim builds a small checked dumbbell simulation.
func dumbbellSim(seed int64, sch exp.Scheme, hosts, cross int) *exp.Sim {
	return exp.NewSim(seed, sch, func(eng *sim.Engine) *topo.Network {
		c := topo.DefaultDumbbell()
		c.HostsPerSwitch = hosts
		c.CrossLinks = cross
		c.Switch = exp.SwitchConfigFor(sch)
		return topo.Dumbbell(eng, c)
	})
}

// attachChecker wires a flat-memory tracer plus checker onto the sim.
func attachChecker(s *exp.Sim, cfg flight.Config) *flight.Checker {
	tr := obs.NewTracer()
	tr.SetLimit(1)
	ck := flight.New(cfg)
	tr.Tee(ck)
	s.Attach(tr, nil)
	return ck
}

// runIncast drives a 4:1 DCP incast through one cross link: enough overload
// to trim heavily and exercise the whole HO → RetransQ → retransmit
// pipeline, fully deterministic under the fixed seed.
func runIncast(t *testing.T) *flight.Checker {
	t.Helper()
	sch := exp.SchemeDCP(false)
	s := exp.NewSim(11, sch, func(eng *sim.Engine) *topo.Network {
		c := topo.DefaultDumbbell()
		c.HostsPerSwitch = 4
		c.CrossLinks = 1
		c.Switch = exp.SwitchConfigFor(sch)
		// Shallow trim threshold: window-limited senders never build the
		// default 1 MB egress queue on this tiny fabric, and the point of
		// this run is to exercise the trim → HO → RetransQ pipeline.
		c.Switch.TrimThreshold = 32 << 10
		return topo.Dumbbell(eng, c)
	})
	ck := attachChecker(s, flight.Config{})
	var flows []*workload.Flow
	for i := 0; i < 4; i++ {
		flows = append(flows, &workload.Flow{
			ID:  uint64(i + 1),
			Src: packet.NodeID(i), Dst: packet.NodeID(4),
			Size: 1 << 20,
		})
	}
	s.ScheduleFlows(flows)
	if left := s.Run(50 * units.Millisecond); left != 0 {
		t.Fatalf("%d incast flows unfinished", left)
	}
	return ck
}

// TestIncastCheckedClean runs the incast under the checker: the recovery
// machinery must be exercised (trims, fetches, retransmissions) and the
// invariants must all hold.
func TestIncastCheckedClean(t *testing.T) {
	ck := runIncast(t)
	r := ck.Finish()
	if r.TotalViolations != 0 {
		var buf bytes.Buffer
		r.WriteText(&buf)
		t.Fatalf("incast run violated invariants:\n%s", buf.String())
	}
	var trims, fetches, retx int64
	names := flight.CountNames()
	idx := map[string]int{}
	for i, n := range names {
		idx[n] = i
	}
	for i := range r.Flows {
		trims += r.Flows[i].Counts[idx["trims"]]
		fetches += r.Flows[i].Counts[idx["rq_fetch"]]
		retx += r.Flows[i].Counts[idx["retx"]]
	}
	if trims == 0 || fetches == 0 || retx == 0 {
		t.Fatalf("incast did not exercise recovery: trims=%d fetches=%d retx=%d", trims, fetches, retx)
	}
	if hasStage(r, "loss_to_recovery") == nil {
		t.Fatal("no recovery latency sampled")
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run go test ./internal/obs/flight -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from golden; run with -update and diff", name)
	}
}

// TestAutopsyGolden pins the full autopsy (JSON and text renderings) of the
// deterministic incast run, byte for byte.
func TestAutopsyGolden(t *testing.T) {
	r := runIncast(t).Finish()
	var j, x bytes.Buffer
	if err := r.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteText(&x); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "autopsy.golden.json", j.Bytes())
	checkGolden(t, "autopsy.golden.txt", x.Bytes())
}

// TestCheckerDetectsDuplicateDelivery is the first mutation self-test: a
// wire-level duplication fault (faults.DupBurst) delivers one data packet
// twice. The bitmap-free receiver double-counts it — exactly the corruption
// the exactly-once invariant exists to catch — so the checker must report
// duplicate-placement and counter-vs-set violations with causal chains.
func TestCheckerDetectsDuplicateDelivery(t *testing.T) {
	sch := exp.SchemeDCP(false)
	s := dumbbellSim(7, sch, 1, 1)
	ck := attachChecker(s, flight.Config{})
	s.ScheduleFlows([]*workload.Flow{{ID: 1, Src: 0, Dst: 1, Size: 256 << 10}})
	plan := faults.NewPlan(7).DupBurst("host1", 10*units.Microsecond, 1)
	if _, err := s.Net.Inject(plan); err != nil {
		t.Fatal(err)
	}
	s.Run(50 * units.Millisecond)
	r := ck.Finish()
	if r.TotalViolations == 0 {
		t.Fatal("duplicated delivery went unnoticed")
	}
	dup := findViolation(t, r, flight.InvDuplicatePlacement)
	if len(dup.Chain) == 0 {
		t.Fatal("duplicate-placement violation carries no causal chain")
	}
	mm := findViolation(t, r, flight.InvCounterSetMismatch)
	if len(mm.Chain) == 0 {
		t.Fatal("counter-set-mismatch violation carries no causal chain")
	}
}

// staleEpochShim wraps a DCP endpoint and corrupts exactly one
// post-fallback retransmission: its retry epoch is rewound to the previous
// value just before the packet reaches the wire, with a matching trace
// event, modeling a sender whose fallback state update raced its send
// pipeline.
type staleEpochShim struct {
	base.Transport
	env      *base.Env
	node     packet.NodeID
	injected bool
}

func (s *staleEpochShim) Dequeue(now units.Time, dataPaused bool) *packet.Packet {
	p := s.Transport.Dequeue(now, dataPaused)
	if p != nil && !s.injected && p.Kind == packet.KindData && p.Retransmitted && p.SRetryNo > 0 {
		s.injected = true
		p.SRetryNo--
		if s.env.Trace != nil {
			s.env.Trace.Emit(obs.Event{At: now, Type: obs.EvRetransmit, Node: s.node, Port: -1,
				Flow: p.FlowID, PSN: p.PSN, MSN: p.MSN, Size: int32(p.Size), Aux: int64(p.SRetryNo)})
		}
	}
	return p
}

// TestCheckerDetectsStaleEpochRetransmit is the second mutation self-test:
// a link outage forces DCP's coarse-timeout fallback (epoch bump), and the
// shim rewinds one resent packet to the stale epoch. The checker must flag
// the stale retransmission with a causal chain.
func TestCheckerDetectsStaleEpochRetransmit(t *testing.T) {
	sch := exp.SchemeDCP(false)
	inner := sch.Factory
	var shims []*staleEpochShim
	sch.Factory = func(n *nic.NIC, env *base.Env) base.Transport {
		sh := &staleEpochShim{Transport: inner(n, env), env: env, node: n.ID()}
		shims = append(shims, sh)
		return sh
	}
	sch.Tweak = func(env *base.Env) { env.DCP.Timeout = 300 * units.Microsecond }
	s := dumbbellSim(7, sch, 1, 1)
	ck := attachChecker(s, flight.Config{})
	s.ScheduleFlows([]*workload.Flow{{ID: 1, Src: 0, Dst: 1, Size: 256 << 10}})
	plan := faults.NewPlan(7).LinkDownFor("cross0", 10*units.Microsecond, 600*units.Microsecond)
	if _, err := s.Net.Inject(plan); err != nil {
		t.Fatal(err)
	}
	if left := s.Run(100 * units.Millisecond); left != 0 {
		t.Fatalf("%d flows unfinished after outage recovery", left)
	}
	mutated := false
	for _, sh := range shims {
		mutated = mutated || sh.injected
	}
	if !mutated {
		t.Fatal("shim never saw a post-fallback retransmission; outage too short?")
	}
	st := findViolation(t, ck.Finish(), flight.InvStaleEpochRetrans)
	if len(st.Chain) == 0 {
		t.Fatal("stale-epoch violation carries no causal chain")
	}
}

// TestEverySchemeChecked runs every registered scheme under the checker on
// a lossy dumbbell. Each must come out violation-free with both flows
// started, done, and every packet placed: a scheme whose endpoint emitted
// no trace events would pass the invariants vacuously.
func TestEverySchemeChecked(t *testing.T) {
	idx := map[string]int{}
	for i, n := range flight.CountNames() {
		idx[n] = i
	}
	const size = 256 << 10
	for _, name := range exp.SchemeNames() {
		sch, _ := exp.SchemeByName(name)
		t.Run(name, func(t *testing.T) {
			s := exp.NewSim(5, sch, func(eng *sim.Engine) *topo.Network {
				c := topo.DefaultDumbbell()
				c.HostsPerSwitch = 2
				c.CrossLinks = 1
				c.Switch = exp.SwitchConfigFor(sch)
				if !sch.Lossless {
					c.Switch.LossRate = 0.005
				}
				return topo.Dumbbell(eng, c)
			})
			ck := attachChecker(s, flight.Config{})
			s.ScheduleFlows([]*workload.Flow{
				{ID: 1, Src: 0, Dst: 2, Size: size},
				{ID: 2, Src: 1, Dst: 3, Size: size},
			})
			if left := s.Run(units.Second); left != 0 {
				t.Fatalf("%d flows unfinished", left)
			}
			r := ck.Finish()
			if r.TotalViolations != 0 {
				var buf bytes.Buffer
				r.WriteText(&buf)
				t.Fatalf("violations:\n%s", buf.String())
			}
			if r.FlowsDone != 2 {
				t.Fatalf("checker saw %d of 2 flows complete", r.FlowsDone)
			}
			for _, f := range r.Flows {
				if !f.Started || f.Counts[idx["sent"]] == 0 {
					t.Errorf("flow %d: started=%v sent=%d", f.Flow, f.Started, f.Counts[idx["sent"]])
				}
				if n := f.Counts[idx["place"]]; n < size/1000 {
					t.Errorf("flow %d: %d placements, want at least %d", f.Flow, n, size/1000)
				}
			}
		})
	}
}

// TestRegistryRunsChecked attaches the checker to every simulation built by
// every registered experiment — including the fault-injection families —
// via exp.NewSimHook, and requires a clean bill: zero invariant violations
// anywhere in the registry.
func TestRegistryRunsChecked(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment under the checker; minutes of CPU")
	}
	cfg := exp.Config{Seed: 11, Scale: 0.02}
	type bound struct {
		id string
		ck *flight.Checker
	}
	var checkers []bound
	curID := ""
	exp.NewSimHook = func(s *exp.Sim) {
		ck := attachChecker(s, flight.Config{})
		checkers = append(checkers, bound{curID, ck})
	}
	defer func() { exp.NewSimHook = nil }()
	for _, e := range exp.All() {
		e := e
		curID = e.ID
		t.Run(e.ID, func(t *testing.T) {
			if tables := e.Run(cfg); len(tables) == 0 {
				t.Fatal("no tables")
			}
		})
	}
	var events int64
	for _, b := range checkers {
		events += b.ck.Events()
		if n := b.ck.Violations(); n != 0 {
			var buf bytes.Buffer
			b.ck.Finish().WriteText(&buf)
			t.Errorf("%s: %d invariant violations\n%s", b.id, n, buf.String())
		}
	}
	if len(checkers) == 0 || events == 0 {
		t.Fatalf("hook never observed events (checkers=%d events=%d)", len(checkers), events)
	}
}

// TestCheckedRunBitIdentical verifies the determinism contract: attaching
// the tracer+checker to an experiment must not change a single output cell.
func TestCheckedRunBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments twice")
	}
	cfg := exp.Config{Seed: 11, Scale: 0.02}
	render := func(id string) string {
		e := exp.ByID(id)
		if e == nil {
			t.Fatalf("unknown experiment %s", id)
		}
		var buf bytes.Buffer
		for _, tb := range e.Run(cfg) {
			buf.WriteString(tb.String())
			buf.WriteByte('\n')
		}
		return buf.String()
	}
	for _, id := range []string{"fig10", "ab-b2s", "fault-flap"} {
		plain := render(id)
		exp.NewSimHook = func(s *exp.Sim) { attachChecker(s, flight.Config{}) }
		checked := render(id)
		exp.NewSimHook = nil
		if plain != checked {
			t.Errorf("%s: checked run diverged from unchecked run", id)
		}
	}
	exp.NewSimHook = nil
}
