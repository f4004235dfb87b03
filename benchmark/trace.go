package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"

	"dcpsim/internal/bench"
	"dcpsim/internal/cc"
	"dcpsim/internal/exp"
	"dcpsim/internal/nic"
	"dcpsim/internal/obs"
	"dcpsim/internal/obs/flight"
	"dcpsim/internal/packet"
	"dcpsim/internal/sim"
	"dcpsim/internal/units"
)

// The traced run times the program's layers from outside it. The engine's
// dispatch profiler (sim.Prof with a wall clock) times every event and
// charges it to the component that scheduled it. Spans opened by wrappers
// at two public boundaries then move time to the layer that actually ran:
// NIC to transport (nic.Transport.Handle and Dequeue) and transport to CC
// (every cc.Controller call). Spans nest on one stack per cell; a span's
// self time is its length minus its children's, and a root span's length
// is taken out of the component of the event it ran under. Code a layer
// calls back into without a public boundary, such as stats updates or port
// kicks made from inside a transport, stays with the caller.

type layer uint8

const (
	layerSim layer = iota // engine self: queue, dispatch and everything outside events
	layerFabric
	layerNIC
	layerTransport
	layerCC
	layerCheck // the flight-recorder checker: tracing cost, not a program layer
	numLayers
)

var layerNames = [numLayers]string{"sim", "fabric", "nic", "transport", "cc", "check"}

// compLayer maps a dispatch component to the layer its event code belongs
// to. Flow starts and RTO timers run transport code. No benchmark workload
// schedules faults or probes, and untagged events only come from set-up.
func compLayer(c sim.Comp) layer {
	switch c {
	case sim.CompFabric:
		return layerFabric
	case sim.CompNIC:
		return layerNIC
	case sim.CompWorkload, sim.CompTransport, sim.CompTimer:
		return layerTransport
	case sim.CompCC:
		return layerCC
	}
	return layerSim
}

// maxRawSpans bounds the spans kept raw for -trace-out, per workload.
const maxRawSpans = 200_000

// rawSpan is one span kept for the Chrome trace. Parent indexes the same
// cell's raw spans (-1 for a root); Flow is the flow ID the span served,
// the identifier spans of one flow share.
type rawSpan struct {
	layer      layer
	start, end int64
	parent     int32
	flow       uint64
}

type frame struct {
	layer layer
	start int64
	child int64 // time covered by finished child spans
	raw   int32
}

// tracer is one cell's span recorder. A cell runs on one goroutine, so a
// tracer needs no locking.
type tracer struct {
	eng   *sim.Engine
	prof  sim.Prof
	stack []frame
	ck    *flight.Checker

	self   [numLayers]int64    // span self time per layer
	spans  [numLayers]int64    // spans closed per layer
	nested [numLayers]int64    // spans closed directly inside a span of the layer
	under  [sim.NumComps]int64 // root-span time per dispatch component
	roots  [sim.NumComps]int64 // root spans per dispatch component

	raw    []rawSpan
	rawCap int
}

func (t *tracer) begin(l layer, flow uint64) {
	f := frame{layer: l, raw: -1}
	if len(t.raw) < t.rawCap {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].raw
		}
		f.raw = int32(len(t.raw))
		t.raw = append(t.raw, rawSpan{layer: l, parent: parent, flow: flow})
	}
	f.start = nowNs()
	t.stack = append(t.stack, f)
}

// end closes the innermost span. flow, when non-zero, names the flow the
// span turned out to serve (a Dequeue learns it from the packet it returns).
func (t *tracer) end(flow uint64) {
	now := nowNs()
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	d := now - f.start
	t.self[f.layer] += d - f.child
	t.spans[f.layer]++
	if n > 0 {
		t.stack[n-1].child += d
		t.nested[t.stack[n-1].layer]++
	} else {
		c := t.eng.Comp()
		t.under[c] += d
		t.roots[c]++
	}
	if f.raw >= 0 {
		r := &t.raw[f.raw]
		r.start, r.end = f.start, now
		if flow != 0 {
			r.flow = flow
		}
	}
}

// attach is the traced run's instrument: a wall-clock dispatch profiler,
// span wrappers at the NIC→transport and transport→CC boundaries, and the
// flight-recorder checker teed onto a one-event tracer. The checker runs
// in spans of its own, so its cost stays out of the layers whose trace
// events it checks. The CC wrapper goes
// into Env.CC, which transports consult per QP; wrapping Scheme.CC instead
// would change the simulated fabric, because exp.SwitchConfigFor disables
// ECN marking only for schemes without a CC factory.
func (t *tracer) attach(s *exp.Sim) func() error {
	t.eng = s.Eng
	t.prof.Wall = nowNs
	s.Eng.AttachProf(&t.prof)
	for _, h := range s.Net.Hosts {
		h.SetTransport(timedTransport{h.Transport(), t})
	}
	inner := s.Env.CC
	s.Env.CC = func(eng *sim.Engine, link units.Rate, rtt units.Time) cc.Controller {
		return timedCC{inner(eng, link, rtt), t}
	}
	tr := obs.NewTracer()
	tr.SetLimit(1)
	t.ck = flight.New(flight.Config{})
	tr.Tee(timedSink{t.ck, t})
	s.Attach(tr, nil)
	return func() error {
		if n := t.ck.Violations(); n > 0 {
			return fmt.Errorf("%d flight-recorder invariant violations", n)
		}
		return nil
	}
}

type timedTransport struct {
	inner nic.Transport
	t     *tracer
}

func (w timedTransport) Handle(p *packet.Packet) {
	w.t.begin(layerTransport, p.FlowID)
	w.inner.Handle(p)
	w.t.end(0)
}

func (w timedTransport) Dequeue(now units.Time, dataPaused bool) *packet.Packet {
	w.t.begin(layerTransport, 0)
	p := w.inner.Dequeue(now, dataPaused)
	var flow uint64
	if p != nil {
		flow = p.FlowID
	}
	w.t.end(flow)
	return p
}

type timedSink struct {
	inner obs.Sink
	t     *tracer
}

func (s timedSink) OnEvent(e *obs.Event) {
	s.t.begin(layerCheck, e.Flow)
	s.inner.OnEvent(e)
	s.t.end(0)
}

type timedCC struct {
	inner cc.Controller
	t     *tracer
}

func (c timedCC) CanSend(now units.Time, inflight, pktBytes int) (bool, units.Time) {
	c.t.begin(layerCC, 0)
	ok, at := c.inner.CanSend(now, inflight, pktBytes)
	c.t.end(0)
	return ok, at
}

func (c timedCC) OnSent(now units.Time, bytes int) {
	c.t.begin(layerCC, 0)
	c.inner.OnSent(now, bytes)
	c.t.end(0)
}

func (c timedCC) OnAck(now units.Time, bytes int, rtt units.Time) {
	c.t.begin(layerCC, 0)
	c.inner.OnAck(now, bytes, rtt)
	c.t.end(0)
}

func (c timedCC) OnCongestion(now units.Time) {
	c.t.begin(layerCC, 0)
	c.inner.OnCongestion(now)
	c.t.end(0)
}

func (c timedCC) Rate() units.Rate { return c.inner.Rate() }

func (c timedCC) Close() {
	c.t.begin(layerCC, 0)
	c.inner.Close()
	c.t.end(0)
}

// cellTrace is one traced cell's raw accounting.
type cellTrace struct {
	RunNs    int64                `json:"run_ns"`
	Events   [sim.NumComps]uint64 `json:"events"`
	EventNs  [sim.NumComps]int64  `json:"event_ns"`
	UnderNs  [sim.NumComps]int64  `json:"under_ns"`
	Roots    [sim.NumComps]int64  `json:"roots"`
	SpanSelf [numLayers]int64     `json:"span_self_ns"`
	Spans    [numLayers]int64     `json:"spans"`
	Nested   [numLayers]int64     `json:"nested"`
}

// calibration is this host's cost of the tracing itself, split by where
// the clock puts it. An event's two profiler clock reads cost EventIn
// inside the interval charged to the event and EventOut outside it, in
// engine self time. A span costs SpanIn inside its own length and SpanOut
// in its parent's.
type calibration struct {
	EventIn  float64 `json:"event_in_ns"`
	EventOut float64 `json:"event_out_ns"`
	SpanIn   float64 `json:"span_in_ns"`
	SpanOut  float64 `json:"span_out_ns"`
}

// tracedResult is what the traced child reports for one workload.
type tracedResult struct {
	// WallS is the traced rep's wall time, first cell build to last done.
	WallS  float64      `json:"wall_s"`
	Calib  calibration  `json:"calibration"`
	Cells  []cellResult `json:"cells"`
	Traces []cellTrace  `json:"traces"`
}

// runTraced is the traced child: one rep with every cell instrumented.
// When traceOut is set, the first maxRawSpans spans are written there as
// Chrome trace JSON.
func runTraced(specs []cellSpec, traceOut string) (tracedResult, error) {
	res := tracedResult{Calib: calibrate()}
	tracers := make([]*tracer, len(specs))
	for i := range tracers {
		tracers[i] = &tracer{}
		if traceOut != "" {
			tracers[i].rawCap = maxRawSpans / len(specs)
		}
	}
	runtime.GC()
	wall, cells := runRep(specs, func(i int) instrument { return tracers[i].attach })
	res.WallS, res.Cells = float64(wall)/1e9, cells
	for i, t := range tracers {
		res.Traces = append(res.Traces, cellTrace{
			RunNs: cells[i].RunNs, Events: t.prof.Counts, EventNs: t.prof.WallNs,
			UnderNs: t.under, Roots: t.roots, SpanSelf: t.self, Spans: t.spans, Nested: t.nested,
		})
	}
	if traceOut != "" {
		names := make([]string, len(cells))
		for i, c := range cells {
			names[i] = c.Cell
		}
		if err := writeChromeTrace(traceOut, names, tracers); err != nil {
			return res, err
		}
	}
	return res, nil
}

// calibrate times empty events and empty spans, the median of five
// batches each.
func calibrate() calibration {
	const batches, n = 5, 200_000
	var evIn, evAll, spIn, spAll []float64
	empty := func() {}
	for b := 0; b < batches; b++ {
		var in int64
		t0 := nowNs()
		for i := 0; i < n; i++ {
			w0 := nowNs()
			empty()
			in += nowNs() - w0
		}
		t1 := nowNs()
		t := &tracer{eng: sim.NewEngine(0)}
		for i := 0; i < n; i++ {
			t.begin(layerTransport, 0)
			t.end(0)
		}
		t2 := nowNs()
		evIn = append(evIn, float64(in)/n)
		evAll = append(evAll, float64(t1-t0)/n)
		spIn = append(spIn, float64(t.self[layerTransport])/n)
		spAll = append(spAll, float64(t2-t1)/n)
	}
	c := calibration{EventIn: bench.Median(evIn), SpanIn: bench.Median(spIn)}
	c.EventOut, c.SpanOut = bench.Median(evAll)-c.EventIn, bench.Median(spAll)-c.SpanIn
	return c
}

// layerTimes is a workload's traced accounting, summed over cells.
type layerTimes struct {
	// RunNs is the summed Run wall time of the traced cells, the total the
	// layers divide up.
	RunNs float64
	// Raw is each layer's self time as measured; Raw[layerSim] is Run
	// wall time not spent inside any dispatched event. Raw sums to RunNs.
	Raw [numLayers]float64
	// Self is Raw less the calibrated cost of the tracing the layer paid
	// for: its events' clock reads and its own and its children's spans.
	Self [numLayers]float64
	// Calls counts entries into each layer: dispatched events of its
	// components plus spans at its boundary.
	Calls    [numLayers]float64
	Events   float64 // all dispatched events
	Overhead float64 // calibrated tracing cost taken out of Raw, ns
}

func accountLayers(r tracedResult) layerTimes {
	var lt layerTimes
	var cost [numLayers]float64
	k := r.Calib
	for _, c := range r.Traces {
		lt.RunNs += float64(c.RunNs)
		lt.Raw[layerSim] += float64(c.RunNs)
		for comp := sim.Comp(0); comp < sim.NumComps; comp++ {
			l, n := compLayer(comp), float64(c.Events[comp])
			lt.Raw[layerSim] -= float64(c.EventNs[comp])
			lt.Raw[l] += float64(c.EventNs[comp] - c.UnderNs[comp])
			lt.Calls[l] += n
			lt.Events += n
			cost[layerSim] += n * k.EventOut
			cost[l] += n*k.EventIn + float64(c.Roots[comp])*k.SpanOut
		}
		for l := layer(0); l < numLayers; l++ {
			lt.Raw[l] += float64(c.SpanSelf[l])
			lt.Calls[l] += float64(c.Spans[l])
			cost[l] += float64(c.Spans[l])*k.SpanIn + float64(c.Nested[l])*k.SpanOut
		}
	}
	for l := range lt.Self {
		lt.Self[l] = lt.Raw[l] - cost[l]
		lt.Overhead += cost[l]
	}
	return lt
}

// writeChromeTrace writes the kept raw spans as Chrome trace-event JSON,
// one thread per cell. A span that did not learn its flow (a CC call)
// inherits its nearest ancestor's.
func writeChromeTrace(path string, cells []string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	sep := ""
	for ci, t := range tracers {
		for i, r := range t.raw {
			flow := r.flow
			for p := r.parent; flow == 0 && p >= 0; p = t.raw[p].parent {
				flow = t.raw[p].flow
			}
			fmt.Fprintf(w, `%s{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"cell":%q,"span":%d,"parent":%d,"flow":%d}}`,
				sep, layerNames[r.layer], ci, float64(r.start)/1e3, float64(r.end-r.start)/1e3, cells[ci], i, r.parent, flow)
			sep = ",\n"
		}
	}
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace-out: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	return nil
}
