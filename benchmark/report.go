package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"dcpsim/internal/bench"
)

// metricDef declares a metric. Every end-to-end one is better lower, and
// bound is the share of the baseline value by which it may get worse
// before a change counts as a regression. BENCHMARK.json declares the same
// names, units and bounds; a test keeps the two in step.
type metricDef struct {
	name, unit string
	bound      float64
	// fastest reports the fastest rep rather than the median one. The
	// reference host slows memory-bound code by 30-80% in episodes of
	// 10-100 s; a rep's time only ever grows under them, so the fastest
	// rep is the steadiest estimate of the code's own cost. Over ten runs
	// per workload, the fastest rep's spread (quartile distance over
	// median) was 5-12%, the median rep's 8-17%.
	fastest bool
}

// value is the figure a metric is reported and compared by.
func (d metricDef) value(m metric) float64 {
	if d.fastest {
		return m.Min
	}
	return m.Median
}

var endToEnd = []metricDef{
	{"wall_s", "s", 0.25, true},
	{"cpu_s", "s", 0.25, true},
	{"setup_s", "s", 0.25, false},
	{"alloc_mb", "MB", 0.10, false},
	{"peak_rss_mb", "MB", 0.25, false},
}

// perLayer lists the per-layer metrics the --trace 1 result line carries,
// with their units. fabric.ns_per_event is left out of it because it has
// no value where a workload has no fabric events; the JSON document
// reports it wherever it is defined.
var perLayer = []metricDef{
	{name: "sim.events", unit: "count"},
	{name: "sim.max_heap_depth", unit: "count"},
	{name: "sim.events_per_s", unit: "1/s"},
	{name: "sim.self_ns_per_event", unit: "ns"},
	{name: "sim.alloc_b_per_event", unit: "B"},
	{name: "sim.cancel_share", unit: "ratio"},
	{name: "fabric.events", unit: "count"},
	{name: "fabric.share", unit: "ratio"},
	{name: "fabric.trim_ratio", unit: "ratio"},
	{name: "fabric.drop_ratio", unit: "ratio"},
	{name: "nic.events", unit: "count"},
	{name: "nic.ns_per_event", unit: "ns"},
	{name: "nic.share", unit: "ratio"},
	{name: "transport.calls", unit: "count"},
	{name: "transport.ns_per_call", unit: "ns"},
	{name: "transport.share", unit: "ratio"},
	{name: "transport.retx_ratio", unit: "ratio"},
	{name: "transport.timeouts", unit: "count"},
	{name: "cc.calls", unit: "count"},
	{name: "cc.ns_per_call", unit: "ns"},
	{name: "cc.share", unit: "ratio"},
	{name: "pool.busy_share", unit: "ratio"},
	{name: "pool.cell_s_max", unit: "s"},
	{name: "pool.wait_s_max", unit: "s"},
	{name: "gc.cpu_share", unit: "ratio"},
	{name: "gc.cycles", unit: "count"},
	{name: "trace.overhead", unit: "ratio"},
}

// metric is one metric over a workload's samples. With about twenty reps
// no percentile beyond the median has ten samples past it, so no tail is
// reported. Base holds the counts a ratio was computed from.
type metric struct {
	Unit    string             `json:"unit"`
	Median  float64            `json:"median"`
	Min     float64            `json:"min"`
	Max     float64            `json:"max"`
	N       int                `json:"n"`
	Samples []float64          `json:"samples"`
	Base    map[string]float64 `json:"base,omitempty"`
}

type metricSet map[string]metric

func (ms metricSet) add(name, unit string, v float64, base map[string]float64) {
	m := ms[name]
	m.Unit, m.Base = unit, base
	m.Samples = append(m.Samples, v)
	m.N = len(m.Samples)
	m.Median = bench.Median(m.Samples)
	m.Min, m.Max = m.Samples[0], m.Samples[0]
	for _, s := range m.Samples {
		m.Min, m.Max = min(m.Min, s), max(m.Max, s)
	}
	ms[name] = m
}

// iqrShare is the distance between the quartiles of xs over its median.
func iqrShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		i := int(pos)
		if i+1 == len(s) {
			return s[i]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return ratio(q(0.75)-q(0.25), bench.Median(s))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// workloadSig is the simulated-output signature of a workload: totals over
// its cells and a digest over the cells' digests.
type workloadSig struct {
	Flows         int               `json:"flows"`
	Finished      int               `json:"finished"`
	SwitchPackets int64             `json:"switch_packets"`
	Trims         int64             `json:"trims"`
	Retx          int64             `json:"retx"`
	Digest        string            `json:"digest"`
	Cells         map[string]string `json:"cells"`
}

// workloadReport is one workload's entry in the JSON document.
type workloadReport struct {
	Name      string      `json:"name"`
	Why       string      `json:"why"`
	Cells     int         `json:"cells"`
	Workers   int         `json:"workers"`
	Reps      int         `json:"reps"`
	Metrics   metricSet   `json:"metrics"`
	Layers    metricSet   `json:"layers"`
	Signature workloadSig `json:"signature"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	Failures  []string    `json:"failures,omitempty"`
}

//go:embed testdata/golden.json
var goldenJSON []byte

// loadGolden parses the committed per-cell signatures, keyed by
// goldenKey. Seeds 42 and 7 are pinned; 7 is held out for checking claims.
func loadGolden() (map[string]signature, error) {
	var g map[string]signature
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("testdata/golden.json: %w", err)
	}
	return g, nil
}

func goldenKey(w string, seed int64, cell string) string {
	return fmt.Sprintf("%s/%d/%s", w, seed, cell)
}

// checkCells checks every cell run of a workload (warm-up, timed reps and
// the traced run) against its reference signature: the golden one when the
// seed has one, else the first clean run of that cell, so every rep and the
// traced run must agree. It returns the runs attempted and the failures.
func checkCells(w string, seed int64, golden map[string]signature, runs [][]cellResult, labels []string) (attempted int, failures []string) {
	refs := map[string]signature{}
	refFrom := map[string]string{}
	for _, cells := range runs {
		for _, c := range cells {
			if g, ok := golden[goldenKey(w, seed, c.Cell)]; ok {
				refs[c.Cell], refFrom[c.Cell] = g, "golden"
			} else if _, ok := refs[c.Cell]; !ok && c.Err == "" {
				refs[c.Cell], refFrom[c.Cell] = c.Sig, "first clean run"
			}
		}
	}
	for i, cells := range runs {
		for _, c := range cells {
			attempted++
			where := fmt.Sprintf("workload %s seed %d cell %s (%s)", w, seed, c.Cell, labels[i])
			if c.Err != "" {
				failures = append(failures, where+": "+c.Err)
			} else if d := firstDiff(refs[c.Cell], c.Sig); d != "" {
				failures = append(failures, fmt.Sprintf("%s: output differs from the %s: %s", where, refFrom[c.Cell], d))
			}
		}
	}
	return attempted, failures
}

// summarize turns a workload's child results into its report. traced is
// nil when the traced run was not asked for.
func summarize(w workload, seed int64, golden map[string]signature, t timedResult, traced *tracedResult) workloadReport {
	rep := workloadReport{Name: w.name, Why: w.why, Metrics: metricSet{}, Layers: metricSet{}}
	runs := [][]cellResult{}
	labels := []string{}
	timed := 0
	for i, r := range t.Reps {
		runs = append(runs, r.Cells)
		if r.Warmup {
			labels = append(labels, "warm-up")
			continue
		}
		timed++
		labels = append(labels, fmt.Sprintf("rep %d", i))
		rep.Workers = r.Workers
		rep.Metrics.add("wall_s", "s", r.WallS, nil)
		rep.Metrics.add("cpu_s", "s", r.CPUS, nil)
		rep.Metrics.add("alloc_mb", "MB", float64(r.AllocB)/1e6, nil)
		rep.Metrics.add("peak_rss_mb", "MB", float64(r.PeakRSSB)/1e6, nil)
		addCounters(rep.Layers, r)
	}
	for _, s := range t.Setup {
		rep.Metrics.add("setup_s", "s", s, nil)
	}
	if traced != nil {
		runs = append(runs, traced.Cells)
		labels = append(labels, "traced")
		addTraced(rep.Layers, *traced, rep.Metrics["wall_s"].Min)
	}
	rep.Reps = timed
	if len(runs) > 0 {
		rep.Cells = len(runs[0])
		rep.Signature = signatureOf(runs[0])
	}
	rep.Attempted, rep.Failures = checkCells(w.name, seed, golden, runs, labels)
	rep.Failed = len(rep.Failures)
	rep.setFailRatio()
	return rep
}

// setFailRatio (re)computes fail_ratio: failed cell runs over attempted.
func (r *workloadReport) setFailRatio() {
	delete(r.Metrics, "fail_ratio")
	r.Metrics.add("fail_ratio", "ratio", ratio(float64(r.Failed), float64(r.Attempted)),
		map[string]float64{"failed": float64(r.Failed), "attempted": float64(r.Attempted)})
}

func signatureOf(cells []cellResult) workloadSig {
	sig := workloadSig{Cells: map[string]string{}}
	h := sha256.New()
	for _, c := range cells {
		sig.Flows += c.Flows
		sig.Finished += c.Finished
		sig.SwitchPackets += c.Switch.RxPackets
		sig.Trims += c.Switch.TrimmedPkts
		sig.Retx += c.RetransPkts
		sig.Cells[c.Cell] = c.Sig.Digest
		fmt.Fprintln(h, c.Cell, c.Sig.Digest)
	}
	sig.Digest = hex.EncodeToString(h.Sum(nil))
	return sig
}

// addCounters adds the per-layer metrics taken from the counters of one
// untraced rep.
func addCounters(ms metricSet, r repSample) {
	var ev, canc, rx, trims, drops, data, retx, tmo, heap, cellSum, cellMax, waitMax float64
	for _, c := range r.Cells {
		ev += float64(c.Events)
		canc += float64(c.Cancelled)
		rx += float64(c.Switch.RxPackets)
		trims += float64(c.Switch.TrimmedPkts)
		drops += float64(c.Switch.DroppedData + c.Switch.DroppedAck + c.Switch.DroppedHO)
		data += float64(c.DataPkts)
		retx += float64(c.RetransPkts)
		tmo += float64(c.Timeouts)
		heap = max(heap, float64(c.MaxHeap))
		cell := float64(c.SetupNs+c.RunNs) / 1e9
		cellSum += cell
		cellMax = max(cellMax, cell)
		waitMax = max(waitMax, float64(c.WaitNs)/1e9)
	}
	ms.add("sim.events", "count", ev, nil)
	ms.add("sim.max_heap_depth", "count", heap, nil)
	ms.add("sim.events_per_s", "1/s", ratio(ev, r.WallS), nil)
	ms.add("sim.alloc_b_per_event", "B", ratio(float64(r.AllocB), ev), nil)
	ms.add("sim.cancel_share", "ratio", ratio(canc, ev+canc), map[string]float64{"cancelled": canc, "executed": ev})
	ms.add("fabric.trim_ratio", "ratio", ratio(trims, rx), map[string]float64{"trimmed": trims, "rx_packets": rx})
	ms.add("fabric.drop_ratio", "ratio", ratio(drops, rx), map[string]float64{"dropped": drops, "rx_packets": rx})
	ms.add("transport.retx_ratio", "ratio", ratio(retx, data), map[string]float64{"retx_pkts": retx, "data_pkts": data})
	ms.add("transport.timeouts", "count", tmo, nil)
	ms.add("pool.busy_share", "ratio", ratio(cellSum, float64(r.Workers)*r.WallS),
		map[string]float64{"cell_s": cellSum, "workers": float64(r.Workers), "wall_s": r.WallS})
	ms.add("pool.cell_s_max", "s", cellMax, nil)
	ms.add("pool.wait_s_max", "s", waitMax, nil)
	ms.add("gc.cpu_share", "ratio", r.GCCPUShare, nil)
	ms.add("gc.cycles", "count", float64(r.GCCycles), nil)
}

// addTraced adds the per-layer metrics of the traced run. Shares divide
// the traced Run time net of the calibrated tracing cost and of the
// checker, so the five program layers' shares sum to one.
func addTraced(ms metricSet, r tracedResult, wallS float64) {
	lt := accountLayers(r)
	net := lt.RunNs - lt.Overhead - lt.Self[layerCheck]
	ms.add("sim.self_ns_per_event", "ns", ratio(lt.Self[layerSim], lt.Events),
		map[string]float64{"self_ns": lt.Self[layerSim], "events": lt.Events})
	for _, l := range []layer{layerFabric, layerNIC, layerTransport, layerCC} {
		count, per := "calls", "ns_per_call"
		if l == layerFabric || l == layerNIC {
			count, per = "events", "ns_per_event"
		}
		name := layerNames[l]
		ms.add(name+"."+count, "count", lt.Calls[l], nil)
		if lt.Calls[l] > 0 {
			ms.add(name+"."+per, "ns", lt.Self[l]/lt.Calls[l], map[string]float64{"self_ns": lt.Self[l], count: lt.Calls[l]})
		}
		ms.add(name+".share", "ratio", ratio(lt.Self[l], net), map[string]float64{"self_ns": lt.Self[l], "run_ns": net})
	}
	ms.add("trace.overhead", "ratio", ratio(r.WallS, wallS), map[string]float64{
		"traced_wall_s": r.WallS, "wall_s": wallS, "tracing_ns": lt.Overhead, "checker_ns": lt.Self[layerCheck]})
}

// document is the benchmark's JSON output.
type document struct {
	Host      bench.Host       `json:"host"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Traced    bool             `json:"traced"`
	Workloads []workloadReport `json:"workloads"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
}

// resultLine is the one-line summary printed last on stdout: the
// end-to-end metrics, or with --trace 1 the per-layer ones. With several
// workloads each name is prefixed by its workload.
func resultLine(doc document) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: doc.Failed == 0, Attempted: max(doc.Attempted, 1), Failed: doc.Failed, Metrics: map[string]value{}}
	defs, from := endToEnd, func(r workloadReport) metricSet { return r.Metrics }
	if doc.Traced {
		defs, from = perLayer, func(r workloadReport) metricSet { return r.Layers }
	}
	for _, r := range doc.Workloads {
		for _, d := range defs {
			m, ok := from(r)[d.name]
			if !ok {
				continue
			}
			name := d.name
			if len(doc.Workloads) > 1 {
				name = r.Name + "." + d.name
			}
			out.Metrics[name] = value{d.value(m), m.Unit}
		}
	}
	return json.Marshal(out)
}

// writeTable prints the readable summary: every end-to-end metric, then
// every per-layer metric, one row per workload and metric.
func writeTable(w io.Writer, doc document) {
	fmt.Fprintf(w, "host: %d cores, GOMAXPROCS %d, %s, %s; seed %d\n",
		doc.Host.Cores, doc.Host.MaxProcs, doc.Host.GoVersion, doc.Host.CPU, doc.Seed)
	fmt.Fprintf(w, "%-15s %-24s %14s %14s %14s %3s  %s\n", "workload", "metric", "median", "min", "max", "n", "unit")
	for _, r := range doc.Workloads {
		for _, set := range []metricSet{r.Metrics, r.Layers} {
			names := make([]string, 0, len(set))
			for name := range set {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				m := set[name]
				fmt.Fprintf(w, "%-15s %-24s %14.6g %14.6g %14.6g %3d  %s\n", r.Name, name, m.Median, m.Min, m.Max, m.N, m.Unit)
			}
		}
		fmt.Fprintf(w, "%-15s signature: %d/%d flows finished, %d switch pkts, %d trims, %d retx, digest %.16s\n",
			r.Name, r.Signature.Finished, r.Signature.Flows, r.Signature.SwitchPackets, r.Signature.Trims, r.Signature.Retx, r.Signature.Digest)
		for _, f := range r.Failures {
			fmt.Fprintf(w, "%-15s FAILED %s\n", r.Name, f)
		}
	}
}

// verdict classifies the change of one end-to-end metric against a
// baseline. rel is the relative change of the metric's value, positive =
// worse. The spread is the wider of the two runs' quartile distance over
// median; when it is wider than the bound the change is unresolved, unless
// every sample of one run beats every sample of the other.
func verdict(def metricDef, base, cur metric) (rel float64, v string) {
	rel = bench.RelChange(def.value(base), def.value(cur))
	spread := max(iqrShare(base.Samples), iqrShare(cur.Samples))
	separated := cur.Max < base.Min || cur.Min > base.Max
	switch {
	case spread > def.bound && !separated:
		return rel, "unresolved"
	case rel > def.bound:
		return rel, "worse"
	case rel < -def.bound:
		return rel, "improved"
	}
	return rel, "within bound"
}

// compareBaseline prints, for every workload and end-to-end metric present
// in both documents, the change from the baseline and its verdict.
func compareBaseline(w io.Writer, base, cur document) {
	if !base.Host.Equal(cur.Host) {
		fmt.Fprintf(w, "baseline: host fingerprint differs (%+v vs %+v); deltas are not comparable\n", base.Host, cur.Host)
	}
	for _, r := range cur.Workloads {
		var b *workloadReport
		for i := range base.Workloads {
			if base.Workloads[i].Name == r.Name {
				b = &base.Workloads[i]
			}
		}
		if b == nil {
			fmt.Fprintf(w, "baseline: no %s in the baseline\n", r.Name)
			continue
		}
		for _, def := range endToEnd {
			bm, ok1 := b.Metrics[def.name]
			cm, ok2 := r.Metrics[def.name]
			if !ok1 || !ok2 {
				continue
			}
			rel, v := verdict(def, bm, cm)
			fmt.Fprintf(w, "baseline %-15s %-12s %12.6g -> %12.6g  %+7.2f%%  bound %4.0f%%  %s\n",
				r.Name, def.name, def.value(bm), def.value(cm), 100*rel, 100*def.bound, v)
		}
		// Any increase in failures is a regression.
		v := "within bound"
		if r.Metrics["fail_ratio"].Median > b.Metrics["fail_ratio"].Median {
			v = "worse"
		}
		fmt.Fprintf(w, "baseline %-15s %-12s %12.6g -> %12.6g  %s\n",
			r.Name, "fail_ratio", b.Metrics["fail_ratio"].Median, r.Metrics["fail_ratio"].Median, v)
	}
}

func loadDocument(path string) (document, error) {
	var d document
	f, err := os.Open(path)
	if err != nil {
		return d, fmt.Errorf("baseline: %w", err)
	}
	defer f.Close()
	// The document may be followed by the one-line result, as on stdout.
	if err := json.NewDecoder(f).Decode(&d); err != nil {
		return d, fmt.Errorf("baseline %s: %w", path, err)
	}
	return d, nil
}
