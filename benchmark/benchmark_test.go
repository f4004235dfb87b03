package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcpsim/internal/exp"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from full-size runs at seeds 42 and 7")

// testScale shrinks every workload so each test runs in a few seconds.
const testScale = 0.05

// goldenSeeds are the seeds testdata/golden.json pins; 7 is held out for
// checking performance claims.
var goldenSeeds = []int64{42, 7}

// TestTracedMatchesUntraced runs every workload once plain and once traced:
// the instruments must not change a single cell's output, and the traced
// accounting must close.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, w := range workloads {
		specs := w.cells(7, testScale)
		_, plain := runRep(specs, nil)
		tr, err := runTraced(specs, "")
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range tr.Cells {
			if c.Err != "" || plain[i].Err != "" {
				t.Fatalf("%s/%s: traced err %q, plain err %q", w.name, c.Cell, c.Err, plain[i].Err)
			}
			if d := firstDiff(plain[i].Sig, c.Sig); d != "" {
				t.Errorf("%s/%s: traced output differs from untraced: %s", w.name, c.Cell, d)
			}
		}
		lt := accountLayers(tr)
		var sum float64
		for l, raw := range lt.Raw {
			if raw < 0 {
				t.Errorf("%s: layer %s has negative self time %.0f ns", w.name, layerNames[l], raw)
			}
			sum += raw
		}
		if off := sum/lt.RunNs - 1; off > 0.02 || off < -0.02 {
			t.Errorf("%s: engine plus layer self times %.0f ns are %.1f%% off the traced Run time %.0f ns",
				w.name, sum, 100*off, lt.RunNs)
		}
		if lt.Calls[layerCheck] == 0 {
			t.Errorf("%s: the flight-recorder checker saw no events", w.name)
		}
		if fabric := lt.Calls[layerFabric]; (w.name == "pair_stream") != (fabric == 0) {
			t.Errorf("%s: %.0f fabric events", w.name, fabric)
		}
	}
}

// TestCorruptGoldenFailsEveryCell checks that a golden that matches no cell
// fails every cell run, and that the failure names the workload, seed, cell
// and first differing flow.
func TestCorruptGoldenFailsEveryCell(t *testing.T) {
	w, _ := workloadByName("incast_trim")
	const seed = 3
	specs := w.cells(seed, testScale)
	res := timedResult{Setup: []float64{0.001}, Reps: []repSample{measureRep(specs)}}
	golden := map[string]signature{}
	for _, c := range res.Reps[0].Cells {
		bad := c.Sig
		toks := strings.Fields(bad.Flows)
		toks[1] = strings.Split(toks[1], ":")[0] + ":00000000"
		bad.Flows, bad.Digest = strings.Join(toks, " "), strings.Repeat("0", 64)
		golden[goldenKey(w.name, seed, c.Cell)] = bad
	}
	rep := summarize(w, seed, golden, res, nil)
	if got := rep.Metrics["fail_ratio"].Median; got != 1 {
		t.Fatalf("fail_ratio = %v with a corrupted golden, want 1 (failures: %v)", got, rep.Failures)
	}
	want := "workload incast_trim seed 3 cell dcp+cc (rep 0): output differs from the golden: flow 2 differs first"
	if len(rep.Failures) != 1 || !strings.HasPrefix(rep.Failures[0], want) {
		t.Errorf("failures = %q, want one starting %q", rep.Failures, want)
	}
}

// TestPanickingCellIsCounted checks failure isolation: a cell that panics
// is recorded as failed and the other cells still run and pass.
func TestPanickingCellIsCounted(t *testing.T) {
	w, _ := workloadByName("pair_stream")
	specs := append(w.cells(1, testScale), cellSpec{
		name:  "boom",
		sim:   func() *exp.Sim { panic("injected") },
		flows: func(*exp.Sim) {},
	})
	res := timedResult{Setup: []float64{0.001}, Reps: []repSample{measureRep(specs)}}
	rep := summarize(w, 1, nil, res, nil)
	if rep.Attempted != 2 || rep.Failed != 1 {
		t.Fatalf("attempted %d failed %d, want 2 and 1: %v", rep.Attempted, rep.Failed, rep.Failures)
	}
	if !strings.Contains(rep.Failures[0], "cell boom") || !strings.Contains(rep.Failures[0], "panic: injected") {
		t.Errorf("failure %q does not name the cell and the panic", rep.Failures[0])
	}
	line, err := resultLine(document{Workloads: []workloadReport{rep}, Attempted: rep.Attempted, Failed: rep.Failed})
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Correct           *bool
		Attempted, Failed int
		Metrics           map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal(line, &out); err != nil {
		t.Fatal(err)
	}
	if out.Correct == nil || *out.Correct || out.Attempted != 2 || out.Failed != 1 {
		t.Errorf("result line %s: want correct false, attempted 2, failed 1", line)
	}
	for _, d := range endToEnd {
		if _, ok := out.Metrics[d.name]; !ok {
			t.Errorf("result line lacks %s: %s", d.name, line)
		}
	}
}

// TestVerdict pins the -baseline classification.
func TestVerdict(t *testing.T) {
	def := metricDef{"alloc_mb", "MB", 0.10, false}
	m := func(xs ...float64) metric {
		ms := metricSet{}
		for _, x := range xs {
			ms.add("m", "s", x, nil)
		}
		return ms["m"]
	}
	for _, c := range []struct {
		base, cur metric
		want      string
	}{
		{m(1.00, 1.01, 1.02), m(1.01, 1.02, 1.03), "within bound"},
		{m(1.00, 1.01, 1.02), m(1.20, 1.21, 1.22), "worse"},
		{m(1.00, 1.01, 1.02), m(0.80, 0.81, 0.82), "improved"},
		{m(1.00, 1.30, 1.02), m(1.20, 1.05, 1.22), "unresolved"},
		{m(1.00, 1.30, 1.02), m(0.60, 0.61, 0.62), "improved"},
	} {
		if _, got := verdict(def, c.base, c.cur); got != c.want {
			t.Errorf("verdict(%v -> %v) = %s, want %s", c.base.Samples, c.cur.Samples, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and this program's metric
// and workload tables in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, b.Workloads[i].Name, w.name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		e := b.EndToEnd[i]
		if e.Name != d.name || e.Unit != d.unit || e.Bound != d.bound || e.Better != "lower" {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, e, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if e := b.PerLayer[i]; e.Name != d.name || e.Unit != d.unit {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, e, d)
		}
	}
}

// TestGolden checks that testdata/golden.json pins every cell of every
// workload at both golden seeds. With -update it first rewrites the file
// from full-size runs.
func TestGolden(t *testing.T) {
	if *update {
		g := map[string]signature{}
		for _, w := range workloads {
			for _, seed := range goldenSeeds {
				specs := w.cells(seed, 1)
				_, cells := runRep(specs, nil)
				for _, c := range cells {
					if c.Err != "" {
						t.Fatalf("%s seed %d cell %s: %s", w.name, seed, c.Cell, c.Err)
					}
					g[goldenKey(w.name, seed, c.Cell)] = c.Sig
				}
			}
		}
		data, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", "golden.json"), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		goldenJSON = data
	}
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, seed := range goldenSeeds {
			for _, spec := range w.cells(seed, 1) {
				if _, ok := g[goldenKey(w.name, seed, spec.name)]; !ok {
					t.Errorf("testdata/golden.json lacks %s (go test -update rewrites it)", goldenKey(w.name, seed, spec.name))
				}
			}
		}
	}
}
