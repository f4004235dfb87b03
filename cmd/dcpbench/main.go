// Command dcpbench regenerates the paper's tables and figures.
//
//	dcpbench -list                 # show available experiments
//	dcpbench -run fig10            # one experiment
//	dcpbench -run all -scale 0.25  # everything, scaled
//	dcpbench -run quick            # everything except the heavy CLOS runs
//	dcpbench -run all -workers 8   # same bytes, sharded across 8 workers
//	dcpbench -run quick -stats-csv stats.csv   # merged per-experiment stats
//	dcpbench -trace t.json -metrics m.csv   # observed incast demo run
//	dcpbench -check                # invariant-checked incast+link-flap smoke
//	dcpbench -check -run quick     # every non-heavy experiment under the checker
//	dcpbench -bench-json artifacts # BENCH_*.json perf snapshots
//	dcpbench -bench-json artifacts -bench-repeat 3   # median-of-3 wall numbers
//	dcpbench -bench-history artifacts/BENCH_HISTORY.jsonl   # append records
//	dcpbench -bench-compare artifacts/BENCH_BASELINE.jsonl  # regression fence
//	dcpbench -profile -run quick   # engine-dispatch attribution report
//	dcpbench -profile -profile-wall -profile-json p.json    # + host wall section
//
// Output is the same rows/series the paper reports; absolute values differ
// from the authors' testbed (this substrate is a simulator) but the shapes
// and orderings are the reproduction target. See EXPERIMENTS.md.
//
// The -trace/-metrics family runs an observed DCP incast on the dumbbell at
// 1% forced loss and exports the packet-lifecycle trace (Chrome trace-event
// JSON for Perfetto, or JSONL) and the sampled queue/rate time series
// (CSV). See DESIGN.md "Observability".
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"time"

	"dcpsim"
	"dcpsim/internal/exp"
	"dcpsim/internal/exp/pool"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list experiments")
		run      = flag.String("run", "", "experiment id, 'all', or 'quick'")
		seed     = flag.Int64("seed", 42, "simulation seed")
		scale    = flag.Float64("scale", 0.25, "workload scale (1.0 ≈ paper-sized)")
		fault    = flag.Bool("fault", false, "run the failure-recovery experiment family")
		severity = flag.Float64("fault-severity", 0, "pin fault experiments to one severity multiplier (0 = built-in sweep)")
		workers  = flag.Int("workers", pool.DefaultWorkers(), "worker goroutines for the experiment engine (1 = serial; output bytes are identical at any count)")
		statsCSV = flag.String("stats-csv", "", "write merged per-experiment run statistics (flows, bytes, retransmissions, FCT/slowdown percentiles) as CSV to this file")

		check    = flag.Bool("check", false, "run under the flight-recorder invariant checker; exit 1 on any violation (alone: incast+link-flap smoke; with -run/-fault: those experiments)")
		benchDir = flag.String("bench-json", "", "run the perf workloads and write one BENCH_<name>.json record per workload into this directory")

		benchReps = flag.Int("bench-repeat", 1, "repetitions per benchmark workload; wall numbers report the median, the spread becomes the record's noise figure")
		benchHist = flag.String("bench-history", "", "append this bench run's records to this JSONL history file (skipped for handicapped runs)")
		benchCmp  = flag.String("bench-compare", "", "run the noise-aware regression fence against this JSONL baseline; exit 1 on regression")
		benchHand = flag.Float64("bench-handicap", 1, "artificial wall-time multiplier for fence self-tests; handicapped records never enter the history")

		profile     = flag.Bool("profile", false, "run the selected experiments (default: all) under the engine profiler and print the per-component attribution report")
		profileJSON = flag.String("profile-json", "", "with -profile: also write the report as JSON to this file")
		profileWall = flag.Bool("profile-wall", false, "with -profile: inject the host clock to add the machine-varying wall-time and phase section")

		traceOut   = flag.String("trace", "", "write a Chrome trace-event JSON (Perfetto-loadable) of the observed demo run to this file")
		jsonlOut   = flag.String("trace-jsonl", "", "write the observed demo run's trace events as JSON lines to this file")
		metricsOut = flag.String("metrics", "", "write the observed demo run's metrics time series as CSV to this file")
		metricsInt = flag.Float64("metrics-interval", 10, "metrics probe cadence in simulated microseconds")
	)
	flag.Parse()

	if *traceOut != "" || *jsonlOut != "" || *metricsOut != "" {
		if err := observeDemo(*seed, *metricsInt, *traceOut, *jsonlOut, *metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *benchDir != "" || *benchHist != "" || *benchCmp != "" {
		err := runBench(benchOpts{
			dir: *benchDir, seed: *seed, reps: *benchReps,
			history: *benchHist, compare: *benchCmp, handicap: *benchHand,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *profile && *run == "" && !*fault {
		*run = "all"
	}

	if *check && *run == "" && !*fault {
		if n := checkSmoke(*seed); n > 0 {
			fmt.Fprintf(os.Stderr, "invariant check FAILED: %d violations\n", n)
			os.Exit(1)
		}
		fmt.Println("invariant check passed")
		return
	}

	if *list || (*run == "" && !*fault) {
		fmt.Println("experiments:")
		for _, e := range exp.All() {
			heavy := ""
			if e.Heavy {
				heavy = " [heavy]"
			}
			fmt.Printf("  %-10s %s%s\n", e.ID, e.Desc, heavy)
		}
		if *run == "" {
			fmt.Println("\nusage: dcpbench -run <id>|all|quick [-scale 0.25] [-seed 42] [-workers N] [-stats-csv out.csv]")
			fmt.Println("       dcpbench -fault [-fault-severity 1] [-scale 0.25]")
			fmt.Println("       dcpbench -check [-run <id>|all|quick]")
			fmt.Println("       dcpbench -bench-json <dir> [-bench-repeat N] [-bench-history h.jsonl] [-bench-compare base.jsonl]")
			fmt.Println("       dcpbench -profile [-run <id>|all|quick] [-profile-json p.json] [-profile-wall]")
		}
		return
	}

	cfg := exp.Config{Seed: *seed, Scale: *scale, FaultSeverity: *severity}.WithWorkers(*workers)
	if *statsCSV != "" {
		cfg.Stats = exp.NewStatsAccumulator()
	}
	var todo []exp.Experiment
	switch {
	case *fault && *run == "":
		for _, e := range exp.All() {
			if len(e.ID) > 6 && e.ID[:6] == "fault-" {
				todo = append(todo, e)
			}
		}
	case *run == "all":
		todo = exp.All()
	case *run == "quick":
		for _, e := range exp.All() {
			if !e.Heavy {
				todo = append(todo, e)
			}
		}
	default:
		e := exp.ByID(*run)
		if e == nil {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", *run)
			os.Exit(1)
		}
		todo = []exp.Experiment{*e}
	}

	if *profile {
		if err := runProfile(cfg, todo, profileOpts{jsonOut: *profileJSON, wall: *profileWall}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *check {
		n := runChecked(cfg, todo)
		if err := writeStatsCSV(*statsCSV, cfg.Stats); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if n > 0 {
			fmt.Fprintf(os.Stderr, "invariant check FAILED: %d violations\n", n)
			os.Exit(1)
		}
		fmt.Println("invariant check passed")
		return
	}

	//lint:allow detcheck wall-clock measures real elapsed time, not sim state
	start := time.Now()
	results := exp.RunRegistry(cfg, todo)
	for _, r := range results {
		fmt.Printf("### %s — %s (seed=%d scale=%.2f)\n\n", r.ID, r.Desc, *seed, *scale)
		for _, t := range r.Tables {
			fmt.Println(t.String())
		}
	}
	// Timing goes to stderr: stdout must be byte-identical across -workers.
	//lint:allow detcheck wall-clock measures real elapsed time, not sim state
	elapsed := time.Since(start).Round(time.Millisecond)
	fmt.Fprintf(os.Stderr, "(%d experiments, workers=%d, %s wall-clock)\n",
		len(results), cfg.Workers(), elapsed)
	if err := writeStatsCSV(*statsCSV, cfg.Stats); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// writeStatsCSV exports the accumulated per-experiment run summaries. The
// bytes are independent of worker count: summaries merge commutatively and
// the export sorts experiment ids.
func writeStatsCSV(path string, acc *exp.StatsAccumulator) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := acc.WriteCSV(bw); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// observeDemo runs a 12→1 DCP incast on the 16-host dumbbell at 1% forced
// loss — enough to saturate the receiver port's data queue and trim — with
// the observability layer attached, then writes the requested exports. The
// simulated run itself is fully deterministic; only the injected wall clock
// (engine self-profiling) varies between invocations.
func observeDemo(seed int64, intervalUs float64, traceOut, jsonlOut, metricsOut string) error {
	cluster := dcpsim.NewCluster(dcpsim.ClusterSpec{
		Topology:  dcpsim.Dumbbell,
		Hosts:     16,
		Transport: dcpsim.DCP,
		Seed:      seed,
		LossRate:  0.01,
	})
	spec := dcpsim.ObserveSpec{
		MetricsIntervalUs: intervalUs,
		//lint:allow detcheck wall-clock injection for engine self-profiling only; sim state never reads it
		WallNanos: func() int64 { return time.Now().UnixNano() },
	}
	var jsonlFile *os.File
	var jsonlBuf *bufio.Writer
	if jsonlOut != "" {
		f, err := os.Create(jsonlOut)
		if err != nil {
			return err
		}
		jsonlFile, jsonlBuf = f, bufio.NewWriter(f)
		spec.JSONL = jsonlBuf
	}
	ob := cluster.Observe(spec)

	// 12 senders × 8 MB into host 15: ~12 flows' worth of BDP converging on
	// one egress port exceeds the 1 MB trim threshold, so the data queue
	// saturates and trims while the HO control queue stays bounded.
	for src := 0; src < 12; src++ {
		cluster.Send(src, 15, 8<<20)
	}
	unfinished := cluster.Run()

	if jsonlBuf != nil {
		if err := jsonlBuf.Flush(); err != nil {
			return err
		}
		if err := jsonlFile.Close(); err != nil {
			return err
		}
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		bw := bufio.NewWriter(f)
		if err := ob.WriteChromeTrace(bw); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if metricsOut != "" {
		f, err := os.Create(metricsOut)
		if err != nil {
			return err
		}
		bw := bufio.NewWriter(f)
		if err := ob.WriteMetricsCSV(bw); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	fab := cluster.Fabric()
	fmt.Printf("observed incast demo: seed=%d sim_time=%.1fms unfinished=%d\n",
		seed, cluster.NowNanos()/1e6, unfinished)
	fmt.Printf("  trace: %d events buffered, %d dropped, %d trim→HO→retransmit chains\n",
		ob.Events(), ob.DroppedEvents(), ob.TrimChains())
	fmt.Printf("  fabric: %d trimmed, %d HO enqueued, %d HO dropped, max buffer %d B\n",
		fab.TrimmedPackets, fab.HOPackets, fab.DroppedHO, fab.MaxBufferBytes)
	fmt.Printf("  metrics: %d samples at %g µs cadence\n", ob.MetricsSamples(), intervalUs)
	for _, out := range []struct{ path, kind string }{
		{traceOut, "chrome trace (open in ui.perfetto.dev)"},
		{jsonlOut, "JSONL events"},
		{metricsOut, "metrics CSV"},
	} {
		if out.path != "" {
			fmt.Printf("  wrote %s: %s\n", out.kind, out.path)
		}
	}
	return nil
}
