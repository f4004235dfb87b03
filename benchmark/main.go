// Command benchmark is dcpsim's benchmark of record. It times four
// workloads taken from the paper's evaluation end to end, checks their
// simulated output against committed digests, and with --trace 1 splits
// their host time across the simulator's layers in a separate traced run.
//
// Run it from the repository root; run.sh builds it into .bench_build:
//
//	bash benchmark/run.sh --seed 42                        # all four workloads
//	bash benchmark/run.sh --workload pair_stream --seed 7 --seconds 10 --trace 0
//	bash benchmark/run.sh --seed 42 -out new.json -baseline old.json
//
// Each workload runs in a child process of this binary: set-up rounds, one
// warm-up rep, then timed reps for --seconds. With --trace 1 a second child
// runs one traced rep. The JSON document goes to stdout (or -out), a table
// to stderr, and the last stdout line is a one-line result:
// {"correct", "attempted", "failed", "metrics"}. The exit status is 1 when
// any cell failed.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dcpsim/internal/bench"
)

// childTimeout bounds each child process; a hung child is killed and its
// workload counted as failed.
const childTimeout = 150 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all)")
	seed := fs.Int64("seed", 42, "seed the workloads' inputs are generated from")
	seconds := fs.Float64("seconds", 10, "how long each workload's timed reps run, after set-up and a warm-up rep")
	trace := fs.Int("trace", 1, "1: also run the traced run and print the per-layer metrics last; 0: print the end-to-end metrics")
	out := fs.String("out", "", "write the JSON document to this file instead of stdout")
	traceOut := fs.String("trace-out", "", "write the traced run's first 200k spans to this file as Chrome trace JSON")
	baseline := fs.String("baseline", "", "compare the end-to-end metrics with this earlier JSON document")
	child := fs.String("child", "", "internal: run one workload as a 'timed' or 'traced' child")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "benchmark: --seconds must be positive, --trace 0 or 1, and no positional arguments")
		return 2
	}
	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	if *child != "" {
		return runChild(*child, selected[0], *seed, *seconds, *traceOut, stdout, stderr)
	}

	golden, err := loadGolden()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	doc := document{Host: bench.LocalHost(), Seed: *seed, Seconds: *seconds, Traced: *trace == 1}
	for _, w := range selected {
		rep := measure(w, *seed, *seconds, doc.Traced, traceFile(*traceOut, w.name, len(selected)), golden, stderr)
		doc.Workloads = append(doc.Workloads, rep)
		doc.Attempted += rep.Attempted
		doc.Failed += rep.Failed
	}

	body, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	body = append(body, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, body, 0o644); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	} else if _, err := stdout.Write(body); err != nil {
		return 2
	}
	writeTable(stderr, doc)
	if *baseline != "" {
		base, err := loadDocument(*baseline)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		compareBaseline(stderr, base, doc)
	}
	line, err := resultLine(doc)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if doc.Failed > 0 {
		return 1
	}
	return 0
}

// measure runs one workload's children and summarizes them. A child that
// crashes or hangs fails every cell it was to run.
func measure(w workload, seed int64, seconds float64, traced bool, traceOut string, golden map[string]signature, stderr io.Writer) workloadReport {
	cells := len(w.cells(seed, 1))
	var childErrs []string
	var t timedResult
	if err := spawn("timed", w.name, seed, seconds, "", &t); err != nil {
		childErrs = append(childErrs, err.Error())
	}
	var tr *tracedResult
	if traced {
		var r tracedResult
		if err := spawn("traced", w.name, seed, seconds, traceOut, &r); err != nil {
			childErrs = append(childErrs, err.Error())
		} else {
			tr = &r
		}
	}
	rep := summarize(w, seed, golden, t, tr)
	for _, e := range childErrs {
		fmt.Fprintf(stderr, "benchmark: %s\n", e)
		rep.Failures = append(rep.Failures, e)
		rep.Attempted += cells
		rep.Failed += cells
	}
	rep.setFailRatio()
	return rep
}

// spawn runs this binary as a child for one workload and decodes the
// JSON it prints into res.
func spawn(mode, name string, seed int64, seconds float64, traceOut string, res any) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("%s child for %s: %w", mode, name, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", mode, "-workload", name,
		"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace-out", traceOut)
	// One core per child. On the 2-vCPU reference host, the medians of
	// 4-second windows of short pair_stream reps drifted by ±20% on two
	// cores (the GC's second core is the noisy one) and by ±2% on one.
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	// The child dies with the parent, so no child outlives the run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s child for %s seed %d: %w", mode, name, seed, err)
	}
	if err := json.Unmarshal(out.Bytes(), res); err != nil {
		return fmt.Errorf("%s child for %s seed %d: bad output: %w", mode, name, seed, err)
	}
	return nil
}

// runChild is the child side of spawn: it runs one workload and prints its
// result as JSON.
func runChild(mode string, w workload, seed int64, seconds float64, traceOut string, stdout, stderr io.Writer) int {
	specs := w.cells(seed, 1)
	var res any
	switch mode {
	case "timed":
		res = runTimed(specs, seconds)
	case "traced":
		r, err := runTraced(specs, traceOut)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		res = r
	default:
		fmt.Fprintf(stderr, "benchmark: unknown child mode %q\n", mode)
		return 2
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// traceFile names a workload's Chrome trace: the -trace-out path itself
// for one workload, else the path with the workload name before its
// extension.
func traceFile(path, workload string, n int) string {
	if path == "" || n == 1 {
		return path
	}
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + workload + ext
}
