package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dcpsim/internal/exp"
	"dcpsim/internal/exp/pool"
	"dcpsim/internal/fabric"
)

//lint:allow detcheck the benchmark measures host time; no simulation state reads it
var epoch = time.Now()

// nowNs reads the host's monotonic clock in nanoseconds since start-up.
func nowNs() int64 {
	//lint:allow detcheck the benchmark measures host time; no simulation state reads it
	return int64(time.Since(epoch))
}

// An instrument attaches observers to a freshly built sim before its flows
// are scheduled. The returned function runs after the sim finishes and
// reports anything the observers found wrong.
type instrument func(s *exp.Sim) (finish func() error)

// signature identifies a cell's simulated output. Digest is a SHA-256 over
// every flow's ID, Done, End, DataPkts, RetransPkts, Timeouts and HOTriggers
// and over the switch counters. Flows holds one "id:crc" token per flow plus
// a final "switch:crc" token, so a mismatch can name what differs first.
// Event counts and the final clock are left out: a bounded Run always ends
// at its cap, and a change may reach the same result with fewer events.
type signature struct {
	Digest string `json:"digest"`
	Flows  string `json:"flows"`
}

func sign(s *exp.Sim) signature {
	h := sha256.New()
	var toks strings.Builder
	for _, f := range s.Col.Flows() {
		line := fmt.Sprintf("%d %t %d %d %d %d %d\n",
			f.ID, f.Done, f.End.Picos(), f.DataPkts, f.RetransPkts, f.Timeouts, f.HOTriggers)
		h.Write([]byte(line))
		fmt.Fprintf(&toks, "%d:%08x ", f.ID, crc32.ChecksumIEEE([]byte(line)))
	}
	sw := fmt.Sprintf("%+v\n", s.Net.Counters())
	h.Write([]byte(sw))
	fmt.Fprintf(&toks, "switch:%08x", crc32.ChecksumIEEE([]byte(sw)))
	return signature{Digest: hex.EncodeToString(h.Sum(nil)), Flows: toks.String()}
}

// firstDiff describes the first flow (or the switch counters) where got
// departs from want, or returns "" when the digests agree.
func firstDiff(want, got signature) string {
	if want.Digest == got.Digest {
		return ""
	}
	w, g := strings.Fields(want.Flows), strings.Fields(got.Flows)
	for i := 0; i < len(w) || i < len(g); i++ {
		var a, b string
		if i < len(w) {
			a = w[i]
		}
		if i < len(g) {
			b = g[i]
		}
		if a == b {
			continue
		}
		what, _, _ := strings.Cut(a+b, ":")
		if what == "switch" {
			return fmt.Sprintf("switch counters differ (want %s, got %s)", a, b)
		}
		return fmt.Sprintf("flow %s differs first (want %q, got %q)", what, a, b)
	}
	return "digest differs"
}

// cellResult is what one cell run reports: its output signature, the
// simulated counters the per-layer metrics use, and its host times.
type cellResult struct {
	Cell        string                `json:"cell"`
	Err         string                `json:"err,omitempty"`
	Sig         signature             `json:"sig"`
	Flows       int                   `json:"flows"`
	Finished    int                   `json:"finished"`
	DataPkts    int64                 `json:"data_pkts"`
	RetransPkts int64                 `json:"retx_pkts"`
	Timeouts    int64                 `json:"timeouts"`
	Switch      fabric.SwitchCounters `json:"switch"`
	Events      uint64                `json:"events"`
	Cancelled   uint64                `json:"cancelled"`
	MaxHeap     int                   `json:"max_heap"`
	SetupNs     int64                 `json:"setup_ns"`
	RunNs       int64                 `json:"run_ns"`
	WaitNs      int64                 `json:"wait_ns"`
}

// runCell builds, runs and summarises one cell. A panic anywhere in it is
// recovered and recorded as the cell's error, so one bad cell never takes
// down the rest of the run.
func runCell(spec cellSpec, inst instrument) (r cellResult) {
	r.Cell = spec.name
	defer func() {
		if p := recover(); p != nil {
			r.Err = fmt.Sprintf("panic: %v", p)
			fmt.Fprintf(os.Stderr, "cell %s panicked: %v\n%s", spec.name, p, debug.Stack())
		}
	}()
	t0 := nowNs()
	s := spec.sim()
	var finish func() error
	if inst != nil {
		finish = inst(s)
	}
	spec.flows(s)
	t1 := nowNs()
	unfinished := s.Run(simCap)
	r.SetupNs, r.RunNs = t1-t0, nowNs()-t1

	r.Sig = sign(s)
	for _, f := range s.Col.Flows() {
		r.Flows++
		if f.Done {
			r.Finished++
		}
		r.DataPkts += f.DataPkts
		r.RetransPkts += f.RetransPkts
		r.Timeouts += f.Timeouts
	}
	r.Switch = s.Net.Counters()
	r.Events, r.Cancelled, r.MaxHeap = s.Eng.Executed, s.Eng.CancelledDrops, s.Eng.MaxHeapDepth
	if unfinished > 0 {
		r.Err = fmt.Sprintf("%d of %d flows unfinished at the %v cap", unfinished, r.Flows, simCap)
	}
	if finish != nil {
		if err := finish(); err != nil && r.Err == "" {
			r.Err = err.Error()
		}
	}
	return r
}

// runRep runs every cell once through pool.Map, as the experiment sweeps
// do, and returns the rep's wall time, from the first cell build to the
// last cell done. A cell's wait is the time from the rep's start to its
// own. inst, when non-nil, supplies each cell's instrument.
func runRep(specs []cellSpec, inst func(i int) instrument) (int64, []cellResult) {
	t0 := nowNs()
	cells := pool.Map(pool.New(workersFor(len(specs))), len(specs), func(i int) cellResult {
		wait := nowNs() - t0
		var in instrument
		if inst != nil {
			in = inst(i)
		}
		r := runCell(specs[i], in)
		r.WaitNs = wait
		return r
	})
	return nowNs() - t0, cells
}

// workersFor is how many pool workers a workload's reps use: one per CPU,
// never more than there are cells.
func workersFor(cells int) int { return min(pool.DefaultWorkers(), cells) }

// repSample is one rep's host-side measurements, taken with tracing off.
type repSample struct {
	Warmup     bool         `json:"warmup,omitempty"`
	WallS      float64      `json:"wall_s"`
	CPUS       float64      `json:"cpu_s"`
	AllocB     uint64       `json:"alloc_b"`
	PeakRSSB   int64        `json:"peak_rss_b"`
	GCCycles   uint32       `json:"gc_cycles"`
	GCCPUShare float64      `json:"gc_cpu_share"`
	Workers    int          `json:"workers"`
	Cells      []cellResult `json:"cells"`
}

// measureRep runs one untraced rep. Each rep starts from a collected heap
// whose free pages went back to the OS, so it pays for its own garbage and
// its own page faults, and its peak RSS is its own.
func measureRep(specs []cellSpec) repSample {
	debug.FreeOSMemory()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, used0 := gcCPU()
	resetPeakRSS()
	cpu0 := cpuNs()
	wall, cells := runRep(specs, nil)
	cpu1 := cpuNs()
	rss := peakRSS()
	runtime.ReadMemStats(&m1)
	// The runtime/metrics CPU classes are only brought up to date by a GC.
	runtime.GC()
	gc1, used1 := gcCPU()
	return repSample{
		WallS: float64(wall) / 1e9, CPUS: float64(cpu1-cpu0) / 1e9,
		AllocB: m1.TotalAlloc - m0.TotalAlloc, PeakRSSB: rss, GCCycles: m1.NumGC - m0.NumGC,
		GCCPUShare: ratio(gc1-gc0, used1-used0), Workers: workersFor(len(specs)), Cells: cells,
	}
}

// resetPeakRSS starts a new peak-RSS window for this process (Linux 4.0
// and later). It is best effort: where it fails, peakRSS reports the peak
// since the process started.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS is the process's peak resident set in bytes since the last
// resetPeakRSS, or 0 where /proc is not available.
func peakRSS() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 10, 64)
			return kb << 10
		}
	}
	return 0
}

// cpuNs is the process's user plus system CPU time, every thread included.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// gcCPU returns the runtime's estimates of CPU seconds spent in GC and of
// CPU seconds used at all (available minus idle).
func gcCPU() (gc, used float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// timedResult is what the timed child reports for one workload.
type timedResult struct {
	// Setup holds the set-up-only rounds: each builds every cell of the
	// workload (topology, transport install, flow generation,
	// ScheduleFlows) without running it, seconds summed over cells.
	Setup []float64   `json:"setup_s"`
	Reps  []repSample `json:"reps"`
}

// Set-up rounds: at least minSetupRounds, then more while they fit in
// setupBudgetNs, up to maxSetupRounds. Set-up is milliseconds or less, so
// it needs many samples for a steady median.
const (
	minSetupRounds = 5
	maxSetupRounds = 101
	setupBudgetNs  = 500e6
	// minReps timed reps run however long they take.
	minReps = 3
)

// runTimed is the timed child: set-up rounds, one warm-up rep, then timed
// reps back to back (a closed loop) until seconds have passed.
func runTimed(specs []cellSpec, seconds float64) timedResult {
	var res timedResult
	start := nowNs()
	for len(res.Setup) < minSetupRounds || (nowNs()-start < setupBudgetNs && len(res.Setup) < maxSetupRounds) {
		runtime.GC()
		res.Setup = append(res.Setup, float64(setupOnly(specs))/1e9)
	}
	warm := measureRep(specs)
	warm.Warmup = true
	res.Reps = append(res.Reps, warm)
	deadline := nowNs() + int64(seconds*1e9)
	for n := 0; n < minReps || nowNs() < deadline; n++ {
		res.Reps = append(res.Reps, measureRep(specs))
	}
	return res
}

// setupOnly builds every cell without running it and returns the summed
// set-up time. A cell whose set-up panics is skipped here; its rep cells
// record the failure.
func setupOnly(specs []cellSpec) int64 {
	var total int64
	for _, spec := range specs {
		func() {
			defer func() { _ = recover() }()
			t0 := nowNs()
			spec.flows(spec.sim())
			total += nowNs() - t0
		}()
	}
	return total
}
