package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

	"dcpsim/internal/exp"
	"dcpsim/internal/exp/pool"
	"dcpsim/internal/obs"
	"dcpsim/internal/obs/flight"
	"dcpsim/internal/sim"
	"dcpsim/internal/stats"
	"dcpsim/internal/units"
)

// This file is the headless campaign runner. Units are submitted to the
// shared worker pool up front and merged strictly in unit order — never
// completion order — so the rendered bundle is byte-identical at any
// worker count. Each merged unit is checkpointed (canonical JSON + its
// SHA-256 digest) into the run directory; a re-run of the same document
// over the same directory skips checkpointed units and, because cached
// results round-trip exactly (the stats JSON codec is equality-exact),
// produces a bundle byte-identical to an uninterrupted run.
//
// Nothing in the bundle reads the wall clock: provenance is content
// hashes, versions and seeds, and the bench snapshot counts simulator
// events, not seconds. That is what makes resumed output reproducible
// byte-for-byte — the one BENCH field dcpbench reports that a campaign
// bundle deliberately omits.

// ErrAborted is returned when Options.AbortAfter stopped the run early;
// the run directory then holds a resumable checkpoint prefix.
var ErrAborted = errors.New("campaign run aborted by abort hook")

// Options configures one campaign execution.
type Options struct {
	// Dir is the run directory (checkpoints + bundle). Empty runs
	// ephemerally: no checkpoints, no bundle files.
	Dir string
	// Workers sizes the worker pool (<=1 → serial).
	Workers int
	// AbortAfter, when > 0, aborts the run after that many freshly
	// executed units have been checkpointed — the test and CI hook that
	// simulates a mid-campaign kill deterministically.
	AbortAfter int
}

// CompCount is one engine component's dispatched-event count, aggregated
// across a unit's cells. Counts come from the sim.Prof dispatch profiler
// (counts-only, no wall clock), so they are deterministic for a given
// seed and safe inside the byte-identical bundle.
type CompCount struct {
	Comp   string `json:"comp"`
	Events uint64 `json:"events"`
}

// UnitResult is everything one unit's execution produced. It is the
// checkpoint payload, so every field must marshal canonically (fixed
// field order, no maps) and round-trip exactly.
type UnitResult struct {
	ID   string `json:"id"`
	Kind string `json:"kind"`
	// Tables holds a registry experiment's rendered tables; Row a
	// scenario cell's pre-formatted result row.
	Tables  []*stats.Table    `json:"tables,omitempty"`
	Row     []string          `json:"row,omitempty"`
	Summary *stats.RunSummary `json:"summary,omitempty"`
	Sims    int               `json:"sims"`
	Events  int64             `json:"events"`
	// Comps attributes the unit's dispatched events to engine components
	// (enum order, zero rows omitted).
	Comps []CompCount `json:"comps,omitempty"`
	// CheckEvents/Violations/Autopsy come from the flight-recorder
	// checkers (observe.check).
	CheckEvents  int64    `json:"check_events"`
	Violations   int64    `json:"violations"`
	Autopsy      string   `json:"autopsy,omitempty"`
	TraceFiles   []string `json:"trace_files,omitempty"`
	MetricsFiles []string `json:"metrics_files,omitempty"`
}

// Report summarizes one Run.
type Report struct {
	Name     string
	Results  []*UnitResult
	Digests  []string // aligned with Results
	Cached   int      // units restored from checkpoints
	Executed int      // units freshly run

	Violations     int64
	ExpectFailures []string
	Aborted        bool
}

type unitPayload struct {
	tables []*stats.Table
	row    []string
}

// unitObs owns one unit's observers: invariant checkers on every sim
// when observe.check, plus trace/metrics exporters for the cells the doc
// names. Keys arrive from worker goroutines; everything is merged in
// CellKey order afterwards, so the exports are worker-count independent.
type unitObs struct {
	check    bool
	traces   map[string]bool
	metrics  map[string]bool
	interval units.Time

	mu       sync.Mutex
	keys     []exp.CellKey
	checkers map[exp.CellKey]*flight.Checker
	tracers  map[exp.CellKey]*obs.Tracer
	meters   map[exp.CellKey]*obs.Metrics
	profs    map[exp.CellKey]*sim.Prof
}

func newUnitObs(o Observe) *unitObs {
	u := &unitObs{
		check:    o.Check,
		traces:   map[string]bool{},
		metrics:  map[string]bool{},
		interval: units.Scale(units.Microsecond, o.MetricsIntervalUs),
		checkers: map[exp.CellKey]*flight.Checker{},
		tracers:  map[exp.CellKey]*obs.Tracer{},
		meters:   map[exp.CellKey]*obs.Metrics{},
		profs:    map[exp.CellKey]*sim.Prof{},
	}
	for _, k := range o.TraceCells {
		u.traces[k] = true
	}
	for _, k := range o.MetricsCells {
		u.metrics[k] = true
	}
	return u
}

// hook is installed as Config.Hook: it attaches observing sinks to every
// sim the unit constructs, keyed by the sim's deterministic CellKey.
func (uo *unitObs) hook(key exp.CellKey, s *exp.Sim) {
	ks := key.String()
	var tr *obs.Tracer
	if uo.check || uo.traces[ks] {
		tr = obs.NewTracer()
		if !uo.traces[ks] {
			tr.SetLimit(1) // flat memory: the checker consumes the stream online
		}
	}
	var ck *flight.Checker
	if uo.check {
		ck = flight.New(flight.Config{})
		tr.Tee(ck)
	}
	var m *obs.Metrics
	if uo.metrics[ks] {
		m = obs.NewMetrics(s.Eng, uo.interval)
	}
	if tr != nil || m != nil {
		s.Attach(tr, m)
	}
	// Counts-only dispatch profiler on every cell: deterministic component
	// attribution for the bundle's bench snapshot, no wall clock.
	pr := &sim.Prof{}
	s.Eng.AttachProf(pr)
	uo.mu.Lock()
	defer uo.mu.Unlock()
	uo.keys = append(uo.keys, key)
	uo.profs[key] = pr
	if ck != nil {
		uo.checkers[key] = ck
	}
	if tr != nil && uo.traces[ks] {
		uo.tracers[key] = tr
	}
	if m != nil {
		uo.meters[key] = m
	}
}

func (uo *unitObs) sortedKeys() []exp.CellKey {
	uo.mu.Lock()
	defer uo.mu.Unlock()
	keys := append([]exp.CellKey(nil), uo.keys...)
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	return keys
}

// pending is one submitted unit awaiting merge.
type pending struct {
	unit *Unit
	fut  *pool.Future[unitPayload]
	acc  *exp.StatsAccumulator
	obs  *unitObs
}

func submitUnit(p *pool.Pool, doc *Doc, u *Unit) *pending {
	acc := exp.NewStatsAccumulator()
	uo := newUnitObs(doc.Observe)
	cfg := exp.Config{Seed: doc.Seed, Scale: doc.Scale}.WithPool(p).WithExperiment(u.ExpID)
	cfg.Stats = acc
	cfg.Hook = uo.hook
	run := func() unitPayload {
		if u.Kind == UnitExperiment {
			return unitPayload{tables: u.exper.Run(cfg)}
		}
		return unitPayload{row: u.runCell(cfg)}
	}
	var fut *pool.Future[unitPayload]
	if u.Coordinator {
		fut = pool.GoFree(p, run)
	} else {
		fut = pool.Go(p, run)
	}
	return &pending{unit: u, fut: fut, acc: acc, obs: uo}
}

// finish waits for the unit and assembles its result, exporting trace
// and metrics files into obsDir (when non-empty). Runs on the merging
// goroutine, strictly in unit order.
func (pd *pending) finish(obsDir string) (*UnitResult, error) {
	payload := pd.fut.Wait()
	u := pd.unit
	res := &UnitResult{
		ID: u.ID, Kind: string(u.Kind),
		Tables: payload.tables, Row: payload.row,
		Summary: pd.acc.Summary(u.ExpID),
	}
	if res.Summary != nil {
		res.Events = res.Summary.Events
	}
	keys := pd.obs.sortedKeys()
	res.Sims = len(keys)
	var totalProf sim.Prof
	var autopsy strings.Builder
	for _, k := range keys {
		if pr := pd.obs.profs[k]; pr != nil {
			for i := range pr.Counts {
				totalProf.Counts[i] += pr.Counts[i]
			}
		}
		if ck := pd.obs.checkers[k]; ck != nil {
			res.CheckEvents += ck.Events()
			res.Violations += ck.Violations()
			if ck.Violations() > 0 {
				fmt.Fprintf(&autopsy, "autopsy %s\n", k)
				if err := ck.Finish().WriteText(&autopsy); err != nil {
					return nil, err
				}
			}
		}
		if tr := pd.obs.tracers[k]; tr != nil {
			rel := filepath.Join("traces", sanitize(k.String())+".jsonl")
			res.TraceFiles = append(res.TraceFiles, rel)
			if obsDir != "" {
				if err := writeFileWith(filepath.Join(obsDir, rel), tr.WriteJSONL); err != nil {
					return nil, err
				}
			}
		}
		if m := pd.obs.meters[k]; m != nil {
			rel := filepath.Join("metrics", sanitize(k.String())+".csv")
			res.MetricsFiles = append(res.MetricsFiles, rel)
			if obsDir != "" {
				if err := writeFileWith(filepath.Join(obsDir, rel), m.WriteCSV); err != nil {
					return nil, err
				}
			}
		}
	}
	res.Autopsy = autopsy.String()
	for c := sim.Comp(0); c < sim.NumComps; c++ {
		if totalProf.Counts[c] > 0 {
			res.Comps = append(res.Comps, CompCount{Comp: c.String(), Events: totalProf.Counts[c]})
		}
	}
	return res, nil
}

func sanitize(id string) string { return strings.ReplaceAll(id, "/", "_") }

func writeFileWith(path string, write func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var b strings.Builder
	if err := write(&b); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// digestOf is the canonical content hash of a unit result.
func digestOf(res *UnitResult) (string, []byte, error) {
	raw, err := json.Marshal(res)
	if err != nil {
		return "", nil, err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), raw, nil
}

// checkpoint is the on-disk per-unit completion record.
type checkpoint struct {
	Version int             `json:"version"`
	Unit    string          `json:"unit"`
	Digest  string          `json:"digest"`
	Result  json.RawMessage `json:"result"`
}

func checkpointPath(dir, unitID string) string {
	return filepath.Join(dir, "checkpoints", sanitize(unitID)+".json")
}

// loadCheckpoint restores a unit's cached result. A missing, truncated or
// digest-mismatched checkpoint (a real kill can leave one) is treated as
// absent — the unit simply re-executes deterministically.
func loadCheckpoint(dir, unitID string) (*UnitResult, string) {
	raw, err := os.ReadFile(checkpointPath(dir, unitID))
	if err != nil {
		return nil, ""
	}
	var ck checkpoint
	if json.Unmarshal(raw, &ck) != nil || ck.Version != 1 || ck.Unit != unitID {
		return nil, ""
	}
	var res UnitResult
	if json.Unmarshal(ck.Result, &res) != nil {
		return nil, ""
	}
	digest, _, err := digestOf(&res)
	if err != nil || digest != ck.Digest {
		return nil, ""
	}
	return &res, digest
}

// saveCheckpoint writes the record atomically (tmp + rename) so a kill
// mid-write never leaves a checkpoint that passes validation.
func saveCheckpoint(dir, unitID, digest string, raw []byte) error {
	path := checkpointPath(dir, unitID)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(checkpoint{Version: 1, Unit: unitID, Digest: digest, Result: raw}, "", " ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// lockFile pins a run directory to one campaign document.
type lockFile struct {
	Format    int     `json:"format"`
	Campaign  string  `json:"campaign"`
	DocSHA256 string  `json:"doc_sha256"`
	Seed      int64   `json:"seed"`
	Scale     float64 `json:"scale"`
}

func checkLock(dir string, want lockFile) error {
	path := filepath.Join(dir, "campaign.lock.json")
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		blob, merr := json.MarshalIndent(want, "", " ")
		if merr != nil {
			return merr
		}
		return os.WriteFile(path, append(blob, '\n'), 0o644)
	}
	if err != nil {
		return err
	}
	var got lockFile
	if err := json.Unmarshal(raw, &got); err != nil {
		return fmt.Errorf("unreadable %s: %w", path, err)
	}
	if got != want {
		return fmt.Errorf("run dir %s holds a different campaign (doc %s seed=%d scale=%g); use a fresh -out dir",
			dir, got.DocSHA256[:12], got.Seed, got.Scale)
	}
	return nil
}

// Run executes a compiled campaign. docBytes is the raw source document
// (hashed into the lock file and manifest, copied into the bundle).
func Run(c *Campaign, docBytes []byte, opts Options) (*Report, error) {
	doc := c.Doc
	docSum := sha256.Sum256(docBytes)
	docSHA := hex.EncodeToString(docSum[:])
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, err
		}
		lock := lockFile{Format: 1, Campaign: doc.Name, DocSHA256: docSHA, Seed: doc.Seed, Scale: doc.Scale}
		if err := checkLock(opts.Dir, lock); err != nil {
			return nil, err
		}
	}

	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	p := pool.New(workers)

	rep := &Report{
		Name:    doc.Name,
		Results: make([]*UnitResult, len(c.Units)),
		Digests: make([]string, len(c.Units)),
	}
	pendings := make([]*pending, len(c.Units))
	for i, u := range c.Units {
		if opts.Dir != "" {
			if res, digest := loadCheckpoint(opts.Dir, u.ID); res != nil {
				rep.Results[i], rep.Digests[i] = res, digest
				rep.Cached++
				continue
			}
		}
		pendings[i] = submitUnit(p, doc, u)
	}

	for i, u := range c.Units {
		pd := pendings[i]
		if pd == nil {
			continue // cached
		}
		res, err := pd.finish(opts.Dir)
		if err != nil {
			return nil, fmt.Errorf("unit %s: %w", u.ID, err)
		}
		digest, raw, err := digestOf(res)
		if err != nil {
			return nil, fmt.Errorf("unit %s: %w", u.ID, err)
		}
		if opts.Dir != "" {
			if err := saveCheckpoint(opts.Dir, u.ID, digest, raw); err != nil {
				return nil, fmt.Errorf("unit %s: %w", u.ID, err)
			}
		}
		rep.Results[i], rep.Digests[i] = res, digest
		rep.Executed++
		if opts.AbortAfter > 0 && rep.Executed >= opts.AbortAfter && i < len(c.Units)-1 {
			rep.Aborted = true
			return rep, ErrAborted
		}
	}

	for _, res := range rep.Results {
		rep.Violations += res.Violations
	}
	rep.ExpectFailures = evalExpect(c, rep.Results)

	if opts.Dir != "" {
		if err := writeBundle(opts.Dir, c, docBytes, docSHA, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// RenderTables renders every unit's tables plus one assembled table per
// scenario — the bundle's tables.txt, or dcpcampaign's stdout without a
// bundle directory.
func RenderTables(c *Campaign, results []*UnitResult) string {
	var b strings.Builder
	doc := c.Doc
	fmt.Fprintf(&b, "# campaign %s (seed=%d scale=%.2f)\n\n", doc.Name, doc.Seed, doc.Scale)
	byID := map[string]*UnitResult{}
	for _, r := range results {
		byID[r.ID] = r
	}
	for _, u := range c.Units {
		if u.Kind != UnitExperiment {
			continue
		}
		r := byID[u.ID]
		if r == nil {
			continue
		}
		fmt.Fprintf(&b, "### %s — %s\n\n", u.ID, u.Desc)
		for _, t := range r.Tables {
			fmt.Fprintln(&b, t.String())
		}
	}
	for _, sc := range doc.Scenarios {
		t := &stats.Table{
			Name:    fmt.Sprintf("Campaign %s: %s on %s", sc.ID, sc.Workload, sc.Topology),
			Columns: scenarioColumns(sc),
		}
		for _, u := range c.Units {
			if u.Kind != UnitCell || u.sc != sc {
				continue
			}
			if r := byID[u.ID]; r != nil {
				t.Rows = append(t.Rows, r.Row)
			}
		}
		fmt.Fprintf(&b, "### %s — campaign scenario (%d cells)\n\n", sc.ID, len(t.Rows))
		fmt.Fprintln(&b, t.String())
	}
	return b.String()
}

// renderStats merges per-unit summaries by experiment id into the same
// sorted CSV exp.StatsAccumulator writes.
func renderStats(c *Campaign, results []*UnitResult) string {
	byExp := map[string]*stats.RunSummary{}
	byID := map[string]*UnitResult{}
	for _, r := range results {
		byID[r.ID] = r
	}
	for _, u := range c.Units {
		r := byID[u.ID]
		if r == nil || r.Summary == nil {
			continue
		}
		cur := byExp[u.ExpID]
		if cur == nil {
			cur = &stats.RunSummary{}
			byExp[u.ExpID] = cur
		}
		cur.Merge(r.Summary)
	}
	ids := make([]string, 0, len(byExp))
	for id := range byExp {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var b strings.Builder
	fmt.Fprintln(&b, stats.RunSummaryCSVHeader)
	var total stats.RunSummary
	for _, id := range ids {
		total.Merge(byExp[id])
		byExp[id].WriteCSVRow(&b, id)
	}
	total.WriteCSVRow(&b, "TOTAL")
	return b.String()
}

// renderChecks writes one verdict line per unit in unit order, autopsies
// inline — the campaign twin of dcpbench -check output.
func renderChecks(c *Campaign, results []*UnitResult) string {
	var b strings.Builder
	byID := map[string]*UnitResult{}
	for _, r := range results {
		byID[r.ID] = r
	}
	for _, u := range c.Units {
		r := byID[u.ID]
		if r == nil {
			continue
		}
		verdict := "ok"
		if r.Violations > 0 {
			verdict = "VIOLATED"
		}
		fmt.Fprintf(&b, "check %-12s %-8s sims=%d events=%d violations=%d\n",
			r.ID, verdict, r.Sims, r.CheckEvents, r.Violations)
		b.WriteString(r.Autopsy)
	}
	return b.String()
}

// BenchSnapshot is the deterministic half of a BENCH record: simulated
// events per unit. Wall-clock throughput is deliberately absent — it
// would break resumed-bundle byte-identity — and can be recomputed from
// events/s of any live dcpbench run. Exported (with Manifest) as the
// bundle surface the diff engine in internal/obs/diff loads.
type BenchSnapshot struct {
	Campaign    string      `json:"campaign"`
	Seed        int64       `json:"seed"`
	Scale       float64     `json:"scale"`
	TotalEvents int64       `json:"total_events"`
	TotalSims   int64       `json:"total_sims"`
	Units       []BenchUnit `json:"units"`
}

// BenchUnit is one unit's slice of a BenchSnapshot.
type BenchUnit struct {
	ID     string      `json:"id"`
	Sims   int         `json:"sims"`
	Events int64       `json:"events"`
	Comps  []CompCount `json:"comps,omitempty"`
}

// Manifest is the bundle's provenance record: enough to re-execute and
// re-verify any single unit by id (Recheck does exactly that), and the
// per-unit digest index a bundle diff aligns on.
type Manifest struct {
	Campaign       string         `json:"campaign"`
	DocSHA256      string         `json:"doc_sha256"`
	GoVersion      string         `json:"go_version"`
	BinarySHA256   string         `json:"binary_sha256,omitempty"`
	Seed           int64          `json:"seed"`
	Scale          float64        `json:"scale"`
	Units          []ManifestUnit `json:"units"`
	Violations     int64          `json:"violations"`
	ExpectFailures []string       `json:"expect_failures,omitempty"`
}

// ManifestUnit is one unit's provenance row.
type ManifestUnit struct {
	ID         string `json:"id"`
	Kind       string `json:"kind"`
	Digest     string `json:"sha256"`
	Events     int64  `json:"events"`
	Sims       int    `json:"sims"`
	Violations int64  `json:"violations"`
}

// LoadManifest reads a completed bundle's manifest.json.
func LoadManifest(dir string) (*Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, fmt.Errorf("no manifest in %s (campaign incomplete?): %w", dir, err)
	}
	var man Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("unreadable manifest in %s: %w", dir, err)
	}
	return &man, nil
}

// LoadBenchSnapshot reads a completed bundle's bench.json.
func LoadBenchSnapshot(dir string) (*BenchSnapshot, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "bench.json"))
	if err != nil {
		return nil, fmt.Errorf("no bench snapshot in %s: %w", dir, err)
	}
	var bs BenchSnapshot
	if err := json.Unmarshal(raw, &bs); err != nil {
		return nil, fmt.Errorf("unreadable bench snapshot in %s: %w", dir, err)
	}
	return &bs, nil
}

// LoadCheckpoint restores unit unitID's checkpointed result from a run
// directory, verifying its recorded digest; a missing, truncated or
// digest-mismatched checkpoint returns (nil, ""). The digest returned is
// the unit's canonical content hash, equal to its Manifest entry.
func LoadCheckpoint(dir, unitID string) (*UnitResult, string) {
	return loadCheckpoint(dir, unitID)
}

// binaryDigest hashes the running executable — recorded so a bundle can
// be tied back to the exact binary that produced it. Best-effort: an
// un-stattable executable just omits the field.
func binaryDigest() string {
	path, err := os.Executable()
	if err != nil {
		return ""
	}
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	//lint:allow iocheck read-only digest descriptor: nothing was written, a Close error cannot lose data
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return ""
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeBundle(dir string, c *Campaign, docBytes []byte, docSHA string, rep *Report) error {
	if err := os.WriteFile(filepath.Join(dir, "campaign.doc"), docBytes, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "tables.txt"), []byte(RenderTables(c, rep.Results)), 0o644); err != nil {
		return err
	}
	if c.Doc.Observe.Stats {
		if err := os.WriteFile(filepath.Join(dir, "stats.csv"), []byte(renderStats(c, rep.Results)), 0o644); err != nil {
			return err
		}
	}
	if c.Doc.Observe.Check {
		if err := os.WriteFile(filepath.Join(dir, "checks.txt"), []byte(renderChecks(c, rep.Results)), 0o644); err != nil {
			return err
		}
	}

	bench := BenchSnapshot{Campaign: c.Doc.Name, Seed: c.Doc.Seed, Scale: c.Doc.Scale}
	man := Manifest{
		Campaign:       c.Doc.Name,
		DocSHA256:      docSHA,
		GoVersion:      runtime.Version(),
		BinarySHA256:   binaryDigest(),
		Seed:           c.Doc.Seed,
		Scale:          c.Doc.Scale,
		Violations:     rep.Violations,
		ExpectFailures: rep.ExpectFailures,
	}
	for i, u := range c.Units {
		r := rep.Results[i]
		bench.Units = append(bench.Units, BenchUnit{ID: u.ID, Sims: r.Sims, Events: r.Events, Comps: r.Comps})
		bench.TotalEvents += r.Events
		bench.TotalSims += int64(r.Sims)
		man.Units = append(man.Units, ManifestUnit{
			ID: u.ID, Kind: string(u.Kind), Digest: rep.Digests[i],
			Events: r.Events, Sims: r.Sims, Violations: r.Violations,
		})
	}
	if err := writeJSONFile(filepath.Join(dir, "bench.json"), bench); err != nil {
		return err
	}
	return writeJSONFile(filepath.Join(dir, "manifest.json"), man)
}

func writeJSONFile(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// RecheckResult reports one unit's provenance re-verification.
type RecheckResult struct {
	UnitID     string
	Recorded   string
	Recomputed string
	Match      bool
}

// Recheck re-executes a single unit of a completed run serially and
// compares its fresh result digest against the manifest — the "re-verify
// any cell from the bundle alone" half of the provenance contract.
func Recheck(c *Campaign, dir, unitID string) (*RecheckResult, error) {
	man, err := LoadManifest(dir)
	if err != nil {
		return nil, err
	}
	recorded := ""
	for _, mu := range man.Units {
		if mu.ID == unitID {
			recorded = mu.Digest
		}
	}
	if recorded == "" {
		return nil, fmt.Errorf("unit %q not in manifest (units: %d)", unitID, len(man.Units))
	}
	var unit *Unit
	for _, u := range c.Units {
		if u.ID == unitID {
			unit = u
		}
	}
	if unit == nil {
		return nil, fmt.Errorf("unit %q not in compiled campaign", unitID)
	}
	pd := submitUnit(nil, c.Doc, unit) // nil pool → inline serial execution
	res, err := pd.finish("")
	if err != nil {
		return nil, err
	}
	digest, _, err := digestOf(res)
	if err != nil {
		return nil, err
	}
	return &RecheckResult{
		UnitID: unitID, Recorded: recorded, Recomputed: digest,
		Match: digest == recorded,
	}, nil
}
