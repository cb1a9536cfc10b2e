package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/coverage"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// metricDef declares one reported metric. The lists below must match
// BENCHMARK.json's end_to_end and per_layer entries name for name and
// unit for unit (the smoke test checks it).
type metricDef struct{ Name, Unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"faults_per_s", "1/s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"live_heap_mb", "MB"},
}

var perLayerMetrics = func() []metricDef {
	var defs []metricDef
	for _, s := range []string{spanUniverse, spanSynth, spanCapture, spanRefStream, spanCompile, spanInject} {
		defs = append(defs, metricDef{s + "_ms", "ms"})
	}
	defs = append(defs, metricDef{"faults.replay_ms", "ms"})
	for _, k := range kernels {
		defs = append(defs, metricDef{replaySpan[k] + "_ms", "ms"})
	}
	for _, k := range kernels {
		defs = append(defs, metricDef{replaySpan[k] + "_ns_per_fault_uop", "ns"})
	}
	return append(defs,
		metricDef{spanScalar + "_ms", "ms"},
		metricDef{"coverage.scalar_us_per_fault", "us"},
		metricDef{spanReport + "_ms", "ms"},
		metricDef{spanRender + "_ms", "ms"},
		metricDef{"coverage.residual_ms", "ms"},
		metricDef{"coverage.lanes_per_batch", "count"},
		metricDef{"coverage.stream_fallback_ratio", "ratio"},
		metricDef{"artifact.universe.hit_ratio", "ratio"},
		metricDef{"artifact.stream.hit_ratio", "ratio"},
		metricDef{"artifact.controller.hit_ratio", "ratio"},
		metricDef{"artifact.uops.hit_ratio", "ratio"},
		metricDef{"artifact.partition.hit_ratio", "ratio"},
		metricDef{"trace.op_ms", "ms"},
		metricDef{"trace.overhead_pct", "%"},
		metricDef{"serve.submit_ms", "ms"},
		metricDef{"serve.report_ms", "ms"},
		metricDef{"serve.run_ms", "ms"},
		metricDef{"serve.wait_ms", "ms"},
		metricDef{"serve.wait_p90_ms", "ms"},
		metricDef{"serve.checkpoints_per_job", "count"},
		metricDef{"serve.attempts_per_job", "count"},
		metricDef{"resilience.journal_append_ms", "ms"},
		metricDef{"runtime.alloc_mb_per_op", "MB"},
		metricDef{"runtime.peak_rss_mb", "MB"},
	)
}()

// setupProbes is how many times a run measures its set-up.
const setupProbes = 9

// runOne runs one workload. An untraced run reports the end-to-end
// metrics; a traced run first runs an untraced sibling process for the
// production baselines, then runs every op both ways and reports the
// per-layer metrics.
func runOne(ctx context.Context, cfg runConfig) (*runRecord, error) {
	if clients(cfg.Workload) == 1 {
		// The grade workloads grade on one worker. Confining the runtime
		// to one CPU keeps the collector's work inside the ops rather than
		// on a second CPU that the host's other tenants share: interleaved
		// grade-fleet runs varied ±12% at two CPUs and ±3% at one.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	if cfg.Trace {
		return runTraced(ctx, cfg)
	}
	setupS, err := measureSetup(ctx, cfg)
	if err != nil {
		return nil, err
	}
	e, err := setup(cfg)
	if err != nil {
		return nil, err
	}
	defer e.close()
	r, err := newRunner(cfg, e, false)
	if err != nil {
		return nil, err
	}
	defer r.close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := r.window(ctx); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	allocMB := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	if len(r.heapMB) == 0 {
		r.heapMB = append(r.heapMB, liveHeapMB())
	}
	if err := r.verify(ctx); err != nil {
		return nil, err
	}
	rec, err := r.record()
	if err != nil {
		return nil, err
	}
	rec.PeakRSSMB = peakRSSMB()
	rec.AllocMBPerOp = allocMB / float64(rec.Attempted)
	var busyMS float64
	var nFaults int
	walls := make([]float64, len(rec.Ops))
	for i, o := range rec.Ops {
		busyMS += o.WallMS
		nFaults += o.Faults
		walls[i] = o.WallMS
	}
	// Throughput divides by the clients' op time, not the window's, so
	// the benchmark's own bookkeeping between ops stays out of it.
	busyS := busyMS / 1e3 / float64(len(r.clients))
	rec.Metrics, err = metricSet(endToEndMetrics, map[string]float64{
		"setup_s":      setupS,
		"faults_per_s": float64(nFaults) / busyS,
		"ops_per_s":    float64(len(rec.Ops)) / busyS,
		"op_p50_ms":    quantile(walls, 0.5),
		"op_p90_ms":    quantile(walls, 0.9),
		"live_heap_mb": quantile(r.heapMB, 0.5),
	})
	return rec, err
}

func runTraced(ctx context.Context, cfg runConfig) (*runRecord, error) {
	sib, err := untracedSibling(ctx, cfg)
	if err != nil {
		return nil, err
	}
	reg := obs.Enable()
	defer obs.Disable()
	e, err := setup(cfg)
	if err != nil {
		return nil, err
	}
	defer e.close()
	r, err := newRunner(cfg, e, true)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if err := r.window(ctx); err != nil {
		return nil, err
	}
	// Snapshot before anything after the window grades more.
	snap := map[string]obs.Metric{}
	for _, m := range reg.Snapshot() {
		snap[m.Name] = m
	}
	decomposed := 0
	for _, c := range r.clients {
		decomposed += c.decomposed
	}
	var journalMS float64
	if cfg.Workload == "service-mixed" {
		if err := r.traceJobs(ctx); err != nil {
			return nil, err
		}
		if journalMS, err = journalAppendMS(e.dir); err != nil {
			return nil, err
		}
	}
	if err := r.verify(ctx); err != nil {
		return nil, err
	}
	rec, err := r.record()
	if err != nil {
		return nil, err
	}
	if rec.Metrics, err = metricSet(perLayerMetrics, r.layerMetrics(rec.Ops, sib, snap, decomposed, journalMS)); err != nil {
		return nil, err
	}
	rec.Attempted += sib.Attempted
	rec.Failed += sib.Failed
	rec.Correct = rec.Failed == 0
	if cfg.TraceOut != "" {
		tr := newTracer(time.Time{}, true)
		for _, c := range r.clients {
			tr.merge(c.tr)
		}
		if err := tr.appendSpans(cfg.TraceOut, cfg.Workload); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// layerMetrics derives the per-layer metrics of a traced run from its
// ops, its untraced sibling and the obs snapshot taken after the window,
// by which time the decomposed pipeline had built decomposed reports.
// Layer times are self times per op, so together with
// coverage.residual_ms they add up to the production op time.
func (r *runner) layerMetrics(ops []opRecord, sib *runRecord, snap map[string]obs.Metric, decomposed int, journalMS float64) map[string]float64 {
	tr := newTracer(time.Time{}, false)
	var jobs []jobTrace
	engineRuns := 0
	for _, c := range r.clients {
		tr.merge(c.tr)
		jobs = append(jobs, c.traces...)
		engineRuns += c.engineRuns
	}
	n := float64(len(ops))
	m := map[string]float64{}
	var layersMS float64
	for _, s := range []string{spanUniverse, spanSynth, spanCapture, spanRefStream, spanCompile, spanInject, spanScalar, spanReport, spanRender} {
		m[s+"_ms"] = tr.selfMS(s) / n
		layersMS += m[s+"_ms"]
	}
	var replayMS float64
	for _, k := range kernels {
		s := replaySpan[k]
		m[s+"_ms"] = tr.selfMS(s) / n
		m[s+"_ns_per_fault_uop"] = ratio(float64(tr.self[s]), float64(tr.work[s]))
		replayMS += m[s+"_ms"]
	}
	m["faults.replay_ms"] = replayMS
	layersMS += replayMS
	m["coverage.scalar_us_per_fault"] = ratio(float64(tr.self[spanScalar])/1e3, float64(tr.work[spanScalar]))
	var total time.Duration
	for _, d := range tr.self {
		total += d
	}
	m["trace.op_ms"] = float64(total) / float64(time.Millisecond) / n

	// The untraced sibling ran the same ops at the same indices.
	sibWall := make(map[int]float64, len(sib.Ops))
	for _, o := range sib.Ops {
		sibWall[o.Index] = o.WallMS
	}
	var traced, untraced float64
	matched := 0
	for _, o := range ops {
		if w, ok := sibWall[o.Index]; ok {
			traced += o.WallMS
			untraced += w
			matched++
		}
	}
	m["trace.overhead_pct"] = 0
	if untraced > 0 {
		m["trace.overhead_pct"] = 100*traced/untraced - 100
	}

	var submit, report, run, wait []float64
	var ckpts, attempts, gradeRunMS float64
	for _, j := range jobs {
		submit = append(submit, msOf(j.submit))
		report = append(report, msOf(j.report))
		run = append(run, msOf(j.run))
		wait = append(wait, msOf(j.latency-j.submit-j.report-j.run))
		ckpts += float64(j.checkpoints)
		attempts += float64(j.attempts)
		if jobGrade(j.op.Job) != nil {
			gradeRunMS += msOf(j.run)
		}
	}
	m["serve.submit_ms"] = quantile(submit, 0.5)
	m["serve.report_ms"] = quantile(report, 0.5)
	m["serve.run_ms"] = quantile(run, 0.5)
	m["serve.wait_ms"] = quantile(wait, 0.5)
	m["serve.wait_p90_ms"] = quantile(wait, 0.9)
	m["serve.checkpoints_per_job"] = ratio(ckpts, float64(len(jobs)))
	m["serve.attempts_per_job"] = ratio(attempts, float64(len(jobs)))
	m["resilience.journal_append_ms"] = journalMS

	// The residual is what production spends outside the decomposed
	// layers: partitioning, the arena pool, verdict commit and cache
	// lookups. Its baseline is the untraced op (a grade), or the grade
	// job's library call timed standalone (a service job).
	prodMS := ratio(untraced, float64(matched))
	if len(jobs) > 0 {
		prodMS = gradeRunMS / n
	}
	m["coverage.residual_ms"] = prodMS - layersMS

	m["coverage.lanes_per_batch"] = ratio(float64(snap["coverage.batch_lanes"].Sum), float64(snap["coverage.batch_lanes"].Count))
	m["coverage.stream_fallback_ratio"] = ratio(float64(snap["coverage.stream_fallbacks"].Value), float64(engineRuns))
	for _, a := range []string{"universe", "stream", "controller", "uops", "partition"} {
		p := "artifact." + a + "."
		hits := float64(snap[p+"hits"].Value)
		if a == "universe" {
			// Each decomposed report came from coverage.ReportFromState,
			// which found its universe in the production cache; those
			// lookups are not production's.
			hits -= float64(decomposed)
		}
		m[p+"hit_ratio"] = ratio(hits, hits+float64(snap[p+"misses"].Value+snap[p+"waits"].Value))
	}
	m["runtime.alloc_mb_per_op"] = sib.AllocMBPerOp
	m["runtime.peak_rss_mb"] = sib.PeakRSSMB
	return m
}

// metricSet pairs every declared metric with its measured value.
func metricSet(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	if len(values) != len(defs) {
		return nil, fmt.Errorf("measured %d metrics, declared %d", len(values), len(defs))
	}
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// measureSetup runs setupProbes probe processes, each of which sets the
// workload up as a run does and reports when it is ready for its first
// op, and returns the median time from launch to ready in seconds. Work
// moved into process start or set-up therefore shows here.
func measureSetup(ctx context.Context, cfg runConfig) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var samples []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.CommandContext(ctx, self, "-setup-probe", "-workload", cfg.Workload,
			"-seed", strconv.FormatInt(cfg.Seed, 10), "-scale", cfg.Scale)
		cmd.Stderr = os.Stderr
		start := time.Now()
		out, err := cmd.Output()
		if err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		ready, err := strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("setup probe printed %q: %w", out, err)
		}
		samples = append(samples, time.Unix(0, ready).Sub(start).Seconds())
	}
	return quantile(samples, 0.5), nil
}

// probeSetup is a setup probe's whole life: set up, report the wall
// clock in nanoseconds, tear down.
func probeSetup(cfg runConfig) error {
	e, err := setup(cfg)
	if err != nil {
		return err
	}
	fmt.Println(time.Now().UnixNano())
	e.close()
	return nil
}

// untracedSibling runs the same workload untraced in a fresh process
// and returns its record: the production op times a traced run is
// compared against, and the memory figures tracing would distort.
func untracedSibling(ctx context.Context, cfg runConfig) (*runRecord, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "mbistperf-sibling-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	out := filepath.Join(dir, "run.json")
	cmd := exec.CommandContext(ctx, self, "-workload", cfg.Workload, "-seed", strconv.FormatInt(cfg.Seed, 10),
		"-seconds", strconv.Itoa(cfg.Seconds), "-scale", cfg.Scale, "-trace", "0", "-out", out)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	runErr := cmd.Run()
	doc, err := readOut(out)
	if err != nil || len(doc.Runs) != 1 {
		return nil, fmt.Errorf("untraced sibling run: %v (record: %v)", runErr, err)
	}
	return &doc.Runs[0], nil
}

// journalAppendMS times resilience.Journal.Append of a checkpoint the
// size a 256×4 grade journals (48,816 faults) and returns the median.
func journalAppendMS(dir string) (float64, error) {
	const faults, appends = 48_816, 15
	j, _, err := resilience.OpenJournal(filepath.Join(dir, "append-probe.journal"), "mbistperf")
	if err != nil {
		return 0, err
	}
	st := &coverage.State{Graded: make([]bool, faults), Detected: make([]bool, faults)}
	for i := range st.Graded {
		st.Graded[i] = true
		st.Detected[i] = i%7 != 0
	}
	var samples []float64
	for i := 0; i < appends; i++ {
		t := time.Now()
		if err := j.Append(st); err != nil {
			j.Close()
			return 0, err
		}
		samples = append(samples, msSince(t))
	}
	return quantile(samples, 0.5), j.Close()
}

// liveHeapMB collects garbage and returns the live heap in MB (2^20
// bytes).
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile interpolates the q-quantile of values linearly between
// closest ranks; 0 for no values.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msSince(t time.Time) float64 { return msOf(time.Since(t)) }

// outFile is the -out document: every run appended to it.
type outFile struct {
	Schema string      `json:"schema"`
	Runs   []runRecord `json:"runs"`
}

const outSchema = "mbistperf/1"

func readOut(path string) (*outFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc outFile
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != outSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, outSchema)
	}
	return &doc, nil
}

// appendOut appends rec to the -out document at path, creating it.
func appendOut(path string, rec *runRecord) error {
	doc, err := readOut(path)
	if os.IsNotExist(err) {
		doc, err = &outFile{Schema: outSchema}, nil
	}
	if err != nil {
		return err
	}
	doc.Runs = append(doc.Runs, *rec)
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
