package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/coverage"
	"repro/internal/serve"
)

// runConfig is one invocation's settings.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
	Scale    string
	TraceOut string
}

// env is what a run sets up before its first timed op: the golden
// digests and, for the service workload, a journaled mbistd behind an
// httptest server.
type env struct {
	golden map[string]string
	dir    string
	srv    *serve.Server
	ts     *httptest.Server
}

func setup(cfg runConfig) (*env, error) {
	golden, err := loadGolden()
	if err != nil {
		return nil, err
	}
	e := &env{golden: golden}
	if cfg.Workload != "service-mixed" {
		return e, nil
	}
	if e.dir, err = os.MkdirTemp("", "mbistperf-journal-"); err != nil {
		return nil, err
	}
	if e.srv, err = serve.New(serve.Options{Workers: 2, JournalDir: e.dir}); err != nil {
		e.close()
		return nil, err
	}
	e.ts = httptest.NewServer(e.srv.Handler())
	return e, nil
}

func (e *env) close() {
	if e.ts != nil {
		e.ts.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// opRecord is one op as -out records it, so later changes can be
// compared op by op.
type opRecord struct {
	Index  int     `json:"index"`
	Key    string  `json:"key"`
	WallMS float64 `json:"wall_ms"`
	Faults int     `json:"faults"`
	Digest string  `json:"digest,omitempty"`
	Error  string  `json:"error,omitempty"`
}

// result is the line a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is one run as -out records it.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	Scale    string `json:"scale"`
	result
	PeakRSSMB    float64    `json:"peak_rss_mb"`
	AllocMBPerOp float64    `json:"alloc_mb_per_op"`
	Ops          []opRecord `json:"ops"`
}

// runner executes one workload's ops against an env.
type runner struct {
	cfg     runConfig
	env     *env
	clients []*client
	// spotAll spot-checks every grade op, not a sample (-update-golden).
	spotAll bool
	// refuted maps each key the after-window checks refuted to why;
	// jobFaults is each service grade job's fault count, counted after
	// the window so the count does not compete with the server.
	refuted   map[string]string
	jobFaults map[string]int
	// heapMB holds the live-heap samples the window took.
	heapMB []float64
}

// client is one closed-loop client's state; only its own goroutine
// touches it while the window runs.
type client struct {
	// log receives each op's record as a JSON line, so the records stay
	// out of the heap the run measures.
	log    *os.File
	logBuf *bufio.Writer
	// spot holds the scalar spot checks to run after the window;
	// spotKeys dedupes them.
	spot     []*spotCheck
	spotKeys map[string]bool
	// jobs holds, per service grade-job key, the request and the text the
	// service returned, to compare with an in-process grade after the
	// window.
	jobs map[string]jobText

	// Traced runs only. engineRuns counts the production per-algorithm
	// engine runs (the stream-fallback ratio's base); decomposed counts
	// the decomposed pipeline's reports, each of which looked its
	// universe up in the production cache. traces holds the service
	// jobs for traceJobs.
	tr         *tracer
	traces     []jobTrace
	engineRuns int
	decomposed int
}

type jobText struct {
	req  *serve.Request
	text string
}

// jobTrace splits one traced service job's latency.
type jobTrace struct {
	op                           op
	submit, report, run, latency time.Duration
	checkpoints, attempts        int
}

func newRunner(cfg runConfig, e *env, traced bool) (*runner, error) {
	r := &runner{cfg: cfg, env: e, refuted: map[string]string{}, jobFaults: map[string]int{}}
	epoch := time.Now()
	for c := 0; c < clients(cfg.Workload); c++ {
		f, err := os.CreateTemp("", "mbistperf-ops-*.jsonl")
		if err != nil {
			r.close()
			return nil, err
		}
		cl := &client{log: f, logBuf: bufio.NewWriter(f), spotKeys: map[string]bool{}, jobs: map[string]jobText{}}
		if traced {
			cl.tr = newTracer(epoch, cfg.TraceOut != "")
		}
		r.clients = append(r.clients, cl)
	}
	return r, nil
}

func (r *runner) close() {
	for _, c := range r.clients {
		c.log.Close()
		os.Remove(c.log.Name())
	}
}

// heapSamples is how many times a run samples the live heap.
const heapSamples = 5

// window runs the workload's closed loop: every client runs the rounds
// cfg.Seconds asks for, but starts none after twice that time, which
// bounds a run on a slow host. The first client samples the live heap
// after heapSamples evenly spaced rounds.
func (r *runner) window(ctx context.Context) error {
	n := rounds(r.cfg.Workload, r.cfg.Seconds)
	limit := 2 * time.Duration(r.cfg.Seconds) * time.Second
	sampleAt := map[int]bool{}
	for k := 1; k <= heapSamples; k++ {
		sampleAt[(k*n+heapSamples-1)/heapSamples-1] = true
	}
	return closedLoop(ctx, len(r.clients), n, limit, func(client, round int) error {
		ops, err := planRound(r.cfg.Workload, r.cfg.Scale, r.cfg.Seed, client, round)
		if err != nil {
			return err
		}
		if err := r.runRound(ctx, r.clients[client], ops); err != nil {
			return err
		}
		if client == 0 && sampleAt[round] {
			r.heapMB = append(r.heapMB, liveHeapMB())
		}
		return nil
	})
}

// closedLoop runs every client's rounds back to back, at least one and
// at most rounds, starting none once limit has passed. Whole rounds
// keep each run's op mix equal to the workload's.
func closedLoop(ctx context.Context, clients, rounds int, limit time.Duration, runRound func(client, round int) error) error {
	start := time.Now()
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds && ctx.Err() == nil; round++ {
				if round > 0 && time.Since(start) > limit {
					return
				}
				if err := runRound(c, round); err != nil {
					errs[c] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(append(errs, ctx.Err())...)
}

func (r *runner) runRound(ctx context.Context, c *client, ops []op) error {
	enc := json.NewEncoder(c.logBuf)
	for _, o := range ops {
		if err := enc.Encode(r.do(ctx, c, o)); err != nil {
			return err
		}
	}
	return nil
}

func (r *runner) do(ctx context.Context, c *client, o op) opRecord {
	if o.Grade != nil {
		return r.grade(ctx, c, o)
	}
	return r.job(ctx, c, o)
}

// produce runs a grade op the way mbistcov does: resolve the spec, grade
// every algorithm, render the coverage matrix.
func (g *gradeOp) produce(ctx context.Context) ([]*coverage.Report, string, error) {
	w, err := g.workload()
	if err != nil {
		return nil, "", err
	}
	reps, err := w.Grade(ctx)
	if err != nil {
		return nil, "", err
	}
	return reps, w.RenderText(reps), nil
}

func (r *runner) grade(ctx context.Context, c *client, o op) opRecord {
	t0 := time.Now()
	reps, _, err := o.Grade.produce(ctx)
	rec := opRecord{Index: o.Index, Key: o.Key, WallMS: msSince(t0)}
	if err != nil {
		rec.Error = err.Error()
		return rec
	}
	for _, rep := range reps {
		rec.Faults += rep.Universe
	}
	rec.Digest = digestReports(reps)
	rec.Error = r.checkGolden(o.Key, rec.Digest)
	if r.spotSampled(c, o) {
		s, err := newSpotCheck(o.Grade, reps, r.cfg.Seed, o.Index)
		if err != nil {
			rec.Error = "scalar spot check: " + err.Error()
			return rec
		}
		c.spot = append(c.spot, s)
	}
	if c.tr != nil && rec.Error == "" {
		c.engineRuns += len(reps)
		rec.Error = c.decompose(o.Index, o.Grade, rec.Digest)
	}
	return rec
}

// decompose runs g through the decomposed pipeline as op index and
// returns why its reports fail to match the production digest, or "".
func (c *client) decompose(index int, g *gradeOp, digest string) string {
	c.tr.beginOp(index)
	reps, err := decomposeOp(c.tr, g)
	c.tr.end()
	switch {
	case err != nil:
		return "decomposed pipeline: " + err.Error()
	case digestReports(reps) != digest:
		return "decomposed reports differ from the production reports"
	}
	c.decomposed += len(reps)
	return ""
}

// spotSampled picks the grade ops the scalar oracle re-checks, one per
// distinct key: every grade-large op, and a deterministic 1-in-16
// sample of the others.
func (r *runner) spotSampled(c *client, o op) bool {
	if c.spotKeys[o.Key] || !r.spotAll && r.cfg.Workload != "grade-large" && o.Index%16 != 0 {
		return false
	}
	c.spotKeys[o.Key] = true
	return true
}

func (r *runner) checkGolden(key, digest string) string {
	if want, ok := r.env.golden[key]; ok && want != digest {
		return fmt.Sprintf("digest %s, golden %s", digest, want)
	}
	return ""
}

// verify runs the after-window checks: the scalar spot checks of the
// sampled grade ops, and for the service an in-process grade of every
// distinct grade job, compared with the text the service returned. Each
// failure refutes every op with the same key. It also counts the
// service grade jobs' faults.
func (r *runner) verify(ctx context.Context) error {
	for _, c := range r.clients {
		for _, s := range c.spot {
			if err := s.run(ctx); err != nil {
				r.refuted[s.g.key()] = "scalar spot check: " + err.Error()
			}
		}
		c.spot = nil
		for key, jt := range c.jobs {
			if _, done := r.jobFaults[key]; done {
				continue
			}
			reps, want, err := jobGrade(jt.req).produce(ctx)
			switch {
			case err != nil:
				r.refuted[key] = "in-process grade: " + err.Error()
			case want != jt.text:
				r.refuted[key] = "service report differs from the in-process grade"
			}
			for _, rep := range reps {
				r.jobFaults[key] += rep.Universe
			}
		}
	}
	return ctx.Err()
}

// record reads the clients' op logs back, in index order, with the
// after-window refutations and fault counts applied.
func (r *runner) record() (*runRecord, error) {
	rec := &runRecord{
		Workload: r.cfg.Workload, Seed: r.cfg.Seed, Seconds: r.cfg.Seconds,
		Trace: r.cfg.Trace, Scale: r.cfg.Scale,
	}
	for _, c := range r.clients {
		if err := c.logBuf.Flush(); err != nil {
			return nil, err
		}
		if _, err := c.log.Seek(0, 0); err != nil {
			return nil, err
		}
		dec := json.NewDecoder(bufio.NewReader(c.log))
		for dec.More() {
			var o opRecord
			if err := dec.Decode(&o); err != nil {
				return nil, fmt.Errorf("op log: %w", err)
			}
			if msg := r.refuted[o.Key]; msg != "" && o.Error == "" {
				o.Error = msg
			}
			if f, ok := r.jobFaults[o.Key]; ok {
				o.Faults = f
			}
			rec.Ops = append(rec.Ops, o)
		}
	}
	sort.Slice(rec.Ops, func(i, j int) bool { return rec.Ops[i].Index < rec.Ops[j].Index })
	rec.Attempted = len(rec.Ops)
	for _, o := range rec.Ops {
		if o.Error != "" {
			rec.Failed++
		}
	}
	rec.Correct = rec.Failed == 0
	return rec, nil
}
