// Package serve implements the MBIST grading service behind
// cmd/mbistd: a JSON-over-HTTP job API exposing the repository's
// long-running workloads — coverage grading (optionally sharded),
// full-matrix lint, program assembly and area evaluation — on a
// bounded worker pool.
//
// Every job's text result is byte-identical to the corresponding CLI's
// stdout (mbistcov, mbistlint, mbistasm, mbistarea): the service and
// the CLIs resolve workloads through the same internal/sweep plumbing
// and render through the same library calls, which the service-e2e CI
// lane pins with a literal diff.
//
// API:
//
//	POST /v1/jobs            submit a job        -> 202 {"id":"job-1"}
//	                         (200 when an idempotency key replays)
//	GET  /v1/jobs/{id}       job status JSON
//	GET  /v1/jobs/{id}/report  result text (409 until the job is done)
//	GET  /v1/jobs/{id}/watch   streamed progress lines until terminal
//	GET  /v1/metrics         obs registry snapshot (?format=json)
//	GET  /v1/healthz         liveness + queue depth + journal info
//
// Submissions are validated synchronously — an unknown field,
// algorithm or architecture, or a grade whose fault universe exceeds
// maxGradeFaults, whose shards exceed maxGradeShards or whose workers
// exceed 256, is a 400 at POST time, not a failed job. A body must
// hold exactly one JSON object (anything after it is a 400) of at most
// 1 MiB (413 past that).
// During drain (SIGTERM) or queue saturation submissions return 503
// with a Retry-After header and a machine-readable JSON body while
// queued and running jobs finish.
//
// # Durability
//
// With Options.JournalDir set the server journals every job state
// transition (accepted → running → checkpointed(N) → done | failed |
// quarantined) to an append-only, fsync-per-record JSONL log riding
// the internal/resilience envelope (see journal.go). On restart the
// journal is replayed: terminal jobs keep serving their reports,
// interrupted jobs are re-enqueued and grade jobs resume from their
// last coverage.State checkpoint, producing reports byte-identical to
// an uninterrupted run. Jobs additionally get per-request deadlines
// (sweep.Spec.Timeout — an expired job reports Partial results), a
// stuck-job watchdog (no checkpoint progress within Options.Watchdog →
// cancelled and failed with attribution), and bounded retry with
// decorrelated-jitter backoff for transient failures (deterministic
// under Options.RetrySeed).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	mbist "repro"
	"repro/internal/coverage"
	"repro/internal/faults"
	"repro/internal/fsmbist"
	"repro/internal/march"
	"repro/internal/microbist"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/sweep"
)

// Options configures a Server.
type Options struct {
	// Workers bounds concurrently running jobs (<=0 selects 2).
	Workers int
	// Queue bounds jobs accepted but not yet running (<=0 selects 64).
	// A full queue rejects submissions with 503 instead of buffering
	// without bound.
	Queue int
	// JournalDir, when non-empty, makes the job store durable: every
	// state transition is journaled to <JournalDir>/jobs.journal and
	// replayed on the next New against the same directory. Empty keeps
	// the store in memory only.
	JournalDir string
	// CheckpointEvery is the grade-job checkpoint cadence in graded
	// faults (<=0 selects 2048). Each checkpoint journals the
	// algorithm's coverage state, bounding the work a crash loses.
	CheckpointEvery int
	// Watchdog is the maximum wall time a running job may go without
	// checkpoint progress before it is cancelled and failed with
	// attribution. Zero disables the watchdog.
	Watchdog time.Duration
	// RetryMax is the default transient-failure retry budget (re-runs
	// after the first attempt) for jobs that do not set their own via
	// sweep.Spec.Retries. Zero selects 2; negative disables retries.
	RetryMax int
	// RetryBase and RetryCap bound the decorrelated-jitter backoff
	// delays between retries (defaults 100ms and 5s).
	RetryBase time.Duration
	RetryCap  time.Duration
	// RetrySeed seeds the backoff's jitter source, making retry
	// schedules deterministic for tests. Zero is a valid seed.
	RetrySeed int64
	// CrashAfterCheckpoints is a chaos knob: after the Nth checkpointed
	// journal record the process SIGKILLs itself — a deterministic
	// power-cut for the kill/restart/byte-identity harness. Zero
	// disables it. Requires JournalDir.
	CrashAfterCheckpoints int
}

// Server owns the job store and the worker pool. Create with New,
// mount Handler on an http.Server, and Drain on shutdown.
type Server struct {
	workers         int
	checkpointEvery int
	watchdog        time.Duration
	retryMax        int
	backoff         *resilience.Backoff
	crashAfter      int64
	crashCount      atomic.Int64

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	keys     map[string]string // idempotency key -> job ID
	nextID   int
	draining bool

	journal   *resilience.Journal // nil when JournalDir is unset
	journalMu sync.Mutex

	queue   chan *Job
	running atomic.Int64

	mJobs         *obs.Counter
	mDone         *obs.Counter
	mFailed       *obs.Counter
	mWorking      *obs.Gauge
	mRecovered    *obs.Counter
	mRetried      *obs.Counter
	mDeadline     *obs.Counter
	mWatchdog     *obs.Counter
	mJournalBytes *obs.Gauge
}

// New starts a server's worker pool and returns it. With
// Options.JournalDir set it first replays the journal: an error there
// (resilience.ErrCorrupt, resilience.ErrMismatch or I/O) refuses to
// start — a service must not guess at a job log it cannot trust.
func New(opts Options) (*Server, error) {
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.Queue <= 0 {
		opts.Queue = 64
	}
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = 2048
	}
	if opts.RetryMax == 0 {
		opts.RetryMax = 2
	}
	if opts.RetryMax < 0 {
		opts.RetryMax = 0
	}
	if opts.RetryBase <= 0 {
		opts.RetryBase = 100 * time.Millisecond
	}
	if opts.RetryCap <= 0 {
		opts.RetryCap = 5 * time.Second
	}
	//mbist:exempt ctxflow server-lifetime root context, cancelled by Close
	ctx, cancel := context.WithCancel(context.Background())
	reg := obs.Active()
	s := &Server{
		workers:         opts.Workers,
		checkpointEvery: opts.CheckpointEvery,
		watchdog:        opts.Watchdog,
		retryMax:        opts.RetryMax,
		backoff:         resilience.NewBackoff(opts.RetryBase, opts.RetryCap, opts.RetrySeed),
		crashAfter:      int64(opts.CrashAfterCheckpoints),
		ctx:             ctx,
		cancel:          cancel,
		jobs:            make(map[string]*Job),
		keys:            make(map[string]string),
		mJobs:           reg.Counter("serve.jobs_submitted"),
		mDone:           reg.Counter("serve.jobs_done"),
		mFailed:         reg.Counter("serve.jobs_failed"),
		mWorking:        reg.Gauge("serve.jobs_running"),
		mRecovered:      reg.Counter("serve.jobs_recovered"),
		mRetried:        reg.Counter("serve.jobs_retried"),
		mDeadline:       reg.Counter("serve.jobs_deadline_exceeded"),
		mWatchdog:       reg.Counter("serve.watchdog_kills"),
		mJournalBytes:   reg.Gauge("serve.journal_bytes"),
	}
	var pending []*Job
	if opts.JournalDir != "" {
		var err error
		if pending, err = s.openJournal(opts.JournalDir); err != nil {
			cancel()
			return nil, err
		}
	}
	// Recovered jobs get guaranteed queue headroom so replay can never
	// deadlock against a small configured queue.
	s.queue = make(chan *Job, opts.Queue+len(pending))
	for _, job := range pending {
		//mbist:exempt ctxflow cannot block: the queue was just sized with len(pending) headroom
		s.queue <- job
	}
	if n := len(pending); n > 0 {
		s.mRecovered.Add(int64(n))
	}
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Drain stops accepting new jobs, waits for queued and running jobs to
// finish, and returns nil — or cancels everything still running and
// returns the context error if ctx expires first.
func (s *Server) Drain(ctx context.Context) error {
	s.closeQueue()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.closeJournal()
		return nil
	case <-ctx.Done():
		s.cancel()
		<-done
		s.closeJournal()
		return ctx.Err()
	}
}

// Close cancels running jobs and stops the pool without waiting for
// queued work. Tests use it; production shutdown goes through Drain.
// Interrupted jobs stay journaled as running, so a restart against the
// same journal directory re-enqueues and resumes them.
func (s *Server) Close() {
	s.cancel()
	s.closeQueue()
	s.wg.Wait()
	s.closeJournal()
}

// closeQueue flips the server into draining and closes the queue
// exactly once. Submissions enqueue under the same mutex, so a send on
// the closed queue cannot race in.
func (s *Server) closeQueue() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.runJob(job)
	}
}

// runJob drives one job through its attempts: run, classify the
// outcome, retry transient failures within the budget, journal every
// terminal transition.
func (s *Server) runJob(job *Job) {
	for {
		attempt := job.startAttempt()
		s.journalAppend(jobEntry{Op: opRunning, ID: job.ID, Attempt: attempt})

		runCtx := s.ctx
		var cancel context.CancelFunc
		if t := job.timeout; t > 0 {
			runCtx, cancel = context.WithTimeout(runCtx, t)
		} else {
			runCtx, cancel = context.WithCancel(runCtx)
		}
		var wdStop chan struct{}
		if s.watchdog > 0 {
			wdStop = make(chan struct{})
			go s.watchJob(job, cancel, wdStop)
		}

		s.mWorking.Set(s.running.Add(1))
		var text string
		var runErr error
		if capErr := resilience.Capture(func() { text, runErr = job.run(runCtx) }); capErr != nil {
			runErr = capErr
		}
		s.mWorking.Set(s.running.Add(-1))
		if wdStop != nil {
			close(wdStop)
		}
		cancel()

		switch {
		case runErr == nil:
			job.finish(text)
			if job.isExpired() {
				s.mDeadline.Add(1)
			}
			s.journalAppend(jobEntry{Op: opDone, ID: job.ID, Result: text, Expired: job.isExpired()})
			s.mDone.Add(1)
			s.maybeCompact()
			return
		case s.ctx.Err() != nil:
			// Server shutdown, not a job failure: fail it in memory for
			// this process but leave the journal at "running", so a
			// restart against the same journal dir re-enqueues and
			// resumes the job.
			job.fail(runErr)
			s.mFailed.Add(1)
			return
		case job.wasWatchdogKilled():
			job.fail(fmt.Errorf("watchdog: no checkpoint progress within %v; attempt %d cancelled", s.watchdog, attempt))
			s.journalAppend(jobEntry{Op: opFailed, ID: job.ID, Attempt: attempt, Error: job.status().Error})
			s.mFailed.Add(1)
			s.maybeCompact()
			return
		case errors.Is(runErr, context.DeadlineExceeded):
			// A deadline that escaped the run closure uncooked. Retrying
			// would only expire again; fail with attribution.
			job.fail(fmt.Errorf("deadline %v exceeded: %w", job.timeout, runErr))
			s.journalAppend(jobEntry{Op: opFailed, ID: job.ID, Attempt: attempt, Error: job.status().Error})
			s.mFailed.Add(1)
			s.maybeCompact()
			return
		default:
			// Transient failure: validation happened at submit, so a run
			// error here is an engine/runtime fault worth re-running —
			// from the last journaled checkpoint, within the budget.
			if attempt <= job.retries {
				s.mRetried.Add(1)
				select {
				case <-time.After(s.backoff.Next()):
					continue
				case <-s.ctx.Done():
					job.fail(runErr)
					s.mFailed.Add(1)
					return
				}
			}
			if _, isPanic := resilience.AsPanic(runErr); isPanic {
				job.quarantine(runErr)
				s.journalAppend(jobEntry{Op: opQuarantined, ID: job.ID, Attempt: attempt, Error: job.status().Error})
			} else {
				job.fail(runErr)
				s.journalAppend(jobEntry{Op: opFailed, ID: job.ID, Attempt: attempt, Error: job.status().Error})
			}
			s.mFailed.Add(1)
			s.maybeCompact()
			return
		}
	}
}

// watchJob cancels a job's attempt when it makes no checkpoint
// progress for the watchdog window.
func (s *Server) watchJob(job *Job, cancel context.CancelFunc, stop chan struct{}) {
	interval := s.watchdog / 4
	if interval <= 0 {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			if time.Since(job.progressTime()) > s.watchdog {
				job.markWatchdogKilled()
				s.mWatchdog.Add(1)
				cancel()
				return
			}
		}
	}
}

// JobState is a job's lifecycle position.
type JobState string

// Job lifecycle: queued -> running -> done | failed | quarantined.
// Quarantined marks a job whose every attempt panicked — poisoned
// input rather than a transient fault.
const (
	StateQueued      JobState = "queued"
	StateRunning     JobState = "running"
	StateDone        JobState = "done"
	StateFailed      JobState = "failed"
	StateQuarantined JobState = "quarantined"
)

// terminal reports whether a state is final.
func (st JobState) terminal() bool {
	return st == StateDone || st == StateFailed || st == StateQuarantined
}

// Job is one submitted workload. All mutable fields are guarded by mu;
// run closures touch progress through the job's own methods.
type Job struct {
	ID   string `json:"id"`
	Kind string `json:"kind"`
	Key  string `json:"key,omitempty"`

	mu           sync.Mutex
	state        JobState
	done         int
	total        int
	errMsg       string
	result       string
	attempt      int
	checkpoints  int
	expired      bool
	wdKilled     bool
	lastProgress time.Time
	resume       map[string]*coverage.State

	req     Request
	timeout time.Duration
	retries int

	run func(ctx context.Context) (string, error)
}

func (j *Job) startAttempt() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateRunning
	j.attempt++
	j.wdKilled = false
	j.lastProgress = time.Now()
	return j.attempt
}

// fail, quarantine and finish end the job. Each releases its
// checkpoint states: nothing resumes a terminal job, and the journal
// keeps only its terminal record (compact), so holding them would grow
// the heap with every finished grade.
func (j *Job) fail(err error) {
	j.mu.Lock()
	j.state = StateFailed
	j.errMsg = err.Error()
	j.resume = nil
	j.mu.Unlock()
}

func (j *Job) quarantine(err error) {
	j.mu.Lock()
	j.state = StateQuarantined
	j.errMsg = err.Error()
	j.resume = nil
	j.mu.Unlock()
}

func (j *Job) finish(text string) {
	j.mu.Lock()
	j.state = StateDone
	j.result = text
	j.done = j.total
	j.resume = nil
	j.mu.Unlock()
}

func (j *Job) step() {
	j.mu.Lock()
	j.done++
	j.lastProgress = time.Now()
	j.mu.Unlock()
}

func (j *Job) markExpired() {
	j.mu.Lock()
	j.expired = true
	j.mu.Unlock()
}

func (j *Job) isExpired() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.expired
}

func (j *Job) markWatchdogKilled() {
	j.mu.Lock()
	j.wdKilled = true
	j.mu.Unlock()
}

func (j *Job) wasWatchdogKilled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.wdKilled
}

func (j *Job) progressTime() time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lastProgress
}

// resumeState returns the job's last journaled checkpoint for key
// (algorithm name, or "alg#shard/of" for sharded grades), nil when the
// job starts fresh.
func (j *Job) resumeState(key string) *coverage.State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.resume[key]
}

// noteCheckpoint records checkpoint progress on the job and journals
// it. The coverage engine calls the checkpoint hook with grading
// paused, so the synchronous marshal inside Append sees a consistent
// snapshot.
func (s *Server) noteCheckpoint(job *Job, key string, st *coverage.State) {
	job.mu.Lock()
	job.checkpoints++
	n := job.checkpoints
	job.lastProgress = time.Now()
	if job.resume == nil {
		job.resume = make(map[string]*coverage.State)
	}
	job.resume[key] = st
	job.mu.Unlock()
	s.journalAppend(jobEntry{
		Op: opCheckpointed, ID: job.ID, N: n,
		States: map[string]*coverage.State{key: st},
	})
}

// Status is the wire form of a job's state.
type Status struct {
	ID    string   `json:"id"`
	Kind  string   `json:"kind"`
	State JobState `json:"state"`
	Done  int      `json:"done"`
	Total int      `json:"total"`
	// Attempt counts runs of this job (retries increment it).
	Attempt int `json:"attempt,omitempty"`
	// Checkpoints counts journaled coverage checkpoints.
	Checkpoints int `json:"checkpoints,omitempty"`
	// DeadlineExceeded marks a done job whose report is Partial because
	// its sweep.Spec timeout expired.
	DeadlineExceeded bool   `json:"deadline_exceeded,omitempty"`
	Error            string `json:"error,omitempty"`
}

func (j *Job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID: j.ID, Kind: j.Kind, State: j.state,
		Done: j.done, Total: j.total,
		Attempt: j.attempt, Checkpoints: j.checkpoints,
		DeadlineExceeded: j.expired, Error: j.errMsg,
	}
}

// Request is a job submission body. Kind selects the payload; the
// matching field configures it (absent = all defaults).
type Request struct {
	Kind string `json:"kind"`
	// Key is an optional idempotency key: resubmitting a request with
	// the key of an in-flight or completed job returns that job (200)
	// instead of executing it again.
	Key      string           `json:"key,omitempty"`
	Grade    *GradeRequest    `json:"grade,omitempty"`
	Lint     *LintRequest     `json:"lint,omitempty"`
	Assemble *AssembleRequest `json:"assemble,omitempty"`
	Area     *AreaRequest     `json:"area,omitempty"`
}

// GradeRequest grades a coverage workload; the embedded Spec is the
// exact flag surface of mbistcov (same defaults, same names). Shards
// splits the sweep into that many universe slices (at most
// maxGradeShards) graded independently and merged — the report is
// byte-identical at every shard count.
type GradeRequest struct {
	sweep.Spec
	Shards int `json:"shards,omitempty"`
}

// LintRequest lints the synthesised matrix (mbistlint's surface).
type LintRequest struct {
	Algs  string `json:"algs,omitempty"`
	Arch  string `json:"arch,omitempty"`
	Timer int    `json:"timer,omitempty"`
}

// AssembleRequest assembles one algorithm (mbistasm's surface).
type AssembleRequest struct {
	Arch      string `json:"arch,omitempty"` // microcode (default) or fsm
	Alg       string `json:"alg,omitempty"`  // library name (default marchc)
	Spec      string `json:"spec,omitempty"` // custom march notation, overrides Alg
	Word      *bool  `json:"word,omitempty"`
	Multiport *bool  `json:"multiport,omitempty"`
}

// AreaRequest regenerates the paper's area evaluation (mbistarea's
// surface). Table 0 prints all three tables plus the observations.
type AreaRequest struct {
	Table int `json:"table,omitempty"`
}

// Submit validates a request and enqueues it, returning the job and
// whether it was an idempotent replay of an existing one. A validation
// failure is returned synchronously; a draining server returns
// ErrDraining and a full queue ErrSaturated (both wrap
// ErrUnavailable).
func (s *Server) Submit(req Request) (job *Job, existing bool, err error) {
	job, err = s.prepJob(req)
	if err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	if req.Key != "" {
		if id, ok := s.keys[req.Key]; ok {
			prior := s.jobs[id]
			s.mu.Unlock()
			return prior, true, nil
		}
	}
	if s.draining {
		s.mu.Unlock()
		return nil, false, ErrDraining
	}
	// All queue sends happen under s.mu, so the capacity check cannot
	// race with another producer — and the send below cannot block.
	if len(s.queue) == cap(s.queue) {
		s.mu.Unlock()
		return nil, false, ErrSaturated
	}
	s.nextID++
	job.ID = fmt.Sprintf("job-%d", s.nextID)
	job.Key = req.Key
	s.jobs[job.ID] = job
	if req.Key != "" {
		s.keys[req.Key] = job.ID
	}
	// Journal before acknowledging: an accepted job survives a crash
	// between this append and the worker picking it up.
	s.journalAppend(jobEntry{Op: opAccepted, ID: job.ID, Key: job.Key, Req: &job.req})
	s.queue <- job
	s.mu.Unlock()
	s.mJobs.Add(1)
	return job, false, nil
}

// enqueue inserts a pre-built job with a custom run closure, bypassing
// request validation and the journal. It is the test seam for the
// retry, watchdog and panic paths.
func (s *Server) enqueue(job *Job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return ErrDraining
	}
	if len(s.queue) == cap(s.queue) {
		return ErrSaturated
	}
	s.nextID++
	job.ID = fmt.Sprintf("job-%d", s.nextID)
	job.state = StateQueued
	s.jobs[job.ID] = job
	s.queue <- job
	return nil
}

// ErrUnavailable marks a submission rejected because the server is
// draining or its job queue is full; handlers map it to 503 with a
// Retry-After header. ErrDraining and ErrSaturated identify which.
var (
	ErrUnavailable = errors.New("server is draining or its job queue is full")
	ErrDraining    = fmt.Errorf("draining: %w", ErrUnavailable)
	ErrSaturated   = fmt.Errorf("queue full: %w", ErrUnavailable)
)

// prepJob validates a request into a runnable job. The job's retry
// budget defaults to the server's; grade jobs may override it (and set
// a deadline) through their sweep.Spec.
func (s *Server) prepJob(req Request) (*Job, error) {
	job := &Job{Kind: req.Kind, state: StateQueued, req: req, retries: s.retryMax}
	var err error
	switch req.Kind {
	case "grade":
		err = s.prepGrade(job, req.Grade)
	case "lint":
		err = prepLint(job, req.Lint)
	case "assemble":
		err = prepAssemble(job, req.Assemble)
	case "area":
		err = prepArea(job, req.Area)
	default:
		err = fmt.Errorf("unknown job kind %q (want grade, lint, assemble or area)", req.Kind)
	}
	if err != nil {
		return nil, err
	}
	return job, nil
}

// maxGradeFaults bounds the fault universe of one grade job. A grade
// holds its universe and its per-fault bookkeeping in memory, so one
// POST for a huge geometry could pin gigabytes; 2^21 admits 4096×8 on
// two ports (about 1.6 M faults) and refuses 16384×8 (6.2 M).
const maxGradeFaults = 1 << 21

// maxGradeShards bounds a grade job's shard count. A sharded job holds
// one slice per shard and one progress unit each, so an unbounded count
// would size both from the request alone.
const maxGradeShards = 64

func (s *Server) prepGrade(job *Job, req *GradeRequest) error {
	if req == nil {
		req = &GradeRequest{}
	}
	w, err := req.Spec.Workload()
	if err != nil {
		return err
	}
	// Counted, not enumerated: the check itself must not allocate the
	// universe it is there to refuse.
	o := w.Opts
	if n := faults.UniverseLen(o.Size, o.Width, faults.UniverseOpts{Ports: o.Ports}); n > maxGradeFaults {
		return fmt.Errorf("grade of %d×%d on %d port(s) has %d faults, over the %d-fault budget",
			o.Size, o.Width, o.Ports, n, maxGradeFaults)
	}
	timeout, err := req.Spec.TimeoutDuration()
	if err != nil {
		return err
	}
	job.timeout = timeout
	job.retries = req.Spec.RetryBudget(s.retryMax)
	shards := req.Shards
	switch {
	case shards < 0:
		return fmt.Errorf("negative shard count %d", shards)
	case shards > maxGradeShards:
		return fmt.Errorf("%d shards over the %d-shard limit", shards, maxGradeShards)
	case shards <= 1:
		shards = 0
		job.total = len(w.Algs)
	default:
		job.total = shards + 1 // one unit per shard plus the merge
	}
	w.Opts.CheckpointEvery = s.checkpointEvery
	job.run = func(ctx context.Context) (string, error) {
		return s.runGrade(ctx, job, w, shards)
	}
	return nil
}

// runGrade grades the workload through sweep.Workload.Run — unit by
// unit, sharded when shards > 0 — journaling each unit's checkpoints
// and resuming each unit from its recovered state (a complete one
// re-grades nothing). On its own deadline it returns the valid Partial
// report graded so far (sharded: an attribution line, as no merge is
// possible) instead of an error.
func (s *Server) runGrade(ctx context.Context, job *Job, w *sweep.Workload, shards int) (string, error) {
	reports, pieces, err := w.Run(ctx, sweep.RunOptions{
		Of:         shards,
		Resume:     job.resumeState,
		Checkpoint: func(key string, st *coverage.State) { s.noteCheckpoint(job, key, st) },
		Done: func(u sweep.Unit) {
			// Progress counts algorithms, or shards when sharded.
			if shards == 0 || u.Alg == len(w.Algs)-1 {
				job.step()
			}
		},
	})
	if err != nil {
		if job.timeout == 0 || !errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return "", err
		}
		job.markExpired()
		if shards > 0 {
			return fmt.Sprintf("fault coverage on %v (%d x %d bits, %d ports):\n\npartial: deadline %v exceeded after %d/%d shards; no merged matrix\n",
				w.Arch, w.Opts.Size, w.Opts.Width, w.Opts.Ports, job.timeout, len(pieces), shards), nil
		}
		return renderPartial(w, reports, job.timeout), nil
	}
	if shards > 0 {
		job.step() // the merge
	}
	return w.RenderText(reports), nil
}

// renderPartial renders a deadline-expired grade: the matrix over
// every report produced (the last one Partial but internally
// consistent — each graded verdict exact) plus an attribution line.
func renderPartial(w *sweep.Workload, reports []*coverage.Report, timeout time.Duration) string {
	complete := 0
	for _, r := range reports {
		if !r.Partial {
			complete++
		}
	}
	return fmt.Sprintf("%s\npartial: deadline %v exceeded after %d/%d algorithms\n",
		strings.TrimRight(w.RenderText(reports), "\n"), timeout, complete, len(w.Algs))
}

func prepLint(job *Job, req *LintRequest) error {
	if req == nil {
		req = &LintRequest{}
	}
	opts := mbist.LintOptions{DelayTimerBits: req.Timer}
	if req.Algs != "" {
		for _, name := range strings.Split(req.Algs, ",") {
			name = strings.TrimSpace(name)
			if _, ok := march.ByName(name); !ok {
				return fmt.Errorf("unknown algorithm %q", name)
			}
			opts.Algorithms = append(opts.Algorithms, name)
		}
	}
	if req.Arch != "" {
		arch, err := parseLintArch(req.Arch)
		if err != nil {
			return err
		}
		opts.Archs = []mbist.LintArch{arch}
	}
	job.total = 1
	job.run = func(ctx context.Context) (string, error) {
		rep, err := mbist.Lint(opts)
		if err != nil {
			return "", err
		}
		return rep.Text(), nil
	}
	return nil
}

func prepAssemble(job *Job, req *AssembleRequest) error {
	if req == nil {
		req = &AssembleRequest{}
	}
	arch := req.Arch
	if arch == "" {
		arch = "microcode"
	}
	if arch != "microcode" && arch != "fsm" {
		return fmt.Errorf("unknown architecture %q (want microcode or fsm)", arch)
	}
	var alg march.Algorithm
	if req.Spec != "" {
		var err error
		if alg, err = march.Parse("custom", req.Spec); err != nil {
			return err
		}
	} else {
		name := req.Alg
		if name == "" {
			name = "marchc"
		}
		var ok bool
		if alg, ok = march.ByName(name); !ok {
			return fmt.Errorf("unknown algorithm %q", name)
		}
	}
	word, multi := true, true
	if req.Word != nil {
		word = *req.Word
	}
	if req.Multiport != nil {
		multi = *req.Multiport
	}
	job.total = 1
	job.run = func(ctx context.Context) (string, error) {
		var b strings.Builder
		fmt.Fprintf(&b, "algorithm: %s = %s (%dN)\n\n", alg.Name, alg, alg.OpCount())
		switch arch {
		case "microcode":
			p, err := microbist.Assemble(alg, microbist.AssembleOpts{WordOriented: word, Multiport: multi})
			if err != nil {
				return "", err
			}
			b.WriteString(p.Listing())
		case "fsm":
			p, err := fsmbist.Compile(alg, fsmbist.CompileOpts{WordOriented: word, Multiport: multi})
			if err != nil {
				return "", err
			}
			b.WriteString(p.Listing())
			if p.Decomposed {
				fmt.Fprintf(&b, "\nnote: elements decomposed into SM components; realized algorithm:\n%s\n", p.Realized)
			}
		}
		return b.String(), nil
	}
	return nil
}

func prepArea(job *Job, req *AreaRequest) error {
	if req == nil {
		req = &AreaRequest{}
	}
	if req.Table < 0 || req.Table > 3 {
		return fmt.Errorf("no table %d (want 1-3, or 0 for all)", req.Table)
	}
	table := req.Table
	job.total = 1
	job.run = func(ctx context.Context) (string, error) {
		var b strings.Builder
		tables := []func() (*mbist.Table, error){mbist.Table1, mbist.Table2, mbist.Table3}
		for i, f := range tables {
			if table != 0 && table != i+1 {
				continue
			}
			t, err := f()
			if err != nil {
				return "", fmt.Errorf("table %d: %w", i+1, err)
			}
			fmt.Fprintln(&b, t)
		}
		if table == 0 {
			o, err := mbist.MeasureObservations()
			if err != nil {
				return "", err
			}
			fmt.Fprintln(&b, "Observations (paper §3):")
			fmt.Fprint(&b, o)
			if err := o.Check(); err != nil {
				return "", fmt.Errorf("observation check failed: %w", err)
			}
			fmt.Fprintln(&b, "all four observations hold")
		}
		return b.String(), nil
	}
	return nil
}

func parseLintArch(s string) (mbist.LintArch, error) {
	switch s {
	case "microcode":
		return mbist.LintMicrocode, nil
	case "microcode-scan":
		return mbist.LintMicrocodeScan, nil
	case "fsm":
		return mbist.LintProgFSM, nil
	case "hardwired":
		return mbist.LintHardwired, nil
	}
	return 0, fmt.Errorf("unknown architecture %q", s)
}

// Retry-After seconds the 503 responses advertise: a saturated queue
// clears as soon as a worker frees a slot; a draining server never
// comes back, so the client should wait for its replacement.
const (
	retryAfterSaturated = 1
	retryAfterDraining  = 10
)

// Handler returns the service's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/jobs/{id}/watch", s.handleWatch)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	return mux
}

// maxRequestBody bounds a submission's body. A request is a few
// hundred bytes of JSON; the bound keeps one POST from pinning memory.
const maxRequestBody = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if err == nil {
		// Exactly one JSON value: only whitespace may follow it.
		if _, err = dec.Token(); err == io.EOF {
			err = nil
		} else if err == nil {
			err = errors.New("data after the request object")
		}
	}
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	job, existing, err := s.Submit(req)
	switch {
	case errors.Is(err, ErrUnavailable):
		code, retryAfter := "saturated", retryAfterSaturated
		if errors.Is(err, ErrDraining) {
			code, retryAfter = "draining", retryAfterDraining
		}
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error":               err.Error(),
			"code":                code,
			"retry_after_seconds": retryAfter,
		})
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if existing {
		writeJSON(w, http.StatusOK, job.status())
		return
	}
	writeJSON(w, http.StatusAccepted, job.status())
}

func (s *Server) lookup(r *http.Request) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[r.PathValue("id")]
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(r)
	if job == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, job.status())
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(r)
	if job == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
		return
	}
	st := job.status()
	switch st.State {
	case StateFailed, StateQuarantined:
		httpError(w, http.StatusInternalServerError, fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error))
	case StateDone:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		job.mu.Lock()
		result := job.result
		job.mu.Unlock()
		fmt.Fprint(w, result)
	default:
		httpError(w, http.StatusConflict, fmt.Errorf("job %s is %s; report is available once it is done", st.ID, st.State))
	}
}

// handleWatch streams progress lines ("state done/total") until the
// job reaches a terminal state or the client goes away.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(r)
	if job == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	ticker := time.NewTicker(50 * time.Millisecond)
	defer ticker.Stop()
	var last Status
	for first := true; ; first = false {
		st := job.status()
		if first || st != last {
			fmt.Fprintf(w, "%s %d/%d\n", st.State, st.Done, st.Total)
			if flusher != nil {
				flusher.Flush()
			}
			last = st
		}
		if st.State.terminal() {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	ms := obs.Active().Snapshot()
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		if err := obs.WriteJSON(w, ms); err != nil {
			httpError(w, http.StatusInternalServerError, err)
		}
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	obs.WriteText(w, ms)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := len(s.jobs)
	draining := s.draining
	s.mu.Unlock()
	body := map[string]any{
		"status":   "ok",
		"jobs":     n,
		"queued":   len(s.queue),
		"workers":  s.workers,
		"draining": draining,
	}
	s.journalMu.Lock()
	if s.journal != nil {
		body["journal"] = map[string]any{
			"path":    s.journal.Path(),
			"bytes":   s.journal.Size(),
			"records": s.journal.Records(),
		}
	}
	s.journalMu.Unlock()
	writeJSON(w, http.StatusOK, body)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]any{"error": err.Error()})
}
