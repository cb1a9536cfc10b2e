package coverage

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/faults"
	"repro/internal/march"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// gradeRun owns the mutable state of one grading run: the per-fault
// verdict arrays, the quarantine list and the checkpoint cadence. All
// mutation funnels through the mutex, so a Checkpoint snapshot is
// always a consistent cut no matter how many workers are grading, and
// the race detector stays quiet across engines.
type gradeRun struct {
	ctx      context.Context
	alg      march.Algorithm
	arch     Architecture
	opts     Options
	u        *faultUniverse
	universe []faults.Fault // u.faults

	// resumed marks faults settled by Options.Resume. It is immutable
	// once workers start, so they read it without the lock.
	resumed []bool

	mu          sync.Mutex
	graded      []bool
	detected    []bool
	quarantined []FaultVerdict
	gradedCount int
	sinceCkpt   int

	mQuarantined *obs.Counter
	mRetries     *obs.Counter
	mCheckpoints *obs.Counter
	mFaults      *obs.Counter
}

func newGradeRun(ctx context.Context, alg march.Algorithm, arch Architecture, opts Options, u *faultUniverse) (*gradeRun, error) {
	if ctx == nil {
		ctx = context.Background() //mbist:exempt ctxflow nil-context guard for internal callers, not an invented root
	}
	reg := obs.Active()
	// One backing allocation for the three per-fault bit arrays (full
	// capacity slices, so appends can never alias across them).
	universe := u.faults
	n := len(universe)
	flags := make([]bool, 3*n)
	r := &gradeRun{
		ctx: ctx, alg: alg, arch: arch, opts: opts, u: u, universe: universe,
		resumed:      flags[0:n:n],
		graded:       flags[n : 2*n : 2*n],
		detected:     flags[2*n : 3*n : 3*n],
		mQuarantined: reg.Counter("coverage.quarantined"),
		mRetries:     reg.Counter("coverage.panic_retries"),
		mCheckpoints: reg.Counter("coverage.checkpoints"),
		mFaults:      reg.Counter("coverage.faults_graded"),
	}
	if s := opts.Resume; s != nil {
		if len(s.Graded) != len(universe) || len(s.Detected) != len(universe) {
			return nil, fmt.Errorf("coverage: resume state covers %d faults, universe has %d (checkpoint from a different workload?)",
				len(s.Graded), len(universe))
		}
		copy(r.graded, s.Graded)
		copy(r.detected, s.Detected)
		copy(r.resumed, s.Graded)
		for _, g := range s.Graded {
			if g {
				r.gradedCount++
			}
		}
		for _, q := range s.Quarantined {
			if q.Index < 0 || q.Index >= len(universe) || !s.Graded[q.Index] {
				return nil, fmt.Errorf("coverage: resume state quarantines fault %d outside its graded set", q.Index)
			}
			r.quarantined = append(r.quarantined, q)
		}
	}
	return r, nil
}

// record commits one fault's verdict.
//
//mbist:hotpath
func (r *gradeRun) record(i int, detected bool) {
	r.mu.Lock()
	r.graded[i] = true
	r.detected[i] = detected
	r.gradedCount++
	r.maybeCheckpointLocked(1)
	r.mu.Unlock()
}

// commitClasses commits a class batch's verdicts in one critical
// section: class b.lo+k rode logical lane k+1 (plane (k+1)/64, bit
// (k+1)%64 of the fail masks), and its verdict settles every member of
// the class. Faults already settled by a resumed checkpoint keep their
// prior verdict (the replay result is identical anyway — verdicts are
// deterministic — but the resumed state stays authoritative).
//
//mbist:hotpath
func (r *gradeRun) commitClasses(plan *classPlan, b *classBatch, fail *[faults.MaxPlanes]uint64) {
	r.mu.Lock()
	n := 0
	for c := b.lo; c < b.hi; c++ {
		l := c - b.lo + 1
		d := fail[l>>6]>>uint(l&63)&1 == 1
		for _, ui := range plan.members[plan.memberStart[c]:plan.memberStart[c+1]] {
			if r.resumed[ui] {
				continue
			}
			r.graded[ui] = true
			r.detected[ui] = d
			n++
		}
	}
	r.gradedCount += n
	r.maybeCheckpointLocked(n)
	r.mu.Unlock()
}

// quarantine settles fault i as unjudgeable: grading it panicked and
// panicked again on the retry. The verdict text is the stackless panic
// message so reports stay byte-identical across runs and worker counts.
func (r *gradeRun) quarantine(i int, cause error) {
	r.mu.Lock()
	r.graded[i] = true
	r.gradedCount++
	r.quarantined = append(r.quarantined, FaultVerdict{
		Index: i, Fault: r.universe[i].String(), Err: cause.Error(),
	})
	r.mQuarantined.Add(1)
	r.maybeCheckpointLocked(1)
	r.mu.Unlock()
}

func (r *gradeRun) maybeCheckpointLocked(justGraded int) {
	if r.opts.Checkpoint == nil {
		return
	}
	r.sinceCkpt += justGraded
	if r.sinceCkpt < r.opts.CheckpointEvery {
		return
	}
	r.sinceCkpt = 0
	r.checkpointLocked()
}

func (r *gradeRun) checkpointLocked() {
	r.opts.Checkpoint(r.snapshotLocked())
	r.mCheckpoints.Add(1)
}

// snapshotLocked deep-copies the verdict state; the caller-facing State
// never aliases worker-mutated arrays. Quarantine entries are sorted by
// universe index so snapshots are deterministic for a given verdict
// set, regardless of which worker quarantined first.
func (r *gradeRun) snapshotLocked() *State {
	s := &State{
		Graded:      append([]bool(nil), r.graded...),
		Detected:    append([]bool(nil), r.detected...),
		Quarantined: append([]FaultVerdict(nil), r.quarantined...),
	}
	sort.Slice(s.Quarantined, func(a, b int) bool { return s.Quarantined[a].Index < s.Quarantined[b].Index })
	return s
}

// finish writes the final checkpoint, renders the report and surfaces
// cancellation. It is the single exit path of every engine: a cancelled
// run still yields a valid partial report alongside the context error.
func (r *gradeRun) finish() (*Report, error) {
	r.mu.Lock()
	if r.opts.Checkpoint != nil {
		r.checkpointLocked()
	}
	rep := r.buildReportLocked()
	r.mu.Unlock()
	if err := r.ctx.Err(); err != nil && rep.Partial {
		return rep, fmt.Errorf("coverage: %s on %s cancelled after %d/%d faults: %w",
			r.alg.Name, r.arch, rep.Graded, rep.Universe, err)
	}
	return rep, nil
}

func (r *gradeRun) buildReportLocked() *Report {
	rep := &Report{
		Algorithm:    r.alg.Name,
		Architecture: r.arch,
		ByKind:       make(map[faults.Kind]Ratio, 16),
		Universe:     len(r.universe),
	}
	var inQuarantine map[int]bool
	if len(r.quarantined) > 0 {
		inQuarantine = make(map[int]bool, len(r.quarantined))
		for _, q := range r.quarantined {
			inQuarantine[q.Index] = true
		}
	}
	missed := 0
	for i := range r.universe {
		if r.graded[i] && !r.detected[i] && !inQuarantine[i] {
			missed++
		}
	}
	if missed > 0 {
		rep.Missed = make([]faults.Fault, 0, missed)
	}
	// Tally per-kind ratios into a flat array (Kind is a small enum) and
	// build the map once at the end: the per-fault map updates were the
	// hottest part of report construction on cached-universe workloads.
	var byKind [faults.NumKinds]Ratio
	for i, f := range r.universe {
		if !r.graded[i] {
			rep.Partial = true
			continue
		}
		rep.Graded++
		if inQuarantine[i] {
			continue
		}
		byKind[f.Kind].Total++
		rep.Overall.Total++
		if r.detected[i] {
			byKind[f.Kind].Detected++
			rep.Overall.Detected++
		} else {
			rep.Missed = append(rep.Missed, f)
		}
	}
	for k, kr := range byKind {
		if kr.Total > 0 {
			rep.ByKind[faults.Kind(k)] = kr
		}
	}
	if len(r.quarantined) > 0 {
		rep.Quarantined = append([]FaultVerdict(nil), r.quarantined...)
		sort.Slice(rep.Quarantined, func(a, b int) bool { return rep.Quarantined[a].Index < rep.Quarantined[b].Index })
	}
	obs.Active().Counter("coverage.detected").Add(int64(rep.Overall.Detected))
	return rep
}

// claimLoop grades the indices [0, n) with grade(w, i), where w in
// [0, max(workers, 1)) names the worker. Workers claim indices through
// one atomic cursor, so uneven per-index run times balance out; with
// one worker the indices run in order on the calling goroutine.
// Claiming stops once the run is cancelled (finish then renders the
// partial report) or an index fails, and the error of the lowest
// failing index is returned, so failures are as deterministic as the
// serial path.
func (r *gradeRun) claimLoop(n, workers int, grade func(w, i int) error) error {
	if workers <= 1 {
		for i := 0; i < n && r.ctx.Err() == nil; i++ {
			if err := grade(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		cursor   atomic.Int64
		failed   atomic.Bool
		wg       sync.WaitGroup
		emu      sync.Mutex
		errIndex = n
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n || failed.Load() || r.ctx.Err() != nil {
					return
				}
				if err := grade(w, i); err != nil {
					emu.Lock()
					if i < errIndex {
						errIndex, firstErr = i, err
					}
					emu.Unlock()
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// scalarOne runs fault i once on the scalar oracle: the hook, a fresh
// injected memory and the runner, with a panic anywhere in them
// returned as a *PanicError instead of unwinding the worker.
func (r *gradeRun) scalarOne(run runner, i int) (detected bool, err error) {
	var ferr error
	perr := resilience.Capture(func() {
		if r.opts.FaultHook != nil {
			r.opts.FaultHook(i)
		}
		mem := faults.NewInjected(r.opts.Size, r.opts.Width, r.opts.Ports, r.universe[i])
		detected, ferr = run(mem)
	})
	if perr != nil {
		return false, perr
	}
	return detected, ferr
}

// gradeFault grades fault i on the scalar oracle with run, the cached
// controller's runner, and settles it. A panic is counted in
// coverage.panic_retries and the fault runs again on a runner
// resynthesised outside the controller cache, since the panic may have
// corrupted the shared controller; a second panic quarantines the
// fault. Any other error is a hard failure.
func (r *gradeRun) gradeFault(run runner, i int) error {
	d, err := r.scalarOne(run, i)
	if _, ok := resilience.AsPanic(err); ok {
		r.mRetries.Add(1)
		if run, err = buildRunnerFresh(r.alg, r.arch, r.opts); err != nil {
			return err
		}
		d, err = r.scalarOne(run, i)
		if p, ok := resilience.AsPanic(err); ok {
			r.quarantine(i, p)
			return nil
		}
	}
	if err != nil {
		return fmt.Errorf("coverage: %s on %s with %v: %w", r.alg.Name, r.arch, r.universe[i], err)
	}
	r.record(i, d)
	r.mFaults.Add(1)
	return nil
}

// workerFaultCounters precomputes the per-worker fault counter names
// so spawning workers does no name formatting. Runs with more workers
// than slots wrap and share counters, which merges their tallies but
// never builds a name on the spawn path.
var workerFaultCounters = func() [64]string {
	var t [64]string
	for i := range t {
		t[i] = fmt.Sprintf("coverage.worker.%02d.faults", i)
	}
	return t
}()

// gradeScalar grades every unresolved fault with the per-fault oracle
// (gradeFault), one claimed fault at a time. With several workers,
// coverage.worker_start_wait_ns times each from spawn to its first
// claim.
func (r *gradeRun) gradeScalar() error {
	workers := min(r.opts.Workers, len(r.universe))
	reg := obs.Active()
	reg.Gauge("coverage.workers").Set(int64(workers))
	run, err := buildRunner(r.alg, r.arch, r.opts)
	if err != nil {
		return err
	}
	mFault := reg.Span("coverage.fault_ns")
	mWait := reg.Span("coverage.worker_start_wait_ns")
	type worker struct {
		faults  *obs.Counter
		started bool
	}
	ws := make([]worker, max(workers, 1))
	for w := range ws {
		ws[w].faults = reg.Counter(workerFaultCounters[w%len(workerFaultCounters)])
	}
	spawned := mWait.Start()
	return r.claimLoop(len(r.universe), workers, func(w, i int) error {
		if !ws[w].started && workers > 1 {
			mWait.ObserveSince(spawned)
		}
		ws[w].started = true
		if r.resumed[i] {
			return nil
		}
		start := mFault.Start()
		if err := r.gradeFault(run, i); err != nil {
			return err
		}
		mFault.ObserveSince(start)
		ws[w].faults.Add(1)
		return nil
	})
}
