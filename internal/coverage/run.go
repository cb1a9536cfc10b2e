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
	universe []faults.Fault

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
}

func newGradeRun(ctx context.Context, alg march.Algorithm, arch Architecture, opts Options, universe []faults.Fault) (*gradeRun, error) {
	if ctx == nil {
		ctx = context.Background() //mbist:exempt ctxflow nil-context guard for internal callers, not an invented root
	}
	reg := obs.Active()
	// One backing allocation for the three per-fault bit arrays (full
	// capacity slices, so appends can never alias across them).
	n := len(universe)
	flags := make([]bool, 3*n)
	r := &gradeRun{
		ctx: ctx, alg: alg, arch: arch, opts: opts, universe: universe,
		resumed:      flags[0:n:n],
		graded:       flags[n : 2*n : 2*n],
		detected:     flags[2*n : 3*n : 3*n],
		mQuarantined: reg.Counter("coverage.quarantined"),
		mRetries:     reg.Counter("coverage.panic_retries"),
		mCheckpoints: reg.Counter("coverage.checkpoints"),
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

// scalarOne grades one fault with the scalar oracle, converting a panic
// anywhere in the hook, the injector or the runner into a *PanicError
// instead of unwinding the worker.
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

// gradeScalar grades every unresolved fault with the per-fault oracle:
// universe[i] is injected into a fresh memory and the test executed to
// its first fail. Panics are retried once on a rebuilt runner and then
// quarantined; cancellation stops the claim loop at the next fault.
func (r *gradeRun) gradeScalar() error {
	workers := r.opts.Workers
	if workers > len(r.universe) {
		workers = len(r.universe)
	}
	reg := obs.Active()
	reg.Gauge("coverage.workers").Set(int64(workers))
	if workers <= 1 {
		mWorker := reg.Counter("coverage.worker.00.faults")
		next := 0
		var firstErr error
		r.scalarWorker(mWorker,
			func() int {
				if next >= len(r.universe) {
					return -1
				}
				i := next
				next++
				return i
			},
			func(i int, err error) { firstErr = err })
		return firstErr
	}

	// Parallel: work is claimed dynamically through an atomic cursor so
	// uneven per-fault run times balance out. On a hard error the
	// workers drain and the error for the lowest-indexed failing fault
	// is reported, keeping failures as deterministic as the serial path
	// (runner compile errors carry index -1 and outrank every fault).
	var (
		cursor atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
		emu    sync.Mutex
	)
	errIndex := len(r.universe) + 1
	var firstErr error
	mWait := reg.Span("coverage.worker_start_wait_ns")
	for w := 0; w < workers; w++ {
		wg.Add(1)
		mWorker := reg.Counter(workerFaultCounters[w%len(workerFaultCounters)])
		go func() {
			defer wg.Done()
			launched := mWait.Start()
			first := true
			r.scalarWorker(mWorker,
				func() int {
					i := int(cursor.Add(1)) - 1
					if i >= len(r.universe) || failed.Load() {
						return -1
					}
					if first {
						mWait.ObserveSince(launched)
						first = false
					}
					return i
				},
				func(i int, err error) {
					emu.Lock()
					if i < errIndex {
						errIndex, firstErr = i, err
					}
					emu.Unlock()
					failed.Store(true)
				})
		}()
	}
	wg.Wait()
	return firstErr
}

// scalarWorker is one scalar grading worker: claim a fault index, grade
// it, commit the verdict. A panic is retried once on a freshly built
// runner — the panic may have corrupted the old runner's internal
// state — and quarantined if it recurs; any non-panic error is a hard
// failure handed to fail (index -1 for runner build errors, which
// outrank per-fault errors). claim returning a negative index ends the
// worker; a cancelled context ends it at the next claim.
func (r *gradeRun) scalarWorker(mWorker *obs.Counter, claim func() int, fail func(i int, err error)) {
	reg := obs.Active()
	mFaults := reg.Counter("coverage.faults_graded")
	mFault := reg.Span("coverage.fault_ns")
	run, err := buildRunner(r.alg, r.arch, r.opts)
	if err != nil {
		fail(-1, err)
		return
	}
	rebuild := func() bool {
		if run, err = buildRunnerFresh(r.alg, r.arch, r.opts); err != nil {
			fail(-1, err)
			return false
		}
		return true
	}
	for {
		i := claim()
		if i < 0 {
			return
		}
		if r.resumed[i] {
			continue
		}
		if r.ctx.Err() != nil {
			// Cancelled: stop claiming. finish() renders the partial
			// report and surfaces the context error.
			return
		}
		start := mFault.Start()
		d, ferr := r.scalarOne(run, i)
		if ferr != nil {
			if _, isPanic := resilience.AsPanic(ferr); !isPanic {
				fail(i, fmt.Errorf("coverage: %s on %s with %v: %w", r.alg.Name, r.arch, r.universe[i], ferr))
				return
			}
			r.mRetries.Add(1)
			if !rebuild() {
				return
			}
			if d, ferr = r.scalarOne(run, i); ferr != nil {
				if p, ok := resilience.AsPanic(ferr); ok {
					r.quarantine(i, p)
					if !rebuild() {
						return
					}
					continue
				}
				fail(i, fmt.Errorf("coverage: %s on %s with %v: %w", r.alg.Name, r.arch, r.universe[i], ferr))
				return
			}
		}
		r.record(i, d)
		mFault.ObserveSince(start)
		mFaults.Add(1)
		mWorker.Add(1)
	}
}
