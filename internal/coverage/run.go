package coverage

import (
	"context"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/faults"
	"repro/internal/march"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// gradeRun owns the mutable state of one grading run: the verdicts,
// the quarantine list and the checkpoint cadence. All mutation funnels
// through the mutex, so a Checkpoint snapshot is always a consistent
// cut no matter how many workers are grading, and the race detector
// stays quiet across engines.
//
// The lane engine keeps one verdict per cell of the universe's
// partition: a done and a detected bit per cell, from which the report
// is weighted by member count. Per-fault verdict arrays are a layer over that, built only
// when the run needs per-fault identity (perFaultLocked): to resume, to
// grade a shard range, to checkpoint, to call a FaultHook, to retry a
// panicked batch's members one by one, and on the scalar engine.
type gradeRun struct {
	ctx      context.Context
	alg      march.Algorithm
	arch     Architecture
	opts     Options
	u        *faultUniverse
	universe []faults.Fault // u.faults

	// resumed marks faults settled before grading starts: by
	// Options.Resume, or by lying outside a shard's range. It is nil
	// when there are none, and immutable once workers start, so they
	// read it without the lock.
	resumed []bool

	mu sync.Mutex
	// cells is the universe's partition once the lane engine grades;
	// while graded is nil, cellDone[c] and cellDet[c] are cell c's
	// verdict.
	cells             *partition
	cellDone, cellDet []bool
	// graded and detected are the per-fault layer, nil until the run
	// needs it; from then on they hold every verdict.
	graded      []bool
	detected    []bool
	quarantined []FaultVerdict
	sinceCkpt   int

	mQuarantined *obs.Counter
	mRetries     *obs.Counter
	mCheckpoints *obs.Counter
	mFaults      *obs.Counter
	mBatches     *obs.Counter
	mClassLanes  *obs.Counter
	mLanes       *obs.Span
	mBatch       *obs.Span
}

func newGradeRun(ctx context.Context, alg march.Algorithm, arch Architecture, opts Options, u *faultUniverse) (*gradeRun, error) {
	if ctx == nil {
		ctx = context.Background() //mbist:exempt ctxflow nil-context guard for internal callers, not an invented root
	}
	reg := obs.Active()
	universe := u.faults
	r := &gradeRun{
		ctx: ctx, alg: alg, arch: arch, opts: opts, u: u, universe: universe,
		mQuarantined: reg.Counter("coverage.quarantined"),
		mRetries:     reg.Counter("coverage.panic_retries"),
		mCheckpoints: reg.Counter("coverage.checkpoints"),
		mFaults:      reg.Counter("coverage.faults_graded"),
		mBatches:     reg.Counter("coverage.batches_replayed"),
		mClassLanes:  reg.Counter("coverage.class_lanes"),
		mLanes:       reg.Span("coverage.batch_lanes"),
		mBatch:       reg.Span("coverage.batch_ns"),
	}
	if opts.Resume != nil || opts.Engine == EngineScalar || opts.Checkpoint != nil || opts.FaultHook != nil {
		r.perFaultLocked(opts.Resume != nil)
	}
	if s := opts.Resume; s != nil {
		if len(s.Graded) != len(universe) || len(s.Detected) != len(universe) {
			return nil, fmt.Errorf("coverage: resume state covers %d faults, universe has %d (checkpoint from a different workload?)",
				len(s.Graded), len(universe))
		}
		copy(r.graded, s.Graded)
		copy(r.detected, s.Detected)
		copy(r.resumed, s.Graded)
		for _, q := range s.Quarantined {
			if q.Index < 0 || q.Index >= len(universe) || !s.Graded[q.Index] {
				return nil, fmt.Errorf("coverage: resume state quarantines fault %d outside its graded set", q.Index)
			}
			r.quarantined = append(r.quarantined, q)
		}
	}
	return r, nil
}

// settled reports whether fault i was settled before grading started.
func (r *gradeRun) settled(i int) bool { return r.resumed != nil && r.resumed[i] }

// pending counts the members not settled before grading started.
func (r *gradeRun) pending(members []int32) int {
	if r.resumed == nil {
		return len(members)
	}
	n := 0
	for _, i := range members {
		if !r.resumed[i] {
			n++
		}
	}
	return n
}

// useCells hands the run the universe's cells before the lane engine's
// workers start. Without a per-fault layer the run keeps its verdicts
// per cell.
func (r *gradeRun) useCells(cells *partition) {
	r.mu.Lock()
	r.cells = cells
	if r.graded == nil {
		n := len(cells.faults)
		flags := make([]bool, 2*n)
		r.cellDone, r.cellDet = flags[:n:n], flags[n:]
	}
	r.mu.Unlock()
}

// perFaultLocked gives the run its per-fault layer, if it has none:
// one verdict pair per universe fault, seeded from the cell verdicts
// committed so far. Per-fault verdicts then replace the cell ones.
// With settle set it also gives the run its resumed marks, from the
// same allocation when the layer is new. The caller holds r.mu, or
// owns the run before its workers start.
func (r *gradeRun) perFaultLocked(settle bool) {
	n := len(r.universe)
	settle = settle && r.resumed == nil
	if r.graded != nil {
		if settle {
			r.resumed = make([]bool, n)
		}
		return
	}
	k := 2
	if settle {
		k = 3
	}
	flags := make([]bool, k*n)
	r.graded, r.detected = flags[:n:n], flags[n:2*n:2*n]
	if settle {
		r.resumed = flags[2*n:]
	}
	for c, done := range r.cellDone {
		if !done {
			continue
		}
		for _, i := range r.cells.members[r.cells.memberStart[c]:r.cells.memberStart[c+1]] {
			r.graded[i] = true
			r.detected[i] = r.cellDet[c]
		}
	}
	r.cellDone, r.cellDet = nil, nil
}

// record commits one fault's verdict.
//
//mbist:hotpath
func (r *gradeRun) record(i int, detected bool) {
	r.mu.Lock()
	r.perFaultLocked(false)
	r.graded[i] = true
	r.detected[i] = detected
	r.maybeCheckpointLocked(1)
	r.mu.Unlock()
}

// commitCells commits a batch's verdicts in one critical section: cell
// b.lo+k rode logical lane k+1 (plane (k+1)/64, bit (k+1)%64 of the
// fail masks). Without a per-fault layer that sets the cells' verdict
// bits; with one, the verdict settles each member.
// Faults already settled before grading started keep their prior
// verdict (the replay result is identical anyway — verdicts are
// deterministic — but the resumed state stays authoritative).
//
//mbist:hotpath
func (r *gradeRun) commitCells(cells *partition, b *cellBatch, fail *[faults.MaxPlanes]uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.graded == nil {
		for c := b.lo; c < b.hi; c++ {
			l := c - b.lo + 1
			r.cellDone[c] = true
			r.cellDet[c] = fail[l>>6]>>uint(l&63)&1 == 1
		}
		return
	}
	n := 0
	for c := b.lo; c < b.hi; c++ {
		l := c - b.lo + 1
		d := fail[l>>6]>>uint(l&63)&1 == 1
		for _, ui := range cells.members[cells.memberStart[c]:cells.memberStart[c+1]] {
			if r.settled(int(ui)) {
				continue
			}
			r.graded[ui] = true
			r.detected[ui] = d
			n++
		}
	}
	r.maybeCheckpointLocked(n)
}

// quarantine settles fault i as unjudgeable: grading it panicked and
// panicked again on the retry. The verdict text is the stackless panic
// message so reports stay byte-identical across runs and worker counts.
func (r *gradeRun) quarantine(i int, cause error) {
	r.mu.Lock()
	r.perFaultLocked(false)
	r.graded[i] = true
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

// snapshotLocked deep-copies the per-fault layer; the caller-facing
// State never aliases worker-mutated arrays. Quarantine entries are
// sorted by universe index so snapshots are deterministic for a given
// verdict set, regardless of which worker quarantined first.
func (r *gradeRun) snapshotLocked() *State {
	r.perFaultLocked(false)
	return &State{
		Graded:      append([]bool(nil), r.graded...),
		Detected:    append([]bool(nil), r.detected...),
		Quarantined: r.sortedQuarantine(),
	}
}

// sortedQuarantine returns a copy of the quarantine list sorted by
// universe index, nil when it is empty.
func (r *gradeRun) sortedQuarantine() []FaultVerdict {
	if len(r.quarantined) == 0 {
		return nil
	}
	q := append([]FaultVerdict(nil), r.quarantined...)
	sort.Slice(q, func(a, b int) bool { return q[a].Index < q[b].Index })
	return q
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

// buildReportLocked renders the report from the cell verdicts, or
// from the per-fault layer when the run has one.
func (r *gradeRun) buildReportLocked() *Report {
	rep := &Report{
		Algorithm:    r.alg.Name,
		Architecture: r.arch,
		ByKind:       make(map[faults.Kind]Ratio, 16),
		Universe:     len(r.universe),
	}
	// Tally per-kind ratios into a flat array (Kind is a small enum) and
	// build the map once at the end.
	var byKind [faults.NumKinds]Ratio
	if r.graded == nil && r.cells != nil {
		r.cellTallyLocked(rep, &byKind)
	} else {
		r.faultTallyLocked(rep, &byKind)
	}
	for k, kr := range byKind {
		if kr.Total > 0 {
			rep.ByKind[faults.Kind(k)] = kr
			rep.Overall.Total += kr.Total
			rep.Overall.Detected += kr.Detected
		}
	}
	rep.Partial = rep.Graded < rep.Universe
	obs.Active().Counter("coverage.detected").Add(int64(rep.Overall.Detected))
	return rep
}

// cellTallyLocked tallies the cell verdicts, each weighted by its
// member count, and lists the members of undetected cells in universe
// order through a transient bitset.
func (r *gradeRun) cellTallyLocked(rep *Report, byKind *[faults.NumKinds]Ratio) {
	cells := r.cells
	missed := 0
	for c, done := range r.cellDone {
		if !done {
			continue
		}
		n := int(cells.memberStart[c+1] - cells.memberStart[c])
		kr := &byKind[cells.faults[c].Kind]
		rep.Graded += n
		kr.Total += n
		if r.cellDet[c] {
			kr.Detected += n
		} else {
			missed += n
		}
	}
	if missed == 0 {
		return
	}
	set := make([]uint64, (len(r.universe)+63)/64)
	for c, done := range r.cellDone {
		if done && !r.cellDet[c] {
			for _, i := range cells.members[cells.memberStart[c]:cells.memberStart[c+1]] {
				set[i>>6] |= 1 << uint(i&63)
			}
		}
	}
	rep.Missed = make([]faults.Fault, 0, missed)
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			rep.Missed = append(rep.Missed, r.universe[w<<6+bits.TrailingZeros64(word)])
		}
	}
}

// faultTallyLocked tallies the per-fault layer in universe order,
// walking the sorted quarantine list alongside: quarantined faults
// count as graded but neither detected nor missed.
func (r *gradeRun) faultTallyLocked(rep *Report, byKind *[faults.NumKinds]Ratio) {
	r.perFaultLocked(false)
	rep.Quarantined = r.sortedQuarantine()
	q := rep.Quarantined
	missed := 0
	for i := range r.universe {
		if !r.graded[i] {
			continue
		}
		for len(q) > 0 && q[0].Index < i {
			q = q[1:]
		}
		if !r.detected[i] && (len(q) == 0 || q[0].Index != i) {
			missed++
		}
	}
	if missed > 0 {
		rep.Missed = make([]faults.Fault, 0, missed)
	}
	q = rep.Quarantined
	for i, f := range r.universe {
		if !r.graded[i] {
			continue
		}
		rep.Graded++
		for len(q) > 0 && q[0].Index < i {
			q = q[1:]
		}
		if len(q) > 0 && q[0].Index == i {
			continue
		}
		byKind[f.Kind].Total++
		if r.detected[i] {
			byKind[f.Kind].Detected++
		} else {
			rep.Missed = append(rep.Missed, f)
		}
	}
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
		if r.settled(i) {
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
