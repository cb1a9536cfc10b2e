package coverage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/artifact"
	"repro/internal/faults"
	"repro/internal/march"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// The lane-parallel grading engine (PPSFP applied to the behavioural
// memory model). All four architectures emit the same canonical
// operation stream on a fault-free memory, and with MaxFails:1 their
// control flow is data-independent up to the first failing read — a
// faulty run is a prefix of the clean run's stream ending at that read.
// Detection is therefore equivalent to "any read mismatches its
// expected value when the full clean stream is replayed". That lets
// one replay of the captured stream grade a whole batch at once: lane 0
// of a faults.LaneInjected is the good machine and logical lanes
// 1..Lanes-1 each carry one fault; every read compares all lanes
// against the expected value in parallel and accumulates a per-plane
// fail mask. gradeBatched narrows that replay twice: to the one or two
// words a fault can touch, and to one lane per class of faults that
// would replay identically (compile.go).

// captureStream builds the architecture's runner, executes it once over
// a Recorder-wrapped fault-free memory and returns the captured
// operation stream. ok reports whether the capture matches the
// canonical reference stream (march.FullStream on the same geometry) —
// the guard the batched engine requires; a divergent capture (e.g. a
// decomposed prog-FSM program) returns ok=false so the caller falls
// back to the scalar oracle.
func captureStream(alg march.Algorithm, arch Architecture, opts Options) ([]march.StreamOp, bool, error) {
	run, err := buildRunner(alg, arch, opts)
	if err != nil {
		return nil, false, err
	}
	rec := &march.Recorder{Mem: memory.NewSRAM(opts.Size, opts.Width, opts.Ports)}
	detected, err := run(rec)
	if err != nil {
		return nil, false, fmt.Errorf("coverage: %s on %s stream capture: %w", alg.Name, arch, err)
	}
	if detected {
		return nil, false, fmt.Errorf("coverage: %s on %s detected a fail on fault-free memory", alg.Name, arch)
	}
	want := march.FullStream(alg, opts.Size, opts.Width, opts.Ports, opts.Width == 1)
	if !streamsEqual(rec.Ops, want) {
		return nil, false, nil
	}
	return rec.Ops, true, nil
}

// Captured streams (and their verification verdicts, including negative
// ones) are deterministic per workload, so they are content-addressed
// in the artifact cache and shared across Grade calls and service
// requests: matrix sweeps and benchmark loops re-grade the same
// (algorithm, architecture, geometry) many times, and re-running the
// controller plus re-expanding the reference stream dominated the
// per-call allocation budget. Entries are immutable once stored
// (replay only reads the stream).
type streamKey struct {
	algFP              uint64
	arch               Architecture
	size, width, ports int
}

type streamEntry struct {
	ops []march.StreamOp
	ok  bool
}

var streamCache = artifact.New[streamKey, streamEntry]("stream", 0)

// cachedCaptureStream is captureStream memoised on the workload key.
// Errors are never cached (they may be transient panics of a chaos
// hook's making — the artifact cache drops failed builds); verification
// verdicts are, so a decomposed program pays its capture exactly once.
func cachedCaptureStream(alg march.Algorithm, arch Architecture, opts Options) ([]march.StreamOp, bool, error) {
	key := streamKey{
		algFP: march.Fingerprint(alg), arch: arch,
		size: opts.Size, width: opts.Width, ports: opts.Ports,
	}
	e, err := streamCache.Get(key, func() (streamEntry, error) {
		ops, ok, err := captureStream(alg, arch, opts)
		if err != nil {
			return streamEntry{}, err
		}
		return streamEntry{ops: ops, ok: ok}, nil
	})
	if err != nil {
		return nil, false, err
	}
	return e.ops, e.ok, nil
}

func streamsEqual(a, b []march.StreamOp) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// localScratch is one grading worker's replay state: the 2-word local
// arena batches replay on and the projection buffer. It outlives the
// grade in a small pool keyed by geometry (getScratch), because the
// arena's fault tables and the buffer already hold the capacity the
// next grade of the same workload needs.
type localScratch struct {
	mem *faults.LaneInjected
	ops []faults.UOp
}

type scratchKey struct {
	width, ports, planes int
}

// batchWorker is one grading worker's state: its scratch and the
// lazily built scalar-retry runner.
type batchWorker struct {
	local *localScratch
	retry runner
}

var (
	scratchMu   sync.Mutex
	scratchPool = map[scratchKey][]*localScratch{}
	scratchN    int
)

// scratchPoolLimit bounds the pooled scratches across all keys.
const scratchPoolLimit = 32

// getScratch takes a pooled scratch for the geometry, or a fresh one
// whose arena the first batch builds.
func getScratch(k scratchKey) *localScratch {
	scratchMu.Lock()
	list := scratchPool[k]
	if n := len(list); n > 0 {
		s := list[n-1]
		list[n-1] = nil
		scratchPool[k] = list[:n-1]
		scratchN--
		scratchMu.Unlock()
		return s
	}
	scratchMu.Unlock()
	return &localScratch{}
}

// putScratch returns a scratch to the pool. Keys whose lists drained
// keep their (empty) slices so the steady get/put cycle allocates
// nothing; they are swept when the pool is full.
func putScratch(k scratchKey, s *localScratch) {
	scratchMu.Lock()
	defer scratchMu.Unlock()
	if scratchN >= scratchPoolLimit {
		for key, list := range scratchPool {
			if len(list) == 0 {
				delete(scratchPool, key)
			}
		}
		return
	}
	scratchPool[k] = append(scratchPool[k], s)
	scratchN++
}

// gradeBatched grades the universe one lane per projection class (see
// compile.go): each batch replays the compiled stream projected onto
// one support on a 2-word local arena, and each lane's verdict commits
// to its class's pending members. Reports — including the Missed
// ordering — are byte-identical to the scalar oracle at any worker
// count or lane width: verdicts commit through universe indices, and
// the report is assembled in universe order. A panic anywhere in a
// batch (hook, injector or replay) fails only that batch: each of its
// pending members is retried individually on the scalar oracle and
// quarantined if it panics again. Cancellation stops the claim loop at
// the next batch boundary.
func (r *gradeRun) gradeBatched(stream []march.StreamOp) error {
	universe := r.universe
	reg := obs.Active()
	cs, err := cachedCompiledStream(r.alg, r.opts, stream)
	if err != nil {
		return fmt.Errorf("coverage: %s on %s: verified stream fails µop validation: %w", r.alg.Name, r.arch, err)
	}
	// Batches check the good machine only on their own words, so the
	// whole stream's check, run once when it was compiled, gates every
	// grade.
	if err := cs.GoodMachineErr(); err != nil {
		return fmt.Errorf("coverage: %s on %s: %w", r.alg.Name, r.arch, err)
	}
	reg.Counter("coverage.compiled_streams").Add(1)
	plan := cachedClassPlan(r.alg, r.opts, universe, cs)
	batches := len(plan.batches)
	workers := min(r.opts.Workers, batches)
	reg.Gauge("coverage.workers").Set(int64(workers))
	reg.Gauge("coverage.lane_width").Set(int64(r.opts.Lanes))
	mBatches := reg.Counter("coverage.batches_replayed")
	mLanes := reg.Span("coverage.batch_lanes")
	mBatch := reg.Span("coverage.batch_ns")
	mFaults := reg.Counter("coverage.faults_graded")
	mClassLanes := reg.Counter("coverage.class_lanes")
	skey := scratchKey{width: r.opts.Width, ports: r.opts.Ports, planes: r.opts.Lanes / 64}

	pendingIn := func(b *classBatch) int {
		pending := 0
		for _, i := range plan.membersOf(b) {
			if !r.resumed[i] {
				pending++
			}
		}
		return pending
	}

	// gradeOne replays one batch on the worker's scratch; a panic
	// escapes as a *PanicError for the caller's scalar retry, and drops
	// the scratch's arena, which may be mid-mutation.
	gradeOne := func(b int, sc *localScratch) error {
		bt := &plan.batches[b]
		pending := pendingIn(bt)
		if pending == 0 {
			// Fully settled by the resumed checkpoint: nothing to replay.
			return nil
		}
		t0 := mBatch.Start()
		var fail [faults.MaxPlanes]uint64
		var rerr error
		perr := resilience.Capture(func() {
			if r.opts.FaultHook != nil {
				for _, i := range plan.membersOf(bt) {
					if !r.resumed[i] {
						r.opts.FaultHook(int(i))
					}
				}
			}
			if sc.mem == nil {
				sc.mem = faults.NewLaneInjectedPlanes(2, skey.width, skey.ports, skey.planes, nil)
			}
			sc.mem.ResetPlanes(plan.faults[bt.lo:bt.hi], int(bt.planes))
			_, sc.ops, rerr = sc.mem.ReplayProjected(cs, bt.words[:bt.n], sc.ops, &fail)
		})
		if perr != nil {
			sc.mem = nil
			return perr
		}
		if rerr != nil {
			return fmt.Errorf("coverage: batch %d (%d classes): %w", b, bt.hi-bt.lo, rerr)
		}
		r.commitClasses(plan, bt, &fail)
		mBatch.ObserveSince(t0)
		mBatches.Add(1)
		mLanes.Observe(int64(bt.hi - bt.lo))
		mClassLanes.Add(int64(bt.hi - bt.lo))
		mFaults.Add(int64(pending))
		return nil
	}

	// runBatch grades one batch, degrading to per-fault scalar retries
	// when the lane replay panics. The scalar fallback runner is per
	// worker, built lazily on first panic and rebuilt after any panic
	// that may have corrupted it. A fault that panics in the scalar loop
	// is itself retried once before quarantine: a wide batch can panic
	// before ever reaching this fault (e.g. an earlier fault's hook blew
	// up first), so the scalar attempt may be the fault's first — the
	// quarantine contract is two panics on the fault itself, matching
	// scalarWorker.
	runBatch := func(sc *batchWorker, b int) error {
		err := gradeOne(b, sc.local)
		if err == nil {
			return nil
		}
		if _, ok := resilience.AsPanic(err); !ok {
			return err
		}
		r.mRetries.Add(1)
		rebuild := func() error {
			sc.retry, err = buildRunnerFresh(r.alg, r.arch, r.opts)
			return err
		}
		for _, ui := range plan.membersOf(&plan.batches[b]) {
			i := int(ui)
			if r.resumed[i] {
				continue
			}
			if r.ctx.Err() != nil {
				return nil
			}
			if sc.retry == nil {
				if err := rebuild(); err != nil {
					return err
				}
			}
			d, ferr := r.scalarOne(sc.retry, i)
			if ferr != nil {
				if _, ok := resilience.AsPanic(ferr); !ok {
					return fmt.Errorf("coverage: %s on %s with %v: %w", r.alg.Name, r.arch, universe[i], ferr)
				}
				r.mRetries.Add(1)
				if err := rebuild(); err != nil {
					return err
				}
				if d, ferr = r.scalarOne(sc.retry, i); ferr != nil {
					p, ok := resilience.AsPanic(ferr)
					if !ok {
						return fmt.Errorf("coverage: %s on %s with %v: %w", r.alg.Name, r.arch, universe[i], ferr)
					}
					r.quarantine(i, p)
					sc.retry = nil
					continue
				}
			}
			r.record(i, d)
			mFaults.Add(1)
		}
		return nil
	}

	if workers <= 1 {
		w := batchWorker{local: getScratch(skey)}
		defer putScratch(skey, w.local)
		for b := 0; b < batches; b++ {
			if r.ctx.Err() != nil {
				return nil
			}
			if err := runBatch(&w, b); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		cursor atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
		emu    sync.Mutex
	)
	errBatch := batches
	var firstErr error
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := batchWorker{local: getScratch(skey)}
			defer putScratch(skey, w.local)
			for {
				b := int(cursor.Add(1)) - 1
				if b >= batches || failed.Load() || r.ctx.Err() != nil {
					return
				}
				if err := runBatch(&w, b); err != nil {
					emu.Lock()
					if b < errBatch {
						errBatch, firstErr = b, err
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
