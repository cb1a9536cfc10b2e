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
// fail mask.

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

// laneScratch is one grading worker's reusable state: the 2-word local
// arena and projection buffer of support-sliced batches, and the lazily
// built scalar-retry runner. Local arenas live and die with the worker
// and never enter the pool below, which holds only the full-geometry
// arenas of whole-stream batches.
type laneScratch struct {
	local *faults.LaneInjected
	ops   []faults.UOp
	retry runner
}

// Arenas are recycled across Grade calls through a bounded free-list
// keyed by geometry and plane capacity: a warm arena's fault tables
// already hold the capacity the same workload's batches need, so
// steady-state grading (benchmark loops, matrix sweeps) re-injects into
// retained storage instead of allocating. arenaGet further prefers the
// arena already armed with the requested batch slice — cached partition
// plans hand out stable slices, so the match lets ResetPlanes skip
// re-injection entirely (batch-affine reuse). Arenas suspected of panic
// corruption are never returned.
//
// Keys whose free-list empties keep their (empty, capacity-bearing)
// slice so the steady-state get/put cycle never re-allocates backing
// arrays; dead keys are swept when the pool reaches its limit, and the
// whole pool is flushed whenever the universe or partition artifact
// caches flush: under a heterogeneous job stream (mbistd) dead
// geometries neither pin map keys nor outlive the plans their batches
// came from.
type arenaKey struct {
	size, width, ports, planes int
}

var (
	arenaMu   sync.Mutex
	arenaPool = map[arenaKey][]*faults.LaneInjected{}
	arenaN    int
)

const arenaPoolLimit = 32

func init() {
	universeCache.SetFlushHook(flushArenas)
	partitionCache.SetFlushHook(flushArenas)
}

func arenaGet(k arenaKey, batch []faults.Fault) *faults.LaneInjected {
	arenaMu.Lock()
	defer arenaMu.Unlock()
	list := arenaPool[k]
	n := len(list)
	pick := -1
	for j := n - 1; j >= 0; j-- {
		if list[j].SameBatch(batch) {
			pick = j
			break
		}
	}
	if pick < 0 {
		// No arena is armed with this batch. While the pool has headroom
		// let the caller allocate a fresh arena instead of recycling a
		// mismatched one: the put after the batch grows the pool toward
		// one arena per distinct batch, which is what makes every later
		// get a re-injection-free hit. Only recycle (pay re-injection,
		// save the allocation) once the pool is at capacity.
		if arenaN < arenaPoolLimit || n == 0 {
			return nil
		}
		pick = n - 1
	}
	m := list[pick]
	list[pick] = list[n-1]
	list[n-1] = nil
	arenaPool[k] = list[:n-1]
	arenaN--
	return m
}

func arenaPut(k arenaKey, m *faults.LaneInjected) {
	if m == nil {
		return
	}
	arenaMu.Lock()
	defer arenaMu.Unlock()
	if arenaN >= arenaPoolLimit {
		// Full: this arena is dropped anyway; take the chance to evict
		// keys whose free-lists have drained (dead geometries under a
		// heterogeneous job stream).
		for key, list := range arenaPool {
			if len(list) == 0 {
				delete(arenaPool, key)
			}
		}
		return
	}
	arenaPool[k] = append(arenaPool[k], m)
	arenaN++
}

// flushArenas empties the pool; registered as the flush hook of the
// universe and partition caches, whose lifetimes bound the batches the
// arenas are armed with.
func flushArenas() {
	arenaMu.Lock()
	arenaPool = map[arenaKey][]*faults.LaneInjected{}
	arenaN = 0
	arenaMu.Unlock()
}

// arenaPoolStats reports the pool's key and arena counts (tests).
func arenaPoolStats() (keys, arenas int) {
	arenaMu.Lock()
	defer arenaMu.Unlock()
	return len(arenaPool), arenaN
}

// gradeBatched grades the universe by replaying the captured stream,
// lowered to a compiled µop program, over lane batches of at most
// opts.Lanes-1 faults: whole-stream batches partitioned by kernel class
// (buildPartition) or support-sliced batches (buildSlicedPartition),
// whichever the cost rule picks. Verdicts commit through each batch's
// universe indices, so the Report — including the Missed ordering — is
// byte-identical to the scalar oracle at any worker count, lane width
// or plan: partitioning reorders grading, never the universe-ordered
// verdict assembly. A panic anywhere in a batch (hook, injector or
// replay) fails only that batch: each of its faults is retried
// individually on the scalar oracle and quarantined if it panics
// again. Cancellation stops the claim loop at the next batch boundary.
func (r *gradeRun) gradeBatched(stream []march.StreamOp) error {
	universe := r.universe
	maxPlanes := r.opts.Lanes / 64
	reg := obs.Active()
	cs, err := cachedCompiledStream(r.alg, r.opts, stream)
	if err != nil {
		return fmt.Errorf("coverage: %s on %s: verified stream fails µop validation: %w", r.alg.Name, r.arch, err)
	}
	// Sliced batches check the good machine only on their own words, so
	// the whole stream's check, run once when it was compiled, gates
	// every grade.
	if err := cs.GoodMachineErr(); err != nil {
		return fmt.Errorf("coverage: %s on %s: %w", r.alg.Name, r.arch, err)
	}
	reg.Counter("coverage.compiled_streams").Add(1)
	plan, sliced := choosePlan(r.alg, r.opts, universe, cs)
	batches := len(plan)
	workers := r.opts.Workers
	if workers > batches {
		workers = batches
	}
	reg.Gauge("coverage.workers").Set(int64(workers))
	reg.Gauge("coverage.lane_width").Set(int64(r.opts.Lanes))
	mBatches := reg.Counter("coverage.batches_replayed")
	mFastKernels := reg.Counter("coverage.fast_kernel_batches")
	mLanes := reg.Span("coverage.batch_lanes")
	mBatch := reg.Span("coverage.batch_ns")
	mFaults := reg.Counter("coverage.faults_graded")
	mSliced := reg.Counter("coverage.sliced_batches")

	pendingIn := func(bt *laneBatch) int {
		pending := 0
		for _, ui := range bt.idx {
			if !r.resumed[ui] {
				pending++
			}
		}
		return pending
	}

	akey := arenaKey{size: r.opts.Size, width: r.opts.Width, ports: r.opts.Ports, planes: maxPlanes}

	// gradeOne replays one batch; a panic escapes as a *PanicError for
	// the caller's scalar retry. Whole-stream arenas are fetched
	// batch-affine from the pool and returned unless the batch panicked
	// (the arena may be mid-mutation); sliced batches use the worker's
	// local arena, dropped on a panic for the same reason.
	gradeOne := func(b int, sc *laneScratch) error {
		bt := &plan[b]
		pending := pendingIn(bt)
		if pending == 0 {
			// Fully settled by the resumed checkpoint: nothing to replay.
			return nil
		}
		t0 := mBatch.Start()
		var fail [faults.MaxPlanes]uint64
		var kern faults.Kernel
		var mem *faults.LaneInjected
		var rerr error
		perr := resilience.Capture(func() {
			if r.opts.FaultHook != nil {
				for _, ui := range bt.idx {
					if !r.resumed[ui] {
						r.opts.FaultHook(int(ui))
					}
				}
			}
			if sliced {
				if sc.local == nil {
					sc.local = faults.NewLaneInjectedPlanes(2, r.opts.Width, r.opts.Ports, maxPlanes, nil)
				}
				mem = sc.local
				mem.ResetPlanes(bt.faults, bt.planes)
				kern, sc.ops, rerr = mem.ReplayProjected(cs, bt.words, sc.ops, &fail)
				return
			}
			mem = arenaGet(akey, bt.faults)
			if mem == nil {
				mem = faults.NewLaneInjectedPlanes(r.opts.Size, r.opts.Width, r.opts.Ports, maxPlanes, nil)
			}
			mem.ResetPlanes(bt.faults, bt.planes)
			kern, rerr = mem.Replay(cs, &fail)
		})
		if perr != nil {
			if sliced {
				sc.local = nil // may be mid-mutation
			}
			return perr
		}
		if sliced {
			mSliced.Add(1)
		} else {
			arenaPut(akey, mem)
		}
		if rerr != nil {
			return fmt.Errorf("coverage: batch %d (%d faults): %w", b, len(bt.faults), rerr)
		}
		r.commitBatch(bt.idx, &fail)
		mBatch.ObserveSince(t0)
		mBatches.Add(1)
		if kern != faults.KernelGeneral {
			mFastKernels.Add(1)
		}
		mLanes.Observe(int64(len(bt.faults)))
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
	runBatch := func(sc *laneScratch, b int) error {
		err := gradeOne(b, sc)
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
		for _, ui := range plan[b].idx {
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
		var sc laneScratch
		for b := 0; b < batches; b++ {
			if r.ctx.Err() != nil {
				return nil
			}
			if err := runBatch(&sc, b); err != nil {
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
			var sc laneScratch
			for {
				b := int(cursor.Add(1)) - 1
				if b >= batches || failed.Load() || r.ctx.Err() != nil {
					return
				}
				if err := runBatch(&sc, b); err != nil {
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
