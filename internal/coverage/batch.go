package coverage

import (
	"fmt"
	"sync"

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
// one replay grade a whole batch at once: lane 0 of a
// faults.LaneInjected is the good machine and logical lanes
// 1..DefaultLanes-1 each carry one projection class, a fault that
// stands for every universe fault that would replay identically
// (compile.go); every read compares all lanes against the expected
// value in parallel and accumulates a per-plane fail mask. Each batch
// replays not the whole stream but its classes' projection onto the
// one or two words their faults can touch.

// referenceStream expands the canonical reference stream of the
// workload: the stream march.Run issues on its geometry.
func referenceStream(alg march.Algorithm, opts Options) []march.StreamOp {
	return march.FullStream(alg, opts.Size, opts.Width, opts.Ports, opts.Width == 1)
}

// verifyStream runs the architecture's runner once over a
// Recorder-wrapped fault-free memory and compares the captured
// operation stream with the reference stream. ok reports a match, the
// guard the batched engine requires; a divergent capture (e.g. a
// decomposed prog-FSM program) returns ok=false so the caller falls
// back to the scalar oracle.
func verifyStream(alg march.Algorithm, arch Architecture, opts Options) (ok bool, err error) {
	run, err := buildRunner(alg, arch, opts)
	if err != nil {
		return false, err
	}
	ref := referenceStream(alg, opts)
	rec := &march.Recorder{
		Mem: memory.NewSRAM(opts.Size, opts.Width, opts.Ports),
		Ops: make([]march.StreamOp, 0, len(ref)),
	}
	detected, err := run(rec)
	if err != nil {
		return false, fmt.Errorf("coverage: %s on %s stream capture: %w", alg.Name, arch, err)
	}
	if detected {
		return false, fmt.Errorf("coverage: %s on %s detected a fail on fault-free memory", alg.Name, arch)
	}
	return streamsEqual(rec.Ops, ref), nil
}

// Verification verdicts (including negative ones) are deterministic
// per (algorithm, architecture, geometry), so they are cached and
// shared across Grade calls and service requests; the streams
// themselves are dropped once compared. Only the verdict is
// per-architecture: a verified stream equals the reference stream, so
// every verified architecture shares one class plan (compile.go).
type streamKey struct {
	algFP              uint64
	arch               Architecture
	size, width, ports int
}

// streamVerdictLimit bounds the verdict cache. An entry is one bool, so
// the bound is set to cover the key space of a whole-library sweep over
// every architecture and many geometries, not to save memory.
const streamVerdictLimit = 1024

var streamCache = artifact.New[streamKey, bool]("stream", streamVerdictLimit)

// streamVerified is verifyStream's verdict, memoised on the workload
// key. Errors are never cached (they may be transient panics of a
// chaos hook's making — the artifact cache drops failed builds);
// verdicts are, so a decomposed program pays its capture exactly once.
func streamVerified(alg march.Algorithm, arch Architecture, opts Options) (bool, error) {
	key := streamKey{
		algFP: march.Fingerprint(alg), arch: arch,
		size: opts.Size, width: opts.Width, ports: opts.Ports,
	}
	return streamCache.Get(key, func() (bool, error) {
		return verifyStream(alg, arch, opts)
	})
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

// Lane arenas outlive the grade in a small pool keyed by geometry
// (getScratch), because an arena's fault tables already hold the
// capacity the next grade of the same workload needs. Every arena is a
// 2-word memory of batchPlanes planes.
type scratchKey struct {
	width, ports int
}

var (
	scratchMu   sync.Mutex
	scratchPool = map[scratchKey][]*faults.LaneInjected{}
	scratchN    int
)

// scratchPoolLimit bounds the pooled arenas across all keys.
const scratchPoolLimit = 32

// getScratch takes a pooled arena for the geometry, or nil: the first
// batch then builds one.
func getScratch(k scratchKey) *faults.LaneInjected {
	scratchMu.Lock()
	defer scratchMu.Unlock()
	list := scratchPool[k]
	n := len(list)
	if n == 0 {
		return nil
	}
	m := list[n-1]
	list[n-1] = nil
	scratchPool[k] = list[:n-1]
	scratchN--
	return m
}

// putScratch returns an arena to the pool. Keys whose lists drained
// keep their (empty) slices so the steady get/put cycle allocates
// nothing; they are swept when the pool is full.
func putScratch(k scratchKey, m *faults.LaneInjected) {
	if m == nil {
		return
	}
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
	scratchPool[k] = append(scratchPool[k], m)
	scratchN++
}

// gradeBatched grades the universe one lane per projection class (see
// compile.go): each batch replays one projection on a 2-word arena,
// and each lane's verdict is its class's (commitClasses). Reports —
// including the Missed ordering — are byte-identical to the scalar
// oracle at any worker count: the report is assembled in universe
// order. A panic anywhere in a batch (hook, injector or replay) fails
// only that batch: each of its pending members is retried
// individually on the scalar oracle and quarantined if it panics
// again. Cancellation stops the claim loop at the next batch boundary.
func (r *gradeRun) gradeBatched() error {
	reg := obs.Active()
	plan, err := cachedClassPlan(r.alg, r.opts, r.u)
	if err != nil {
		return fmt.Errorf("coverage: %s on %s: %w", r.alg.Name, r.arch, err)
	}
	r.usePlan(plan)
	reg.Counter("coverage.compiled_streams").Add(1)
	batches := len(plan.batches)
	workers := min(r.opts.Workers, batches)
	reg.Gauge("coverage.workers").Set(int64(workers))
	skey := scratchKey{width: r.opts.Width, ports: r.opts.Ports}
	arenas := make([]*faults.LaneInjected, max(workers, 1))
	for w := range arenas {
		arenas[w] = getScratch(skey)
	}
	defer func() {
		for _, m := range arenas {
			putScratch(skey, m)
		}
	}()
	// A batch whose lane replay panics degrades to the scalar oracle:
	// each pending member is graded on its own by gradeFault, which
	// retries a member that panics again before quarantining it. A wide
	// batch can panic before ever reaching a member (an earlier member's
	// hook blew up first), so the scalar attempt may be the member's
	// first.
	return r.claimLoop(batches, workers, func(w, b int) error {
		err := r.replayBatch(plan, b, &arenas[w])
		if _, ok := resilience.AsPanic(err); !ok {
			return err
		}
		r.mRetries.Add(1)
		run, err := buildRunner(r.alg, r.arch, r.opts)
		if err != nil {
			return err
		}
		for _, ui := range plan.membersOf(&plan.batches[b]) {
			i := int(ui)
			if r.settled(i) {
				continue
			}
			if r.ctx.Err() != nil {
				return nil
			}
			if err := r.gradeFault(run, i); err != nil {
				return err
			}
		}
		return nil
	})
}

// replayBatch replays batch b of the plan on a worker's arena and
// commits its verdicts. A panic escapes as a *PanicError for the
// caller's scalar retry, and drops the arena, which may be
// mid-mutation.
func (r *gradeRun) replayBatch(plan *classPlan, b int, arena **faults.LaneInjected) error {
	bt := &plan.batches[b]
	pending := r.pending(plan.membersOf(bt))
	if pending == 0 {
		// Fully settled by the resumed checkpoint: nothing to replay.
		return nil
	}
	t0 := r.mBatch.Start()
	var fail [faults.MaxPlanes]uint64
	var rerr error
	perr := resilience.Capture(func() {
		if r.opts.FaultHook != nil {
			for _, i := range plan.membersOf(bt) {
				if !r.settled(int(i)) {
					r.opts.FaultHook(int(i))
				}
			}
		}
		if *arena == nil {
			*arena = faults.NewLaneInjectedPlanes(2, r.opts.Width, r.opts.Ports, batchPlanes, nil)
		}
		(*arena).ResetPlanes(plan.faults[bt.lo:bt.hi], int(bt.planes))
		_, rerr = (*arena).Replay(plan.projs[bt.proj], &fail)
	})
	if perr != nil {
		*arena = nil
		return perr
	}
	if rerr != nil {
		return fmt.Errorf("coverage: batch %d (%d classes): %w", b, bt.hi-bt.lo, rerr)
	}
	r.commitClasses(plan, bt, &fail)
	r.mBatch.ObserveSince(t0)
	r.mBatches.Add(1)
	r.mLanes.Observe(int64(bt.hi - bt.lo))
	r.mClassLanes.Add(int64(bt.hi - bt.lo))
	r.mFaults.Add(int64(pending))
	return nil
}
