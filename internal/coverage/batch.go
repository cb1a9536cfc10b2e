package coverage

import (
	"fmt"
	"sync"

	"repro/internal/artifact"
	"repro/internal/faults"
	"repro/internal/fsmbist"
	"repro/internal/march"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// The lane-parallel grading engine (PPSFP applied to the behavioural
// memory model). Every architecture's controller executes a march, the
// source algorithm or, on prog-FSM, the Realized march its SM
// components split some elements into, and on a fault-free memory it
// emits that march's canonical operation stream. With MaxFails:1 its
// control flow is data-independent up to the first failing read — a
// faulty run is a prefix of the clean run's stream ending at that read.
// Detection is therefore equivalent to "any read mismatches its
// expected value when the full clean stream is replayed". That lets
// one replay grade a whole batch at once: lane 0 of a
// faults.LaneInjected is the good machine and logical lanes
// 1..DefaultLanes-1 each carry one cell of the universe's partition, a
// fault that stands for every universe fault that would replay
// identically (compile.go); every read compares all lanes against the
// expected value in parallel and accumulates a per-plane fail mask.
// Each batch replays not the whole stream but its cells' projection
// onto the one or two words their faults can touch.

// referenceStream expands the canonical reference stream of the
// workload: the stream march.Run issues on its geometry.
func referenceStream(alg march.Algorithm, opts Options) []march.StreamOp {
	return march.FullStream(alg, opts.Size, opts.Width, opts.Ports, opts.Width == 1)
}

// realisedMarch returns the march the architecture's controller
// executes for alg: a prog-FSM program's Realized march, which splits
// the elements its SM components cannot run whole, and alg itself on
// every other architecture.
func realisedMarch(alg march.Algorithm, arch Architecture, opts Options) (march.Algorithm, error) {
	if arch != ProgFSM {
		return alg, nil
	}
	ctrl, err := cachedController(alg, arch, opts)
	if err != nil {
		return march.Algorithm{}, err
	}
	return ctrl.(*fsmbist.Program).Realized, nil
}

// streamCheck is a fault-free memory that checks every operation a
// controller issues, as it issues it, against the next op of a
// reference stream. n counts the ops issued; err describes the first
// that differs.
type streamCheck struct {
	*memory.SRAM
	ref *march.StreamCursor
	n   int
	err error
}

func (c *streamCheck) issue(op march.StreamOp) {
	if want, ok := c.ref.Next(); c.err == nil && (!ok || want != op) {
		c.err = fmt.Errorf("captured op %d is %+v, the realised march's stream has %s", c.n, op, opOrEnd(want, ok))
	}
	c.n++
}

func opOrEnd(op march.StreamOp, ok bool) string {
	if !ok {
		return "the end of the stream"
	}
	return fmt.Sprintf("%+v", op)
}

func (c *streamCheck) Read(port, addr int) uint64 {
	v := c.SRAM.Read(port, addr)
	c.issue(march.StreamOp{Port: port, Addr: addr, Data: v})
	return v
}

func (c *streamCheck) Write(port, addr int, data uint64) {
	c.SRAM.Write(port, addr, data)
	c.issue(march.StreamOp{Write: true, Port: port, Addr: addr, Data: data})
}

func (c *streamCheck) Pause() { c.issue(march.StreamOp{Pause: true}) }

// verifyStream runs the architecture's controller for alg once over a
// fault-free memory and checks each operation it issues against the
// reference stream of realised, the march the controller executes. A
// controller that issues another stream, or detects a fail on the
// fault-free memory, is an error.
func verifyStream(alg, realised march.Algorithm, arch Architecture, opts Options) error {
	run, err := buildRunner(alg, arch, opts)
	if err != nil {
		return err
	}
	chk := &streamCheck{
		SRAM: memory.NewSRAM(opts.Size, opts.Width, opts.Ports),
		ref:  march.NewStreamCursor(realised, opts.Size, opts.Width, opts.Ports, opts.Width == 1),
	}
	detected, err := run(chk)
	if err != nil {
		return fmt.Errorf("coverage: %s on %s stream capture: %w", alg.Name, arch, err)
	}
	if want, ok := chk.ref.Next(); chk.err == nil && ok {
		chk.err = fmt.Errorf("captured op %d is the end of the stream, the realised march's stream has %+v", chk.n, want)
	}
	if chk.err != nil {
		return fmt.Errorf("coverage: %s on %s: %w", alg.Name, arch, chk.err)
	}
	if detected {
		return fmt.Errorf("coverage: %s on %s detected a fail on fault-free memory", alg.Name, arch)
	}
	return nil
}

// A verified stream is deterministic per (algorithm, architecture,
// geometry), so the verification is cached and shared across Grade
// calls and service requests, keeping the realised march it verified
// against; no stream is ever kept.
type streamKey struct {
	algFP              uint64
	arch               Architecture
	size, width, ports int
}

// streamVerdictLimit bounds the verdict cache. An entry is one march,
// so the bound is set to cover the key space of a whole-library sweep
// over every architecture and many geometries, not to save memory.
const streamVerdictLimit = 1024

var streamCache = artifact.New[streamKey, march.Algorithm]("stream", streamVerdictLimit)

// verifiedMarch returns the march the architecture's controller
// realises for alg, once verifyStream has checked the controller's
// stream against it, memoised on the workload key. Errors are never
// cached (they may be transient panics of a chaos hook's making — the
// artifact cache drops failed builds).
func verifiedMarch(alg march.Algorithm, arch Architecture, opts Options) (march.Algorithm, error) {
	key := streamKey{
		algFP: march.Fingerprint(alg), arch: arch,
		size: opts.Size, width: opts.Width, ports: opts.Ports,
	}
	return streamCache.Get(key, func() (march.Algorithm, error) {
		realised, err := realisedMarch(alg, arch, opts)
		if err != nil {
			return march.Algorithm{}, err
		}
		return realised, verifyStream(alg, realised, arch, opts)
	})
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

// gradeBatched grades the universe one lane per cell (see
// compile.go) under realised, the march the architecture's controller
// executes: each batch replays its shape's projection on a 2-word
// arena, and each lane's verdict is its cell's (commitCells). Reports —
// including the Missed ordering — are byte-identical to the scalar
// oracle at any worker count: the report is assembled in universe
// order. A panic anywhere in a batch (hook, injector or replay) fails
// only that batch: each of its pending members is retried
// individually on the scalar oracle and quarantined if it panics
// again. Cancellation stops the claim loop at the next batch boundary.
func (r *gradeRun) gradeBatched(realised march.Algorithm) error {
	reg := obs.Active()
	plan, err := cachedPlan(realised, r.opts)
	if err != nil {
		return fmt.Errorf("coverage: %s on %s: %w", r.alg.Name, r.arch, err)
	}
	part := r.u.partition()
	r.useCells(part)
	reg.Counter("coverage.compiled_streams").Add(1)
	batches := len(part.batches)
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
		err := r.replayBatch(plan, part, b, &arenas[w])
		if _, ok := resilience.AsPanic(err); !ok {
			return err
		}
		r.mRetries.Add(1)
		run, err := buildRunner(r.alg, r.arch, r.opts)
		if err != nil {
			return err
		}
		for _, ui := range part.membersOf(&part.batches[b]) {
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

// replayBatch replays batch b of the partition on a worker's arena and
// commits its verdicts. A panic escapes as a *PanicError for the
// caller's scalar retry, and drops the arena, which may be
// mid-mutation.
func (r *gradeRun) replayBatch(plan *shapePlan, part *partition, b int, arena **faults.LaneInjected) error {
	bt := &part.batches[b]
	pending := r.pending(part.membersOf(bt))
	if pending == 0 {
		// Fully settled by the resumed checkpoint: nothing to replay.
		return nil
	}
	t0 := r.mBatch.Start()
	var fail [faults.MaxPlanes]uint64
	var rerr error
	perr := resilience.Capture(func() {
		if r.opts.FaultHook != nil {
			for _, i := range part.membersOf(bt) {
				if !r.settled(int(i)) {
					r.opts.FaultHook(int(i))
				}
			}
		}
		if *arena == nil {
			*arena = faults.NewLaneInjectedPlanes(2, r.opts.Width, r.opts.Ports, batchPlanes, nil)
		}
		(*arena).ResetPlanes(part.faults[bt.lo:bt.hi], int(bt.planes))
		_, rerr = (*arena).Replay(plan[bt.shape], &fail)
	})
	if perr != nil {
		*arena = nil
		return perr
	}
	if rerr != nil {
		return fmt.Errorf("coverage: batch %d (%d cells): %w", b, bt.hi-bt.lo, rerr)
	}
	r.commitCells(part, bt, &fail)
	r.mBatch.ObserveSince(t0)
	r.mBatches.Add(1)
	r.mLanes.Observe(int64(bt.hi - bt.lo))
	r.mClassLanes.Add(int64(bt.hi - bt.lo))
	r.mFaults.Add(int64(pending))
	return nil
}
