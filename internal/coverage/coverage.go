// Package coverage grades march algorithms and BIST architectures
// against the functional fault universe. Two engines exist: the scalar
// oracle builds a fresh memory per fault, injects it and executes the
// full test (one complete run per fault); the lane-parallel engine
// captures the architecture's canonical operation stream once and
// replays it, projected onto the one or two words a fault can touch,
// over batches packed into uint64 bit-planes (PPSFP applied to the
// behavioural memory model), one lane per cell of faults that would
// replay identically. Both produce byte-identical Reports. Every
// architecture grades on the lane engine, against the march its
// controller realises; the scalar oracle is the reference it is tested
// against and the retry of a batch that panicked.
//
// Grading is hardened against the three failure modes of matrix-scale
// sweeps: cancellation (GradeContext stops workers at the next fault or
// batch boundary and still emits a valid partial Report), worker panics
// (a panicking fault batch is retried on the scalar oracle and, if it
// panics again, quarantined into Report.Quarantined instead of taking
// the pool down), and interruption (Options.Checkpoint/Resume persist
// per-fault verdicts so a killed run resumes to a byte-identical
// report; see State).
package coverage

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/artifact"
	"repro/internal/faults"
	"repro/internal/march"
)

// Architecture selects the execution engine.
type Architecture uint8

const (
	// Reference is the direct march runner (the oracle).
	Reference Architecture = iota
	// Microcode is the microcode-based programmable controller.
	Microcode
	// ProgFSM is the programmable FSM-based controller.
	ProgFSM
	// Hardwired is the per-algorithm non-programmable controller.
	Hardwired
)

var archNames = [...]string{"reference", "microcode", "prog-fsm", "hardwired"}

func (a Architecture) String() string {
	if int(a) < len(archNames) {
		return archNames[a]
	}
	return fmt.Sprintf("arch(%d)", int(a))
}

// Engine selects the fault-simulation engine.
type Engine uint8

const (
	// EngineAuto checks the architecture's operation stream on a
	// fault-free memory against the reference stream of the march its
	// controller realises (prog-FSM's Realized march, the source
	// algorithm otherwise), then grades on the lane engine under that
	// march: one lane per cell of the universe's partition, up to
	// DefaultLanes-1 cells per batch replay. A stream that differs is
	// an error.
	EngineAuto Engine = iota
	// EngineScalar simulates one fault at a time: a fresh injected
	// memory and one complete test execution per fault — the oracle the
	// lane engine is checked against. Tests and benchmarks select it;
	// no driver does.
	EngineScalar
)

// Options configures a grading run.
//
// Every field must either be folded into the checkpoint fingerprint
// (see Fingerprint in state.go) or carry an //mbist:fingerprint-exclude
// annotation arguing why it cannot change verdicts; the fingerprint
// analyzer in internal/vet enforces this.
//
//mbist:fingerprint-source
type Options struct {
	// Size, Width, Ports set the memory geometry (defaults 16×1, 1 port).
	Size  int
	Width int
	Ports int
	// Universe tunes fault enumeration; the zero value is exhaustive.
	Universe faults.UniverseOpts
	// Workers sets the number of concurrent grading workers; 0 means
	// runtime.GOMAXPROCS(0), 1 forces the serial path, and more than
	// 256 is refused. The report is byte-identical at any worker count.
	//mbist:fingerprint-exclude verdicts are byte-identical at any worker count
	Workers int
	// Engine selects the fault-simulation engine (default EngineAuto).
	//mbist:fingerprint-exclude engines are validated byte-identical; a throughput knob, not workload identity
	Engine Engine
	// FaultHook, when non-nil, is called with each fault's universe
	// index immediately before that fault is graded (once per occupied
	// lane at batch start on the batched engine). It is the chaos
	// injection point: a panic raised by the hook is indistinguishable
	// from an engine panic and flows through the same
	// recover/retry/quarantine path. The hook must be safe for
	// concurrent use and deterministic per index if report determinism
	// matters.
	//mbist:fingerprint-exclude chaos instrumentation, not workload identity; a hook that panics only quarantines
	FaultHook func(index int)
	// Checkpoint, when non-nil, receives a consistent snapshot of
	// grading progress roughly every CheckpointEvery graded faults and
	// once more when the run finishes or is cancelled, so an
	// interrupted run always leaves its final state behind. The
	// callback runs with grading paused; keep it brief (an atomic file
	// write — see internal/resilience).
	//mbist:fingerprint-exclude persistence callback; observes progress, never alters verdicts
	Checkpoint func(*State)
	// CheckpointEvery is the checkpoint cadence in graded faults
	// (default 256). Ignored when Checkpoint is nil.
	//mbist:fingerprint-exclude cadence of snapshots, not their content
	CheckpointEvery int
	// Resume seeds the run with a prior State (typically loaded from a
	// checkpoint): already-graded faults keep their verdicts — including
	// quarantine verdicts — and are not re-graded. The State must come
	// from the same workload (same algorithm, architecture, geometry
	// and universe options; see Fingerprint); its bitset lengths are
	// validated against the universe. A resumed run's final report is
	// byte-identical to an uninterrupted one.
	//mbist:fingerprint-exclude the fingerprint's consumer: Resume is validated against it, never folded into it
	Resume *State
}

// DefaultLanes is the lane engine's logical lane width: 256 lanes (4
// bit-planes) per replay, one good machine and 255 classes. Batches
// replay a 1–2-word projection, so the width only sets how many
// classes share one replay; reports do not depend on it.
const DefaultLanes = 256

func (o *Options) normalise() {
	if o.Size <= 0 {
		o.Size = 16
	}
	if o.Width <= 0 {
		o.Width = 1
	}
	if o.Ports <= 0 {
		o.Ports = 1
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 256
	}
	o.Universe.Ports = o.Ports
}

// maxWorkers bounds Options.Workers. The scalar engine starts a
// goroutine per worker (up to one per fault), so without the bound one
// request would set how many.
const maxWorkers = 256

// Validate rejects option values that cannot be defaulted away: a
// negative size, a word width outside [1,64] (a word is one uint64),
// a port count outside [1,256] (µops carry the port in a byte) and
// more than 256 workers. Zero selects the default. Every grading entry
// point calls it; drivers call it to refuse a workload up front.
func (o Options) Validate() error {
	switch {
	case o.Size < 0:
		return fmt.Errorf("coverage: negative memory size %d", o.Size)
	case o.Width < 0 || o.Width > 64:
		return fmt.Errorf("coverage: word width %d outside [1,64]", o.Width)
	case o.Ports < 0 || o.Ports > 256:
		return fmt.Errorf("coverage: %d ports outside [1,256]", o.Ports)
	case o.Workers > maxWorkers:
		return fmt.Errorf("coverage: %d workers over the %d-worker limit", o.Workers, maxWorkers)
	}
	return nil
}

// Ratio is detected-over-total.
type Ratio struct {
	Detected int
	Total    int
}

// Percent returns the detection percentage (100 for an empty class).
func (r Ratio) Percent() float64 {
	if r.Total == 0 {
		return 100
	}
	return 100 * float64(r.Detected) / float64(r.Total)
}

func (r Ratio) String() string {
	return fmt.Sprintf("%d/%d (%.1f%%)", r.Detected, r.Total, r.Percent())
}

// Report is the coverage of one algorithm on one architecture.
type Report struct {
	Algorithm    string
	Architecture Architecture
	ByKind       map[faults.Kind]Ratio
	Overall      Ratio
	Missed       []faults.Fault
	// Quarantined lists faults whose grading panicked and panicked
	// again on the scalar retry, in universe order. They are excluded
	// from ByKind/Overall/Missed so a poisoned fault can neither
	// masquerade as covered nor inflate the missed list.
	Quarantined []FaultVerdict
	// Graded counts faults with a verdict (detected, missed or
	// quarantined); Universe is the total enumerated for the geometry.
	// Partial is true when the run was cancelled before Graded reached
	// Universe — the tallies above then cover only the graded prefix of
	// the work, though every individual verdict is still exact.
	Graded   int
	Universe int
	Partial  bool
}

// Grade runs the algorithm against every fault in the universe on the
// selected architecture, using the engine Options selects (lane-batched
// stream replay by default). The Report — including the Missed and
// Quarantined orderings — is byte-identical across engines and worker
// counts.
func Grade(alg march.Algorithm, arch Architecture, opts Options) (*Report, error) {
	//mbist:exempt ctxflow compatibility wrapper over GradeContext for non-cancellable callers
	return GradeContext(context.Background(), alg, arch, opts)
}

// GradeContext is Grade with cancellation: once ctx is cancelled or
// past its deadline, workers stop at the next fault (or batch) boundary
// and the partial report — valid, with Partial set and every graded
// verdict exact — is returned alongside an error wrapping the context's
// error. A nil report is only returned for hard failures (bad options,
// runner compile errors, engine divergence).
func GradeContext(ctx context.Context, alg march.Algorithm, arch Architecture, opts Options) (*Report, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts.normalise()
	return gradeUniverse(ctx, alg, arch, opts, cachedUniverse(opts))
}

// Fault universes are deterministic per (geometry, UniverseOpts), so
// they are content-addressed in the artifact cache and shared across
// Grade calls and service requests: matrix sweeps and benchmark loops
// re-enumerate the same universe thousands of times, and the
// enumeration was a fixed per-call allocation cost. Cached universes
// are shared — grading only reads them. Concurrent first requests
// (service traffic) enumerate exactly once (artifact singleflight).
type universeKey struct {
	size, width int
	opts        faults.UniverseOpts
}

// faultUniverse is a cached universe. Its partition into cells of one
// support shape and one localised fault (compile.go), which only the
// lane engine reads, is built on first use and kept with it.
type faultUniverse struct {
	faults      []faults.Fault
	size, width int
	partOnce    sync.Once
	part        *partition
}

// partition returns the universe's partition, building it on the first
// call.
func (u *faultUniverse) partition() *partition {
	u.partOnce.Do(func() { u.part = buildPartition(u.faults, u.size, u.width) })
	return u.part
}

var universeCache = artifact.New[universeKey, *faultUniverse]("universe", 0)

func cachedUniverse(opts Options) *faultUniverse {
	key := universeKey{size: opts.Size, width: opts.Width, opts: opts.Universe}
	u, _ := universeCache.Get(key, func() (*faultUniverse, error) {
		return &faultUniverse{
			faults: faults.Universe(opts.Size, opts.Width, opts.Universe),
			size:   opts.Size, width: opts.Width,
		}, nil
	})
	return u
}

// UniverseSize returns the number of faults a grading run with these
// options enumerates — the denominator a driver streaming progress
// (e.g. the grading service) reports against before the run finishes.
func UniverseSize(opts Options) int {
	opts.normalise()
	return len(cachedUniverse(opts).faults)
}

// gradeUniverse grades a pre-enumerated universe; opts must be
// normalised and the universe enumerated with opts.Universe on the
// opts geometry. Matrix uses it to enumerate the fault universe once
// per geometry and share it across Grade calls.
func gradeUniverse(ctx context.Context, alg march.Algorithm, arch Architecture, opts Options, u *faultUniverse) (*Report, error) {
	r, err := newGradeRun(ctx, alg, arch, opts, u)
	if err != nil {
		return nil, err
	}
	if err := r.runEngine(); err != nil {
		return nil, err
	}
	return r.finish()
}

// runEngine grades every unresolved fault: on the lane engine under
// the march the architecture's controller realises, or on the scalar
// oracle when the options select it.
func (r *gradeRun) runEngine() error {
	if r.opts.Engine == EngineScalar {
		return r.gradeScalar()
	}
	realised, err := verifiedMarch(r.alg, r.arch, r.opts)
	if err != nil {
		return err
	}
	return r.gradeBatched(realised)
}

// String renders the report as an aligned table sorted by fault kind.
func (rep *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s: %s overall\n", rep.Algorithm, rep.Architecture, rep.Overall)
	kinds := make([]faults.Kind, 0, len(rep.ByKind))
	for k := range rep.ByKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		fmt.Fprintf(&b, "  %-8s %s\n", k, rep.ByKind[k])
	}
	if len(rep.Quarantined) > 0 {
		fmt.Fprintf(&b, "  quarantined %d fault(s)\n", len(rep.Quarantined))
	}
	if rep.Partial {
		fmt.Fprintf(&b, "  PARTIAL: %d/%d faults graded\n", rep.Graded, rep.Universe)
	}
	return b.String()
}

// Matrix grades several algorithms on one architecture and renders a
// kind-by-algorithm coverage table. The fault universe is enumerated
// once for the geometry and shared across all Grade calls.
func Matrix(algs []march.Algorithm, arch Architecture, opts Options) (string, error) {
	//mbist:exempt ctxflow compatibility wrapper over MatrixContext, mirroring Grade
	return MatrixContext(context.Background(), algs, arch, opts)
}

// MatrixContext is Matrix with cancellation: the context is threaded
// into every per-algorithm grade, so cancelling it stops the sweep at
// the next fault (or batch) boundary. Unlike GradeContext no partial
// table is rendered — a cancelled sweep returns only the error.
func MatrixContext(ctx context.Context, algs []march.Algorithm, arch Architecture, opts Options) (string, error) {
	if err := opts.Validate(); err != nil {
		return "", err
	}
	opts.normalise()
	universe := cachedUniverse(opts)
	var reports []*Report
	for _, alg := range algs {
		rep, err := gradeUniverse(ctx, alg, arch, opts, universe)
		if err != nil {
			return "", err
		}
		reports = append(reports, rep)
	}
	return RenderMatrix(reports), nil
}

// RenderMatrix renders graded reports as a fault-kind × algorithm
// table: the body of Matrix, exported so drivers that grade the
// algorithms themselves (for per-algorithm checkpoint/resume) can reuse
// the rendering.
func RenderMatrix(reports []*Report) string {
	kindSet := map[faults.Kind]bool{}
	for _, rep := range reports {
		for k := range rep.ByKind {
			kindSet[k] = true
		}
	}
	kinds := make([]faults.Kind, 0, len(kindSet))
	for k := range kindSet {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })

	var b strings.Builder
	fmt.Fprintf(&b, "%-12s", "fault\\alg")
	for _, rep := range reports {
		fmt.Fprintf(&b, " %12s", rep.Algorithm)
	}
	b.WriteByte('\n')
	for _, k := range kinds {
		fmt.Fprintf(&b, "%-12s", k.String())
		for _, rep := range reports {
			fmt.Fprintf(&b, " %11.1f%%", rep.ByKind[k].Percent())
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-12s", "overall")
	for _, rep := range reports {
		fmt.Fprintf(&b, " %11.1f%%", rep.Overall.Percent())
	}
	b.WriteByte('\n')
	return b.String()
}
