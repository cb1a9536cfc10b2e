// Package benchsuite defines the tracked benchmark suite: the paired
// Serial/Parallel measurements of the two fault-simulation fast paths.
// The root package's Benchmark* functions and cmd/mbistbench (the CI
// regression gate) both execute these definitions, so "what CI gates
// on" and "what go test -bench measures" cannot drift apart.
//
// Importing testing from a non-test package is deliberate: the suite
// must be callable both from *_test.go wrappers and from the
// mbistbench binary via testing.Benchmark.
package benchsuite

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/coverage"
	"repro/internal/logicbist"
	"repro/internal/march"
	"repro/internal/microbist"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// LogicBISTPatterns and LogicBISTSeed fix the random-pattern workload
// both logic-BIST engines are measured on.
const (
	LogicBISTPatterns = 64
	LogicBISTSeed     = 11
)

// ControllerNetlist synthesises the netlist both logic-BIST engines
// are benchmarked on — the March C microcode controller, the same unit
// the §3 testability measurements grade.
func ControllerNetlist(tb testing.TB) *netlist.Netlist {
	tb.Helper()
	p, err := microbist.Assemble(march.MarchC(), microbist.AssembleOpts{WordOriented: true, Multiport: true})
	if err != nil {
		tb.Fatal(err)
	}
	hw, err := microbist.BuildHardware(p, microbist.HWConfig{
		Slots: p.Len(), AddrBits: 4, Width: 1, Ports: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return hw.Netlist
}

// LogicBISTSerial measures the one-fault-at-a-time oracle engine.
func LogicBISTSerial(b *testing.B) {
	logicBIST(b, logicbist.RandomPatternCoverageSerial)
}

// LogicBISTWordParallel measures the 64-lane PPSFP engine.
func LogicBISTWordParallel(b *testing.B) {
	logicBIST(b, logicbist.RandomPatternCoverage)
}

// logicBIST runs one untimed warm-up call before measuring, so
// allocs/op reports the steady state (cross-call caches populated)
// independently of the iteration count — a prerequisite for the CI
// allocs_per_op gate to be stable across benchtime and host speed.
func logicBIST(b *testing.B, engine func(*netlist.Netlist, int, int64) (*logicbist.Result, error)) {
	nl := ControllerNetlist(b)
	if _, err := engine(nl, LogicBISTPatterns, LogicBISTSeed); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var res *logicbist.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = engine(nl, LogicBISTPatterns, LogicBISTSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.Coverage(), "coverage%")
}

func grade(b *testing.B, workers int, engine coverage.Engine) {
	opts := coverage.Options{Size: 16, Workers: workers, Engine: engine}
	alg, ok := march.ByName("marchc")
	if !ok {
		b.Fatal("march library lost marchc")
	}
	// Untimed warm-up: populate the stream/universe/levelization caches
	// and the arena pool so allocs/op reports the steady state
	// independently of the iteration count (see logicBIST).
	if _, err := coverage.Grade(alg, coverage.Microcode, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var rep *coverage.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = coverage.Grade(alg, coverage.Microcode, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Reported after the loop: ResetTimer deletes user metrics, so
	// anything recorded earlier would be lost.
	b.ReportMetric(rep.Overall.Percent(), "coverage%")
	b.ReportMetric(float64(opts.Workers), "workers")
}

// GradeSerial measures scalar functional-fault grading on one worker
// (one injected memory and one full test execution per fault).
func GradeSerial(b *testing.B) { grade(b, 1, coverage.EngineScalar) }

// GradeParallel measures the scalar engine's GOMAXPROCS worker pool.
// The worker count is passed explicitly (not left to the Options
// default) so the recorded "workers" extra is exactly the pool size
// the measurement ran with.
func GradeParallel(b *testing.B) {
	grade(b, runtime.GOMAXPROCS(0), coverage.EngineScalar)
}

// GradeLane measures the lane engine (one lane per cell of faults,
// up to 255 cells per batch replay) on one worker; its speedup is
// tracked against GradeSerial.
func GradeLane(b *testing.B) { grade(b, 1, coverage.EngineAuto) }

// GradeLaneParallel measures the lane engine's batch worker pool at an
// explicit GOMAXPROCS worker count (see GradeParallel).
func GradeLaneParallel(b *testing.B) {
	grade(b, runtime.GOMAXPROCS(0), coverage.EngineAuto)
}

// GradeSharded measures the 4-shard sweep path end to end: grade four
// universe slices, merge their states, rebuild the report. Tracked
// against GradeLane (the same workload unsharded), it pins the
// shard/merge overhead the mbistd service pays for distributable
// sweeps.
func GradeSharded(b *testing.B) {
	const shards = 4
	alg, ok := march.ByName("marchc")
	if !ok {
		b.Fatal("march library lost marchc")
	}
	opts := coverage.Options{Size: 16, Workers: 1}
	run := func() *coverage.Report {
		states := make([]*coverage.State, shards)
		for i := range states {
			var err error
			if states[i], err = coverage.GradeShard(alg, coverage.Microcode, opts, i, shards); err != nil {
				b.Fatal(err)
			}
		}
		merged, err := coverage.MergeStates(states...)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := coverage.ReportFromState(alg, coverage.Microcode, opts, merged)
		if err != nil {
			b.Fatal(err)
		}
		return rep
	}
	run() // untimed warm-up (see logicBIST)
	b.ReportAllocs()
	b.ResetTimer()
	var rep *coverage.Report
	for i := 0; i < b.N; i++ {
		rep = run()
	}
	b.ReportMetric(rep.Overall.Percent(), "coverage%")
	b.ReportMetric(float64(shards), "shards")
}

// GradeLaneMetricsOn measures the lane engine with the obs registry
// enabled. Tracked against GradeLane, it pins the <2% observability
// overhead budget on the batched path (DESIGN.md "Observability").
// It also asserts the compiled-replay counters: the budget measurement
// is only meaningful if the metered runs actually compiled the stream
// and replayed class lanes rather than silently degrading to the
// scalar oracle.
func GradeLaneMetricsOn(b *testing.B) {
	reg := obs.Enable()
	defer obs.Disable()
	grade(b, 1, coverage.EngineAuto)
	if reg.Counter("coverage.compiled_streams").Value() == 0 {
		b.Fatal("metrics-on grade never took the compiled replay path")
	}
	if reg.Counter("coverage.class_lanes").Value() == 0 {
		b.Fatal("metrics-on grade replayed no class lane")
	}
	// The service durability layer (journal appends, retry/watchdog
	// bookkeeping) must stay off the grade hot path: a bare grading run
	// may not touch any serve.* instrument.
	for _, m := range reg.Snapshot() {
		if strings.HasPrefix(m.Name, "serve.") {
			b.Fatalf("grade hot path touched service instrument %s", m.Name)
		}
	}
}

// Case is one tracked benchmark. Serial names the paired serial
// baseline a parallel case's speedup is computed against ("" for the
// serial cases themselves).
type Case struct {
	Name   string
	Serial string
	F      func(*testing.B)
}

// Suite returns the tracked benchmarks in execution order. Names match
// the root package's go-test benchmark names so BENCH_*.json baselines
// and -bench output line up.
func Suite() []Case {
	return []Case{
		{Name: "BenchmarkLogicBISTSerial", F: LogicBISTSerial},
		{Name: "BenchmarkLogicBISTWordParallel", Serial: "BenchmarkLogicBISTSerial", F: LogicBISTWordParallel},
		{Name: "BenchmarkGradeSerial", F: GradeSerial},
		{Name: "BenchmarkGradeParallel", Serial: "BenchmarkGradeSerial", F: GradeParallel},
		{Name: "BenchmarkGradeLane", Serial: "BenchmarkGradeSerial", F: GradeLane},
		{Name: "BenchmarkGradeLaneParallel", Serial: "BenchmarkGradeSerial", F: GradeLaneParallel},
		{Name: "BenchmarkGradeLaneMetricsOn", Serial: "BenchmarkGradeLane", F: GradeLaneMetricsOn},
		{Name: "BenchmarkGradeSharded", Serial: "BenchmarkGradeLane", F: GradeSharded},
	}
}
