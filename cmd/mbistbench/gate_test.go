package main

import (
	"os"
	"path/filepath"
	"testing"
)

func suiteEntries(ns float64) map[string]Entry {
	return map[string]Entry{
		"BenchmarkLogicBISTSerial":       {NsPerOp: 40 * ns},
		"BenchmarkLogicBISTWordParallel": {NsPerOp: ns},
		"BenchmarkGradeSerial":           {NsPerOp: 2 * ns},
		"BenchmarkGradeParallel":         {NsPerOp: 2 * ns},
	}
}

func TestGateEqualBaselinePasses(t *testing.T) {
	cur := suiteEntries(1e6)
	regs, compared := Gate(cur, suiteEntries(1e6), 1.30)
	if len(regs) != 0 {
		t.Errorf("equal baseline produced regressions: %v", regs)
	}
	if len(compared) != len(cur) {
		t.Errorf("compared %d benchmarks, want %d", len(compared), len(cur))
	}
}

// TestGateFlagsInjectedSlowdown is the acceptance scenario: a baseline
// whose entry is artificially 2x faster than the current measurement
// must trip the gate.
func TestGateFlagsInjectedSlowdown(t *testing.T) {
	cur := suiteEntries(1e6)
	base := suiteEntries(1e6)
	fast := base["BenchmarkGradeParallel"]
	fast.NsPerOp /= 2
	base["BenchmarkGradeParallel"] = fast

	regs, _ := Gate(cur, base, 1.30)
	if len(regs) != 1 {
		t.Fatalf("got %d regressions, want exactly 1: %v", len(regs), regs)
	}
	if regs[0].Name != "BenchmarkGradeParallel" || regs[0].Ratio < 1.99 || regs[0].Ratio > 2.01 {
		t.Errorf("regression = %+v, want BenchmarkGradeParallel at ~2.0x", regs[0])
	}
}

func TestGateToleranceBoundary(t *testing.T) {
	base := map[string]Entry{"B": {NsPerOp: 100}}
	if regs, _ := Gate(map[string]Entry{"B": {NsPerOp: 130}}, base, 1.30); len(regs) != 0 {
		t.Errorf("ratio exactly at tolerance regressed: %v", regs)
	}
	if regs, _ := Gate(map[string]Entry{"B": {NsPerOp: 131}}, base, 1.30); len(regs) != 1 {
		t.Errorf("ratio above tolerance passed")
	}
	// Speedups never trip the gate.
	if regs, _ := Gate(map[string]Entry{"B": {NsPerOp: 10}}, base, 1.30); len(regs) != 0 {
		t.Errorf("speedup flagged as regression: %v", regs)
	}
}

// TestGateFlagsAllocRegression pins the allocs_per_op gate: growth past
// tolerance trips it, growth within tolerance and alloc-free baselines
// do not.
func TestGateFlagsAllocRegression(t *testing.T) {
	base := map[string]Entry{"B": {NsPerOp: 100, AllocsPerOp: 10}}
	regs, _ := Gate(map[string]Entry{"B": {NsPerOp: 100, AllocsPerOp: 14}}, base, 1.30)
	if len(regs) != 1 {
		t.Fatalf("got %d regressions, want 1: %v", len(regs), regs)
	}
	if regs[0].Metric != "allocs_per_op" || regs[0].Baseline != 10 || regs[0].Current != 14 {
		t.Errorf("regression = %+v, want allocs_per_op 10 -> 14", regs[0])
	}
	if regs, _ := Gate(map[string]Entry{"B": {NsPerOp: 100, AllocsPerOp: 13}}, base, 1.30); len(regs) != 0 {
		t.Errorf("allocs within tolerance regressed: %v", regs)
	}
	// A baseline without positive allocs cannot form a ratio — skipped.
	zero := map[string]Entry{"B": {NsPerOp: 100, AllocsPerOp: 0}}
	if regs, _ := Gate(map[string]Entry{"B": {NsPerOp: 100, AllocsPerOp: 1000}}, zero, 1.30); len(regs) != 0 {
		t.Errorf("alloc-free baseline gated allocs: %v", regs)
	}
}

// TestGateReportsBothMetrics checks one benchmark can regress on time
// and allocations at once.
func TestGateReportsBothMetrics(t *testing.T) {
	base := map[string]Entry{"B": {NsPerOp: 100, AllocsPerOp: 10}}
	regs, _ := Gate(map[string]Entry{"B": {NsPerOp: 200, AllocsPerOp: 20}}, base, 1.30)
	if len(regs) != 2 {
		t.Fatalf("got %d regressions, want 2: %v", len(regs), regs)
	}
	if regs[0].Metric != "ns_per_op" || regs[1].Metric != "allocs_per_op" {
		t.Errorf("metrics = %s, %s", regs[0].Metric, regs[1].Metric)
	}
}

func TestGateSkipsUnsharedBenchmarks(t *testing.T) {
	cur := map[string]Entry{"OnlyCurrent": {NsPerOp: 1}, "Shared": {NsPerOp: 1}}
	base := map[string]Entry{"OnlyBaseline": {NsPerOp: 1}, "Shared": {NsPerOp: 1}}
	regs, compared := Gate(cur, base, 1.30)
	if len(regs) != 0 || len(compared) != 1 || compared[0] != "Shared" {
		t.Errorf("Gate = (%v, %v), want no regressions and only Shared compared", regs, compared)
	}
	if _, compared := Gate(cur, map[string]Entry{"Other": {NsPerOp: 1}}, 1.30); len(compared) != 0 {
		t.Errorf("disjoint baseline compared %v, want nothing", compared)
	}
}

// TestLoadBaselinePR1Format checks the loader still reads the
// hand-rolled pre-schema snapshot committed as BENCH_pr1.json.
func TestLoadBaselinePR1Format(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	pr1 := `{
	  "pr": 1,
	  "command": "go test -bench=...",
	  "benchmarks": {
	    "BenchmarkLogicBISTSerial":       {"ns_per_op": 43229462, "coverage_percent": 90.44, "allocs_per_op": 417},
	    "BenchmarkLogicBISTWordParallel": {"ns_per_op": 844086, "coverage_percent": 90.44, "allocs_per_op": 425}
	  },
	  "speedups": {"logicbist_word_parallel_vs_serial": 51.2}
	}`
	if err := os.WriteFile(path, []byte(pr1), 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := base.Benchmarks["BenchmarkLogicBISTSerial"].NsPerOp; got != 43229462 {
		t.Errorf("serial ns_per_op = %v, want 43229462", got)
	}
	if got := base.Benchmarks["BenchmarkLogicBISTWordParallel"].AllocsPerOp; got != 425 {
		t.Errorf("parallel allocs_per_op = %v, want 425", got)
	}
}

func TestLoadBaselineRejectsEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(path, []byte(`{"pr": 9}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBaseline(path); err == nil {
		t.Error("baseline without benchmarks loaded without error")
	}
}

func TestReportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	rep := &Report{
		Schema:    Schema,
		Benchtime: "1x",
		Benchmarks: map[string]Entry{
			"BenchmarkGradeParallel": {NsPerOp: 123456, AllocsPerOp: 7, Iterations: 5,
				Extra: map[string]float64{"coverage%": 76.14}},
		},
	}
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	e := back.Benchmarks["BenchmarkGradeParallel"]
	if e.NsPerOp != 123456 || e.AllocsPerOp != 7 || e.Extra["coverage%"] != 76.14 {
		t.Errorf("round-tripped entry = %+v", e)
	}
}

// TestReportProcs pins how the gate learns the baseline's GOMAXPROCS:
// the recorded field, else the CPU count of an older snapshot's host
// string, else unknown.
func TestReportProcs(t *testing.T) {
	for _, c := range []struct {
		rep  Report
		want int
	}{
		{Report{Gomaxprocs: 2, Host: "linux/amd64, 8 CPU"}, 2},
		{Report{Host: "linux/amd64, 1 CPU"}, 1},
		{Report{Host: "linux/amd64, 1 CPU (container); parallel Grade speedup requires GOMAXPROCS > 1"}, 1},
		{Report{}, 0},
	} {
		if got := c.rep.Procs(); got != c.want {
			t.Errorf("%+v: Procs() = %d, want %d", c.rep, got, c.want)
		}
	}
	path := filepath.Join(t.TempDir(), "out.json")
	rep := &Report{Schema: Schema, Gomaxprocs: 3, Benchmarks: map[string]Entry{"BenchmarkGradeLane": {NsPerOp: 1}}}
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Procs() != 3 {
		t.Errorf("round-tripped gomaxprocs = %d, want 3", back.Procs())
	}
}
