package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// The benchmark re-executes its own binary (setup probes, the untraced
// sibling of a traced run). Under go test that binary is the test
// binary, which then acts as the command.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && (os.Args[1] == "-setup-probe" || os.Args[1] == "-workload") {
		main()
		os.Exit(0)
	}
	// A race-enabled binary sleeps a second at exit by default; every
	// re-executed child would pay it.
	os.Setenv("GORACE", strings.TrimSpace(os.Getenv("GORACE")+" atexit_sleep_ms=0"))
	os.Exit(m.Run())
}

// TestMetricsMatchBenchmarkJSON pins the emitted metric names and units
// to BENCHMARK.json, which the benchmark's users read them from.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name            string
		declared, known []metricDef
	}{
		{"end_to_end", spec.EndToEnd, endToEndMetrics},
		{"per_layer", spec.PerLayer, perLayerMetrics},
	} {
		if len(c.declared) != len(c.known) {
			t.Fatalf("BENCHMARK.json declares %d %s metrics, the benchmark emits %d", len(c.declared), c.name, len(c.known))
		}
		for i := range c.known {
			if c.declared[i] != c.known[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the benchmark emits %+v", c.name, i, c.declared[i], c.known[i])
			}
		}
	}
}

// TestWorkloadsSmoke runs every workload traced at smoke scale: the
// untraced sibling, the production ops, their checks and the decomposed
// pipeline must all agree, and every declared metric must be emitted.
func TestWorkloadsSmoke(t *testing.T) {
	check := func(rec *runRecord, err error, defs []metricDef) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Correct || rec.Failed != 0 {
			for _, o := range rec.Ops {
				if o.Error != "" {
					t.Errorf("%s op %d (%s): %s", rec.Workload, o.Index, o.Key, o.Error)
				}
			}
			t.Fatalf("%s: %d of %d ops failed", rec.Workload, rec.Failed, rec.Attempted)
		}
		if len(rec.Metrics) != len(defs) {
			t.Fatalf("%s emitted %d metrics, want %d", rec.Workload, len(rec.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := rec.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: metric %s = %+v, want unit %s", rec.Workload, d.Name, m, d.Unit)
			}
		}
	}
	ctx := context.Background()
	for _, w := range workloadNames {
		cfg := runConfig{Workload: w, Seed: 3, Scale: scaleSmoke, Trace: true}
		rec, err := runOne(ctx, cfg)
		check(rec, err, perLayerMetrics)
	}
	rec, err := runOne(ctx, runConfig{Workload: "grade-fleet", Seed: 3, Scale: scaleSmoke})
	check(rec, err, endToEndMetrics)
}

// TestDecomposedMatchesProduction pins byte identity between the
// decomposed pipeline and the production grade on every architecture at
// one and two ports, including prog-FSM's scalar fallback.
func TestDecomposedMatchesProduction(t *testing.T) {
	ctx := context.Background()
	for _, arch := range []string{"reference", "microcode", "fsm", "hardwired"} {
		for _, ports := range []int{1, 2} {
			g := gradeOp{Spec: gradeSpec(arch, "", 8, 2, ports)}
			reps, _, err := g.produce(ctx)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer(time.Now(), false)
			tr.beginOp(0)
			dreps, err := decomposeOp(tr, &g)
			tr.end()
			if err != nil {
				t.Fatalf("%s: %v", g.key(), err)
			}
			if got, want := digestReports(dreps), digestReports(reps); got != want {
				t.Errorf("%s: decomposed digest %s, production %s", g.key(), got, want)
			}
			if fallback := tr.self[spanScalar] > 0; fallback != (arch == "fsm") {
				t.Errorf("%s: scalar fallback %v", g.key(), fallback)
			}
		}
	}
}

func TestClassify(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, c := range []struct {
		change       []float64
		higherBetter bool
		want         string
	}{
		{[]float64{100, 101, 99, 100}, false, "unchanged"},
		{[]float64{120, 121, 119, 120}, false, "worse"},
		{[]float64{120, 121, 119, 120}, true, "improved"},
		{[]float64{80, 81, 79, 80}, false, "improved"},
		{[]float64{80, 81, 79, 80}, true, "worse"},
	} {
		if got, _ := classify(parent, c.change, c.higherBetter, 0.1); got != c.want {
			t.Errorf("classify(%v, higher=%v) = %s, want %s", c.change, c.higherBetter, got, c.want)
		}
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	if got, _ := classify(noisy, []float64{115, 95, 105}, false, 0.1); got != "unresolved" {
		t.Errorf("classify on a noisy parent = %s, want unresolved", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4):
// [1..10] gives [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if want := [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Fatalf("quartiles = %v, want %v", got, want)
	}
}
