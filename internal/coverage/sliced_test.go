package coverage

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/faults"
	"repro/internal/march"
	"repro/internal/obs"
	"repro/internal/raceflag"
)

// forcePlan pins the plan choice (planSliced, planWhole or planAuto)
// and returns the restore function.
func forcePlan(p int) func() {
	prev := planOverride
	planOverride = p
	return func() { planOverride = prev }
}

// gradeEachPlan grades one workload with both lane plans forced and,
// when withScalar is set, with the scalar oracle, and fails unless the
// reports are byte-identical. Without the oracle the whole-stream
// report is the reference.
func gradeEachPlan(t *testing.T, what string, alg march.Algorithm, arch Architecture, opts Options, withScalar bool) {
	t.Helper()
	var want *Report
	if withScalar {
		scalar := opts
		scalar.Engine = EngineScalar
		scalar.Workers = 0
		var err error
		if want, err = Grade(alg, arch, scalar); err != nil {
			t.Fatalf("%s: scalar: %v", what, err)
		}
	}
	for _, p := range []struct {
		name string
		plan int
	}{{"whole-stream", planWhole}, {"sliced", planSliced}} {
		restore := forcePlan(p.plan)
		got, err := Grade(alg, arch, opts)
		restore()
		if err != nil {
			t.Fatalf("%s: %s: %v", what, p.name, err)
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) || got.String() != want.String() {
			t.Fatalf("%s: %s report differs:\ngot  %v\nwant %v", what, p.name, got, want)
		}
	}
}

// TestSlicedMatchesWholeAndScalar is the differential property of
// support-sliced replay over the march library: every algorithm on
// every architecture, on a word-oriented 2-port and a bit-oriented
// 1-port geometry, grades byte-identically on the sliced plan and the
// whole-stream plan over the exhaustive universe, and on both plans
// and the scalar oracle over a sampled one (the oracle over the
// exhaustive universes would take most of a minute). Under the race
// detector, which slows it tenfold, only the microcode column runs: the
// replay code is the same for every architecture whose stream verifies.
func TestSlicedMatchesWholeAndScalar(t *testing.T) {
	names := make([]string, 0, len(march.Library()))
	for name := range march.Library() {
		names = append(names, name)
	}
	sort.Strings(names)
	archs := []Architecture{Reference, Microcode, ProgFSM, Hardwired}
	if raceflag.Enabled {
		archs = []Architecture{Microcode}
	}
	for _, g := range []struct{ size, width, ports int }{{32, 4, 2}, {64, 2, 1}} {
		for _, arch := range archs {
			t.Run(fmt.Sprintf("%s/%dx%dx%d", arch, g.size, g.width, g.ports), func(t *testing.T) {
				for _, name := range names {
					alg, _ := march.ByName(name)
					what := fmt.Sprintf("%s on %s %dx%dx%d", name, arch, g.size, g.width, g.ports)
					opts := Options{Size: g.size, Width: g.width, Ports: g.ports}
					// A stream that fails verification grades on the scalar
					// oracle under either plan; the sampled run covers it.
					if _, ok, err := cachedCaptureStream(alg, arch, opts); err != nil {
						t.Fatal(err)
					} else if ok {
						gradeEachPlan(t, what, alg, arch, opts, false)
					}
					opts.Universe = faults.UniverseOpts{CellSample: 16, CouplingPairs: 32, AddrSample: 8, Seed: 1}
					gradeEachPlan(t, what+" sampled", alg, arch, opts, true)
				}
			})
		}
	}
}

// TestSlicedMatchesOnRandomMarches extends the differential property
// beyond the library: seeded random march tests (every one valid, with
// Del elements), widths 1, 2 and 4, one and two ports, and sampled
// universes whose coupling pairs are drawn at random and so mostly lie
// far apart.
func TestSlicedMatchesOnRandomMarches(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pauses := 0
	for i := 0; i < 24; i++ {
		alg := march.Random(rng)
		alg.Name = fmt.Sprintf("random%d", i)
		if err := alg.Validate(); err != nil {
			t.Fatalf("march.Random produced an invalid test: %v", err)
		}
		pauses += alg.Pauses()
		opts := Options{
			Size:  []int{8, 16, 32}[i%3],
			Width: []int{1, 2, 4}[i/3%3],
			Ports: 1 + i%2,
			Universe: faults.UniverseOpts{
				CellSample: 10, CouplingPairs: 24, AddrSample: 6, Seed: int64(i),
			},
		}
		arch := []Architecture{Reference, Microcode, Hardwired}[i%3]
		gradeEachPlan(t, fmt.Sprintf("%s %v on %s %dx%dx%d", alg.Name, alg, arch, opts.Size, opts.Width, opts.Ports), alg, arch, opts, true)
	}
	if pauses == 0 {
		t.Fatal("no random march test carried a Del element")
	}
}

// TestSlicedAcrossLanesShardsResume pins the sliced plan at every lane
// width and worker count, through a 3-shard merge and through a run
// resumed from a mid-run checkpoint: all land on the scalar oracle's
// report.
func TestSlicedAcrossLanesShardsResume(t *testing.T) {
	defer forcePlan(planSliced)()
	alg, _ := march.ByName("marchc")
	opts := Options{Size: 32, Width: 4, Ports: 2, Workers: 1}
	scalar := opts
	scalar.Engine, scalar.Workers = EngineScalar, 0
	want, err := Grade(alg, Microcode, scalar)
	if err != nil {
		t.Fatal(err)
	}
	for _, lanes := range []int{64, 128, 256, 512} {
		for _, workers := range []int{1, 0} {
			o := opts
			o.Lanes, o.Workers = lanes, workers
			if got, err := Grade(alg, Microcode, o); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("sliced lanes=%d workers=%d differs from scalar (err %v)", lanes, workers, err)
			}
		}
	}

	states := make([]*State, 3)
	for s := range states {
		if states[s], err = GradeShard(alg, Microcode, opts, s, len(states)); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := MergeStates(states...)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ReportFromState(alg, Microcode, opts, merged); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("3-shard sliced merge differs from scalar (err %v)", err)
	}

	var mid *State
	ckpt := opts
	ckpt.CheckpointEvery = 500
	ckpt.Checkpoint = func(s *State) {
		if mid == nil && !s.Complete() {
			mid = s
		}
	}
	if _, err := Grade(alg, Microcode, ckpt); err != nil {
		t.Fatal(err)
	}
	if mid == nil || mid.GradedCount() == 0 {
		t.Fatal("no mid-run checkpoint captured")
	}
	resumed := opts
	resumed.Resume = mid
	if got, err := Grade(alg, Microcode, resumed); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("sliced run resumed at %d faults differs from scalar (err %v)", mid.GradedCount(), err)
	}
}

// TestSlicedGradeChecksWholeGoodMachine pins the whole-stream
// good-machine check: a stream whose wrong expected read hits a word
// no sampled fault touches passes every sliced batch, so only the
// check run when the stream is compiled can fail the grade.
func TestSlicedGradeChecksWholeGoodMachine(t *testing.T) {
	defer forcePlan(planSliced)()
	compiledCache.Flush()
	defer compiledCache.Flush()
	alg, _ := march.ByName("marchc")
	opts := Options{Size: 32, Workers: 1, Universe: faults.UniverseOpts{CellSample: 2, CouplingPairs: 2, AddrSample: 1, Seed: 5}}
	opts.normalise()
	universe := cachedUniverse(opts)
	touched := map[int32]bool{}
	for _, f := range universe {
		w, n := faults.Support(f, opts.Width)
		for _, a := range w[:n] {
			touched[a] = true
		}
	}
	stream, ok, err := captureStream(alg, Microcode, opts)
	if err != nil || !ok {
		t.Fatalf("capture: ok=%v err=%v", ok, err)
	}
	bad := append([]march.StreamOp(nil), stream...)
	corrupted := -1
	for i, op := range bad {
		if !op.Write && !op.Pause && !touched[int32(op.Addr)] {
			bad[i].Data ^= 1
			corrupted = op.Addr
			break
		}
	}
	if corrupted < 0 {
		t.Fatal("every word is touched by the sampled universe")
	}
	r, err := newGradeRun(context.Background(), alg, Microcode, opts, universe)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.gradeBatched(bad); err == nil {
		t.Fatalf("grade accepted a stream with a wrong expected read at untouched addr %d", corrupted)
	}
}

// TestPlanCostRule pins the cost rule's choice at the geometries the
// benchmark workloads grade: whole-stream replay for every default
// algorithm on the 8- and 16-word bit-oriented memories of the fleet
// workload, sliced replay from a few hundred words up. A sliced grade
// leaves no arena in the pool.
func TestPlanCostRule(t *testing.T) {
	grade := func(name string, size, width, ports int) (sliced bool) {
		t.Helper()
		alg, _ := march.ByName(name)
		flushArenas()
		reg := obs.Enable()
		defer obs.Disable()
		if _, err := Grade(alg, Microcode, Options{Size: size, Width: width, Ports: ports, Workers: 1}); err != nil {
			t.Fatal(err)
		}
		sliced = reg.Counter("coverage.sliced_batches").Value() > 0
		if _, arenas := arenaPoolStats(); sliced && arenas != 0 {
			t.Errorf("%s %dx%dx%d: sliced grade left %d arenas in the pool", name, size, width, ports, arenas)
		}
		return sliced
	}
	for _, name := range []string{"mats+", "marchx", "marchy", "marchc", "marchc+", "marchc++", "marcha", "marchb"} {
		for _, size := range []int{8, 16} {
			for _, ports := range []int{1, 2} {
				if grade(name, size, 1, ports) {
					t.Errorf("%s %dx1x%d: sliced, want whole-stream", name, size, ports)
				}
			}
		}
	}
	for _, size := range []int{256, 512} {
		if !grade("marchc", size, 4, 1) {
			t.Errorf("marchc %dx4x1: whole-stream, want sliced", size)
		}
	}
}
