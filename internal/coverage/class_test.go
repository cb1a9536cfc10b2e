package coverage

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/chaos"
	"repro/internal/faults"
	"repro/internal/march"
	"repro/internal/obs"
	"repro/internal/raceflag"
)

// gradeMatchesScalar grades one workload on the lane engine and on the
// scalar oracle and fails unless the reports are byte-identical.
func gradeMatchesScalar(t *testing.T, what string, alg march.Algorithm, arch Architecture, opts Options) {
	t.Helper()
	scalar := opts
	scalar.Engine = EngineScalar
	scalar.Workers = 0
	want, err := Grade(alg, arch, scalar)
	if err != nil {
		t.Fatalf("%s: scalar: %v", what, err)
	}
	gradeMatches(t, what, alg, arch, opts, want)
}

// gradeMatches grades one workload on the lane engine and fails unless
// the report is byte-identical to want.
func gradeMatches(t *testing.T, what string, alg march.Algorithm, arch Architecture, opts Options, want *Report) {
	t.Helper()
	got, err := Grade(alg, arch, opts)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !reflect.DeepEqual(got, want) || got.String() != want.String() {
		t.Fatalf("%s: class-graded report differs from scalar:\ngot  %v\nwant %v", what, got, want)
	}
}

// TestSlicedMatchesWholeAndScalar is the differential property of
// projection-class grading over the march library: every algorithm on
// every architecture, on a word-oriented 2-port and a bit-oriented
// 1-port geometry, grades byte-identically to the scalar oracle over a
// sampled universe and over the exhaustive one. On the exhaustive
// universes the oracle runs on the reference architecture only, and
// architectures whose stream fails verification (they grade on the
// scalar oracle anyway) are skipped there: every other architecture
// replays the very stream the reference runner emits, and the oracle
// on every controller would take most of a minute. Under the race
// detector, which slows it tenfold, only the microcode column runs, on
// the sampled universes: the exhaustive ones add no concurrency.
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
		exhaustive := map[string]*Report{}
		for _, arch := range archs {
			t.Run(fmt.Sprintf("%s/%dx%dx%d", arch, g.size, g.width, g.ports), func(t *testing.T) {
				for _, name := range names {
					alg, _ := march.ByName(name)
					what := fmt.Sprintf("%s on %s %dx%dx%d", name, arch, g.size, g.width, g.ports)
					opts := Options{Size: g.size, Width: g.width, Ports: g.ports}
					if ok, _, err := streamVerified(alg, arch, opts); err != nil {
						t.Fatal(err)
					} else if ok && !raceflag.Enabled {
						if exhaustive[name] == nil {
							oracle := opts
							oracle.Engine = EngineScalar
							rep, err := Grade(alg, Reference, oracle)
							if err != nil {
								t.Fatalf("%s: scalar: %v", what, err)
							}
							exhaustive[name] = rep
						}
						want := *exhaustive[name]
						want.Architecture = arch
						gradeMatches(t, what, alg, arch, opts, &want)
					}
					opts.Universe = faults.UniverseOpts{CellSample: 16, CouplingPairs: 32, AddrSample: 8, Seed: 1}
					gradeMatchesScalar(t, what+" sampled", alg, arch, opts)
				}
			})
		}
	}
}

// TestClassMatchesOnRandomMarches extends the differential property
// beyond the library: seeded random march tests (every one valid, with
// Del elements), widths 1, 2 and 4, one and two ports, and sampled
// universes whose coupling pairs are drawn at random and so mostly lie
// far apart.
func TestClassMatchesOnRandomMarches(t *testing.T) {
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
		gradeMatchesScalar(t, fmt.Sprintf("%s %v on %s %dx%dx%d", alg.Name, alg, arch, opts.Size, opts.Width, opts.Ports), alg, arch, opts)
	}
	if pauses == 0 {
		t.Fatal("no random march test carried a Del element")
	}
}

// TestClassAcrossWorkersShardsResume pins class grading at one and
// GOMAXPROCS workers, through a 3-shard merge and through a run
// resumed from a mid-run checkpoint: all land on the scalar oracle's
// report.
func TestClassAcrossWorkersShardsResume(t *testing.T) {
	alg, _ := march.ByName("marchc")
	opts := Options{Size: 32, Width: 4, Ports: 2, Workers: 1}
	scalar := opts
	scalar.Engine, scalar.Workers = EngineScalar, 0
	want, err := Grade(alg, Microcode, scalar)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 0} {
		o := opts
		o.Workers = workers
		if got, err := Grade(alg, Microcode, o); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d differs from scalar (err %v)", workers, err)
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
		t.Fatalf("3-shard merge differs from scalar (err %v)", err)
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
		t.Fatalf("run resumed at %d faults differs from scalar (err %v)", mid.GradedCount(), err)
	}
}

// TestClassGradeChecksWholeGoodMachine pins the whole-stream
// good-machine check: a stream whose wrong expected read hits a word
// no sampled fault touches passes every class batch, so only the check
// run when the plan is built can fail the grade.
func TestClassGradeChecksWholeGoodMachine(t *testing.T) {
	planCache.Flush()
	defer planCache.Flush()
	alg, _ := march.ByName("marchc")
	opts := Options{Size: 32, Workers: 1, Universe: faults.UniverseOpts{CellSample: 2, CouplingPairs: 2, AddrSample: 1, Seed: 5}}
	opts.normalise()
	u := cachedUniverse(opts)
	touched := map[int32]bool{}
	for _, f := range u.faults {
		w, n := faults.Support(f, opts.Width)
		for _, a := range w[:n] {
			touched[a] = true
		}
	}
	stream, ok, err := verifyStream(alg, Microcode, opts)
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
	r, err := newGradeRun(context.Background(), alg, Microcode, opts, u)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.gradeBatched(bad); err == nil {
		t.Fatalf("grade accepted a stream with a wrong expected read at untouched addr %d", corrupted)
	}
}

// TestClassPlanKeyedByAlgorithm is the stale-key regression: two
// algorithms whose class tables differ, graded alternately on one
// geometry with warm caches, must each keep matching the scalar oracle.
// A plan keyed by geometry alone would hand one algorithm the other's
// classes. Every library algorithm has March C's table (its elements
// run both address orders), so the first one only ascends; its classes
// are coarser, and it is graded first, so a stale plan would merge
// March C faults whose verdicts differ.
func TestClassPlanKeyedByAlgorithm(t *testing.T) {
	opts := Options{Size: 32, Width: 4, Workers: 1}
	opts.normalise()
	var algs [2]march.Algorithm
	var want [2]*Report
	var plans [2]*classPlan
	for i, text := range []string{
		"b(w0); u(r0,w1); u(r1,w0); u(r0)",
		"b(w0); u(r0,w1); u(r1,w0); d(r0,w1); d(r1,w0); b(r0)",
	} {
		var err error
		if algs[i], err = march.Parse(fmt.Sprintf("alg%d", i), text); err != nil {
			t.Fatal(err)
		}
		scalar := opts
		scalar.Engine = EngineScalar
		if want[i], err = Grade(algs[i], Microcode, scalar); err != nil {
			t.Fatal(err)
		}
		if ok, _, err := streamVerified(algs[i], Microcode, opts); err != nil || !ok {
			t.Fatalf("%s: capture ok=%v err=%v", text, ok, err)
		}
		if plans[i], err = cachedClassPlan(algs[i], opts, cachedUniverse(opts), nil); err != nil {
			t.Fatal(err)
		}
	}
	if reflect.DeepEqual(plans[0].faults, plans[1].faults) && reflect.DeepEqual(plans[0].memberStart, plans[1].memberStart) {
		t.Fatal("both algorithms have the same class table; the test needs two that differ")
	}
	for round := 0; round < 4; round++ {
		for i, alg := range algs {
			got, err := Grade(alg, Microcode, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("round %d: %s differs from scalar:\ngot  %v\nwant %v", round, alg.Name, got, want[i])
			}
		}
	}
}

// TestClassLanesMarchC512x4 pins the class count of exhaustive March C
// on a 512×4 memory: every one of its faults is decided by one of 575
// replayed lanes.
func TestClassLanesMarchC512x4(t *testing.T) {
	reg := obs.Enable()
	defer obs.Disable()
	alg, _ := march.ByName("marchc")
	rep, err := Grade(alg, Microcode, Options{Size: 512, Width: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("coverage.class_lanes").Value(); n != 575 {
		t.Errorf("class_lanes = %d, want 575", n)
	}
	if n := reg.Counter("coverage.faults_graded").Value(); int(n) != rep.Universe {
		t.Errorf("faults_graded = %d, want the %d-fault universe", n, rep.Universe)
	}
}

// TestClassMemberPanicQuarantinesOnlyIt panics the fault hook on one
// member of a many-member class. The panic fails the member's batch,
// whose members all retry on the scalar oracle; only the panicking
// fault is quarantined, and the report matches the scalar oracle run
// with the same hook.
func TestClassMemberPanicQuarantinesOnlyIt(t *testing.T) {
	alg, _ := march.ByName("marchc")
	opts := Options{Size: 32, Width: 4}
	opts.normalise()
	if ok, _, err := streamVerified(alg, Microcode, opts); err != nil || !ok {
		t.Fatalf("capture ok=%v err=%v", ok, err)
	}
	plan, err := cachedClassPlan(alg, opts, cachedUniverse(opts), nil)
	if err != nil {
		t.Fatal(err)
	}
	big := 0
	for c := range plan.faults {
		if plan.memberStart[c+1]-plan.memberStart[c] > plan.memberStart[big+1]-plan.memberStart[big] {
			big = c
		}
	}
	members := plan.members[plan.memberStart[big]:plan.memberStart[big+1]]
	if len(members) < 8 {
		t.Fatalf("largest class has %d members", len(members))
	}
	target := int(members[len(members)/2])
	opts.FaultHook = chaos.PanicOn(target)
	gradeMatchesScalar(t, "marchc with a panicking class member", alg, Microcode, opts)
	// The batch's panic and the member's first scalar panic are each
	// retried; the scalar engine retries the member's first panic only.
	for _, c := range []struct {
		engine  Engine
		retries int64
	}{{EngineAuto, 2}, {EngineScalar, 1}} {
		reg := obs.Enable()
		o := opts
		o.Engine = c.engine
		rep, err := Grade(alg, Microcode, o)
		retries := reg.Counter("coverage.panic_retries").Value()
		obs.Disable()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Quarantined) != 1 || rep.Quarantined[0].Index != target {
			t.Fatalf("engine %d: quarantined %v, want only fault %d", c.engine, rep.Quarantined, target)
		}
		if retries != c.retries {
			t.Errorf("engine %d: coverage.panic_retries = %d, want %d", c.engine, retries, c.retries)
		}
	}
}

// TestClassPlanKeysOnData pins that the class key is the whole
// projected sequence: words 1 and 2 of this stream project to the same
// write, sense, read shape and differ only in data, so their SA0 faults,
// equal once localised, must land in two classes (word 2's is detected,
// word 1's is not).
func TestClassPlanKeysOnData(t *testing.T) {
	cs, err := faults.NewCompiledStream(3, 1, 1, []faults.UOp{
		{Kind: faults.UOpWrite, Addr: 0, Cell: 0, Data: 0},
		{Kind: faults.UOpWrite, Addr: 1, Cell: 1, Data: 0},
		{Kind: faults.UOpWrite, Addr: 2, Cell: 2, Data: 1},
		{Kind: faults.UOpRead, Addr: 0, Cell: 0, Data: 0},
		{Kind: faults.UOpRead, Addr: 1, Cell: 1, Data: 0},
		{Kind: faults.UOpRead, Addr: 2, Cell: 2, Data: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	universe := []faults.Fault{
		{Kind: faults.SA, Cell: 1, Port: faults.AnyPort},
		{Kind: faults.SA, Cell: 2, Port: faults.AnyPort},
	}
	p := buildPartition(universe, 1)
	if p.loc[0] != p.loc[1] {
		t.Fatal("the two SA0 faults localise differently; the test needs them equal")
	}
	if plan, err := buildClassPlan(p, cs); err != nil || len(plan.faults) != 2 {
		t.Fatalf("%d classes, want 2: projections differing only in data were merged", len(plan.faults))
	}
}
