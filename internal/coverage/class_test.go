package coverage

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/chaos"
	"repro/internal/faults"
	"repro/internal/fsmbist"
	"repro/internal/march"
	"repro/internal/memory"
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
// cell grading over the march library: every algorithm on every
// architecture, on a word-oriented 2-port and a bit-oriented 1-port
// geometry, grades byte-identically to the scalar oracle over a
// sampled universe and over the exhaustive one. On the exhaustive
// universes the oracle runs on the reference architecture only, on the
// march each controller realises (prog-FSM's Realized march, the
// algorithm itself elsewhere): every architecture replays the very
// stream the reference runner emits for that march, and the oracle on
// every controller would take most of a minute. Under the race
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
		exhaustive := map[uint64]*Report{}
		for _, arch := range archs {
			t.Run(fmt.Sprintf("%s/%dx%dx%d", arch, g.size, g.width, g.ports), func(t *testing.T) {
				for _, name := range names {
					alg, _ := march.ByName(name)
					what := fmt.Sprintf("%s on %s %dx%dx%d", name, arch, g.size, g.width, g.ports)
					opts := Options{Size: g.size, Width: g.width, Ports: g.ports}
					if realised, err := verifiedMarch(alg, arch, opts); err != nil {
						t.Fatal(err)
					} else if !raceflag.Enabled {
						fp := march.Fingerprint(realised)
						if exhaustive[fp] == nil {
							oracle := opts
							oracle.Engine = EngineScalar
							rep, err := Grade(realised, Reference, oracle)
							if err != nil {
								t.Fatalf("%s: scalar: %v", what, err)
							}
							exhaustive[fp] = rep
						}
						want := *exhaustive[fp]
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
// far apart. Every draw the prog-FSM compiler accepts is graded on
// prog-FSM too, after checking that its program's captured stream is
// the reference stream of its Realized march; some draws must
// decompose.
func TestClassMatchesOnRandomMarches(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pauses, decomposed := 0, 0
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
		what := func(arch Architecture) string {
			return fmt.Sprintf("%s %v on %s %dx%dx%d", alg.Name, alg, arch, opts.Size, opts.Width, opts.Ports)
		}
		gradeMatchesScalar(t, what(arch), alg, arch, opts)

		p, err := fsmbist.Compile(alg, fsmbist.CompileOpts{WordOriented: opts.Width > 1, Multiport: opts.Ports > 1})
		if err != nil {
			continue
		}
		if p.Decomposed {
			decomposed++
		}
		rec := &march.Recorder{Mem: memory.NewSRAM(opts.Size, opts.Width, opts.Ports)}
		if res, err := p.Run(rec, fsmbist.ExecOpts{MaxFails: 1}); err != nil || res.Detected() {
			t.Fatalf("%s: fault-free run: err %v", what(ProgFSM), err)
		}
		want := march.FullStream(p.Realized, opts.Size, opts.Width, opts.Ports, opts.Width == 1)
		if !reflect.DeepEqual(rec.Ops, want) {
			t.Fatalf("%s: captured stream is not the Realized march's", what(ProgFSM))
		}
		gradeMatchesScalar(t, what(ProgFSM), alg, ProgFSM, opts)
	}
	if pauses == 0 {
		t.Fatal("no random march test carried a Del element")
	}
	if decomposed == 0 {
		t.Fatal("no random march test decomposed on prog-FSM")
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

// TestClassGradeChecksWholeGoodMachine pins the plan build's
// good-machine check: batches check the good machine only on their own
// words, so the plan build checks it once on the surrogate's stream. An
// algorithm whose read expects a 1 after it wrote 0 misreads there, and
// the plan build must refuse it.
func TestClassGradeChecksWholeGoodMachine(t *testing.T) {
	planCache.Flush()
	defer planCache.Flush()
	alg := march.Algorithm{Name: "misreads", Elements: []march.Element{
		{Order: march.Up, Ops: []march.Op{march.W(false)}},
		{Order: march.Down, Ops: []march.Op{march.R(false), march.R(true)}},
	}}
	for _, size := range []int{1, 3, 32} {
		opts := Options{Size: size, Width: 4, Workers: 1}
		opts.normalise()
		if _, err := cachedPlan(alg, opts); err == nil {
			t.Errorf("size %d: plan build accepted a stream whose fault-free machine misreads", size)
		}
	}
}

// TestClassPlanKeyedByAlgorithm is the stale-key regression: two
// algorithms whose projections differ, graded alternately on one
// geometry with warm caches, must each keep matching the scalar oracle.
// A plan keyed by geometry alone would hand one algorithm the other's
// projections: the first only ascends, and it is graded first.
func TestClassPlanKeyedByAlgorithm(t *testing.T) {
	opts := Options{Size: 32, Width: 4, Workers: 1}
	opts.normalise()
	var algs [2]march.Algorithm
	var want [2]*Report
	var plans [2]*shapePlan
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
		if plans[i], err = cachedPlan(algs[i], opts); err != nil {
			t.Fatal(err)
		}
	}
	if reflect.DeepEqual(plans[0], plans[1]) {
		t.Fatal("both algorithms have the same projections; the test needs two that differ")
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

// TestPlanDoesNotGrowWithMemory pins that a plan holds nothing per
// fault or per cell: from the surrogate's five words up, a march's plan
// is the same whatever the memory's size, so its retained size does
// not grow with the universe.
func TestPlanDoesNotGrowWithMemory(t *testing.T) {
	alg, _ := march.ByName("marchc++")
	var want *shapePlan
	for _, size := range []int{surrogateWords, 512, 16384} {
		opts := Options{Size: size, Width: 4, Ports: 2}
		opts.normalise()
		plan, err := cachedPlan(alg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = plan
		} else if !reflect.DeepEqual(plan, want) {
			t.Fatalf("size %d: plan differs from the %d-word memory's", size, surrogateWords)
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
// member of a many-member cell. The panic fails the member's batch,
// whose members all retry on the scalar oracle; only the panicking
// fault is quarantined, and the report matches the scalar oracle run
// with the same hook.
func TestClassMemberPanicQuarantinesOnlyIt(t *testing.T) {
	alg, _ := march.ByName("marchc")
	opts := Options{Size: 32, Width: 4}
	opts.normalise()
	cells := cachedUniverse(opts).partition()
	big := 0
	for c := range cells.faults {
		if cells.memberStart[c+1]-cells.memberStart[c] > cells.memberStart[big+1]-cells.memberStart[big] {
			big = c
		}
	}
	members := cells.members[cells.memberStart[big]:cells.memberStart[big+1]]
	if len(members) < 8 {
		t.Fatalf("largest cell has %d members", len(members))
	}
	target := int(members[len(members)/2])
	opts.FaultHook = chaos.PanicOn(target)
	gradeMatchesScalar(t, "marchc with a panicking cell member", alg, Microcode, opts)
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

// TestClassPlanKeysOnData pins that a fault's lane replays the whole
// projection of its shape, data included: words 1 and 2 of this stream
// project to the same write, sense, read sequence and differ only in
// data. Their SA0 faults, equal once localised, must land in two cells
// whose replays on their shapes' projections disagree (word 2's is
// detected, word 1's is not).
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
	plan, err := buildPlan(cs)
	if err != nil {
		t.Fatal(err)
	}
	universe := []faults.Fault{
		{Kind: faults.SA, Cell: 1, Port: faults.AnyPort},
		{Kind: faults.SA, Cell: 2, Port: faults.AnyPort},
	}
	p := buildPartition(universe, 3, 1)
	if len(p.faults) != 2 || p.faults[0] != p.faults[1] {
		t.Fatalf("cells %v: want two, holding one localised fault", p.faults)
	}
	var detected [2]bool
	for _, b := range p.batches {
		arena := faults.NewLaneInjectedPlanes(2, 1, 1, 1, nil)
		arena.ResetPlanes(p.faults[b.lo:b.hi], 1)
		var fail [faults.MaxPlanes]uint64
		if _, err := arena.Replay(plan[b.shape], &fail); err != nil {
			t.Fatal(err)
		}
		for c := b.lo; c < b.hi; c++ {
			l := c - b.lo + 1
			detected[p.members[p.memberStart[c]]] = fail[l>>6]>>uint(l&63)&1 == 1
		}
	}
	if detected != [2]bool{false, true} {
		t.Fatalf("detected %v, want word 1's SA0 missed and word 2's caught", detected)
	}
}

// cancelAfter is a context whose Err reports cancellation from its
// n+1th call on. A one-worker grade asks once per batch claim, so the
// run stops at the same batch on every path.
type cancelAfter struct {
	context.Context
	n atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestClassVerdictsMatchPerFaultLayer pins the per-fault layer against
// the class verdicts it stands in for: the same grade kept per class,
// forced onto the per-fault layer by a no-op FaultHook, and forced by a
// Checkpoint, renders byte-identical reports (Missed order included),
// whole and cancelled part-way, and a 3-shard merge renders the same
// report again. The plain grade must keep no per-fault arrays at all.
func TestClassVerdictsMatchPerFaultLayer(t *testing.T) {
	alg, _ := march.ByName("marchc")
	plain := Options{Size: 48, Width: 4, Ports: 2, Workers: 1}
	hook := plain
	hook.FaultHook = func(int) {}
	ckpt := plain
	ckpt.CheckpointEvery = 300
	ckpt.Checkpoint = func(*State) {}
	variants := []struct {
		name     string
		opts     Options
		perFault bool
	}{{"class", plain, false}, {"hook", hook, true}, {"checkpoint", ckpt, true}}

	for _, stop := range []int64{-1, 0, 1, 3} {
		var want *Report
		for _, v := range variants {
			ctx := &cancelAfter{Context: context.Background()}
			ctx.n.Store(stop)
			if stop < 0 {
				ctx.n.Store(1 << 40)
			}
			opts := v.opts
			opts.normalise()
			r, err := newGradeRun(ctx, alg, Microcode, opts, cachedUniverse(opts))
			if err != nil {
				t.Fatal(err)
			}
			if err := r.runEngine(); err != nil {
				t.Fatal(err)
			}
			if (r.graded != nil) != v.perFault {
				t.Fatalf("%s: per-fault layer present = %v, want %v", v.name, r.graded != nil, v.perFault)
			}
			rep, err := r.finish()
			if (stop >= 0) != (err != nil) || rep.Partial != (stop >= 0) {
				t.Fatalf("%s stop %d: partial %v, err %v", v.name, stop, rep.Partial, err)
			}
			if want == nil {
				want = rep
				continue
			}
			if !reflect.DeepEqual(rep, want) || rep.String() != want.String() {
				t.Fatalf("%s stop %d: report differs from the class verdicts':\ngot  %v\nwant %v", v.name, stop, rep, want)
			}
		}
		if stop < 0 {
			states := make([]*State, 3)
			for s := range states {
				var err error
				if states[s], err = GradeShard(alg, Microcode, plain, s, len(states)); err != nil {
					t.Fatal(err)
				}
			}
			merged, err := MergeStates(states...)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := ReportFromState(alg, Microcode, plain, merged); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("3-shard merge differs from the class verdicts' report (err %v)", err)
			}
		}
	}
}

// TestWarmClassGradeAllocations bounds what a warm class grade
// allocates: its Missed list plus 64 KiB for everything else (the
// report, the class verdicts and the transient Missed bitset). A
// per-fault array over the 97,712-fault universe would blow it.
func TestWarmClassGradeAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc pins need a non-race build")
	}
	alg, _ := march.ByName("marchc")
	opts := Options{Size: 512, Width: 4, Workers: 1}
	for i := 0; i < 2; i++ {
		if _, err := Grade(alg, Microcode, opts); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := Grade(alg, Microcode, opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	budget := uint64(len(rep.Missed))*uint64(unsafe.Sizeof(faults.Fault{})) + 64<<10
	if got := after.TotalAlloc - before.TotalAlloc; got >= budget {
		t.Errorf("warm 512x4 grade allocated %d bytes, budget %d (%d missed faults)", got, budget, len(rep.Missed))
	}
}
