package coverage

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/march"
	"repro/internal/obs"
)

// TestCompiledReplayMatchesScalar is the acceptance property of the
// compiled replay path: for every architecture and every algorithm in
// the march library, at serial and GOMAXPROCS worker counts, grading
// on the lane engine must produce a Report byte-identical to the
// scalar oracle.
func TestCompiledReplayMatchesScalar(t *testing.T) {
	names := make([]string, 0, len(march.Library()))
	for name := range march.Library() {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, arch := range []Architecture{Reference, Microcode, ProgFSM, Hardwired} {
		for _, name := range names {
			alg, _ := march.ByName(name)
			want, err := Grade(alg, arch, Options{Size: 8, Workers: 1, Engine: EngineScalar})
			if err != nil {
				t.Fatalf("%s on %s: scalar: %v", name, arch, err)
			}
			for _, workers := range []int{1, 0} {
				got, err := Grade(alg, arch, Options{Size: 8, Workers: workers})
				if err != nil {
					t.Fatalf("%s on %s workers=%d: compiled: %v", name, arch, workers, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s on %s workers=%d: compiled report differs from scalar:\ngot  %v\nwant %v",
						name, arch, workers, got, want)
				}
				if got.String() != want.String() {
					t.Errorf("%s on %s workers=%d: rendered report differs", name, arch, workers)
				}
			}
		}
	}
}

// TestCompiledReplayResumeQuarantine extends the equivalence property
// through the resilience machinery: with always-panicking faults
// spanning several batches (quarantine path) and a mid-run checkpoint
// that a second run resumes from, the scalar oracle and class grading
// must converge on byte-identical reports — including resuming a
// checkpoint written by the other engine, since State is
// engine-agnostic.
func TestCompiledReplayResumeQuarantine(t *testing.T) {
	alg, _ := march.ByName("marchc")
	targets := map[int]bool{3: true, 63: true, 64: true, 127: true}
	hook := func(i int) {
		if targets[i] {
			panic("chaos: injected fault hook panic")
		}
	}
	type variant struct {
		name   string
		engine Engine
	}
	variants := []variant{{"scalar", EngineScalar}, {"class", EngineAuto}}
	run := func(v variant, resume *State) (*Report, *State) {
		var first *State
		opts := Options{
			Size: 16, Workers: 1, Engine: v.engine,
			FaultHook:       hook,
			CheckpointEvery: 200,
			Resume:          resume,
			Checkpoint: func(s *State) {
				if first == nil && len(s.Quarantined) > 0 {
					first = s
				}
			},
		}
		rep, err := Grade(alg, Microcode, opts)
		if err != nil {
			t.Fatalf("%s resume=%v: %v", v.name, resume != nil, err)
		}
		return rep, first
	}

	want, _ := run(variants[0], nil)
	if len(want.Quarantined) != len(targets) {
		t.Fatalf("scalar run quarantined %d faults, want %d", len(want.Quarantined), len(targets))
	}
	checkpoints := make([]*State, len(variants))
	for i, v := range variants {
		rep, ck := run(v, nil)
		if !reflect.DeepEqual(rep, want) {
			t.Errorf("%s report differs from scalar under quarantine:\ngot  %v\nwant %v", v.name, rep, want)
		}
		if ck == nil {
			t.Fatalf("%s: no mid-run checkpoint with quarantine entries was captured", v.name)
		}
		checkpoints[i] = ck
	}
	// Resume every (checkpoint origin, resuming variant) pairing; all
	// must land on the uninterrupted report.
	for ci, ck := range checkpoints {
		for _, v := range variants {
			if got, _ := run(v, ck); !reflect.DeepEqual(got, want) {
				t.Errorf("%s from %s checkpoint: resumed report differs from uninterrupted run", v.name, variants[ci].name)
			}
		}
	}
}

// TestScalarEnginePinsNoCompile pins Options.Engine: the scalar oracle
// must never compile the stream or replay a lane batch.
func TestScalarEnginePinsNoCompile(t *testing.T) {
	reg := obs.Enable()
	defer obs.Disable()
	alg, _ := march.ByName("marchc")
	if _, err := Grade(alg, Microcode, Options{Size: 8, Engine: EngineScalar}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"coverage.compiled_streams", "coverage.batches_replayed", "coverage.class_lanes"} {
		if n := reg.Counter(name).Value(); n != 0 {
			t.Errorf("scalar engine: %s = %d, want 0", name, n)
		}
	}
	if reg.Counter("coverage.faults_graded").Value() == 0 {
		t.Error("scalar engine graded no faults")
	}
	if n := reg.Counter("coverage.panic_retries").Value(); n != 0 {
		t.Errorf("clean scalar grade took %d panic retries, want 0", n)
	}
}
