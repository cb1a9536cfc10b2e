package coverage

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/fsmbist"
	"repro/internal/march"
	"repro/internal/obs"
	"repro/internal/raceflag"
)

// TestBatchedEngineMatchesScalarOracle is the acceptance gate for the
// lane-parallel engine: for every architecture and every algorithm in
// the march library, Grade (EngineAuto) must produce a byte-identical
// Report — including the Missed ordering — to the scalar oracle, at
// worker counts 1, 2 and GOMAXPROCS (Workers: 0).
func TestBatchedEngineMatchesScalarOracle(t *testing.T) {
	names := make([]string, 0, len(march.Library()))
	for name := range march.Library() {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, arch := range []Architecture{Reference, Microcode, ProgFSM, Hardwired} {
		for _, name := range names {
			alg, _ := march.ByName(name)
			want, err := scalarGrade(alg, arch, Options{Size: 8})
			if err != nil {
				t.Fatalf("%s on %s: oracle: %v", name, arch, err)
			}
			for _, workers := range []int{1, 2, 0} {
				got, err := Grade(alg, arch, Options{Size: 8, Workers: workers})
				if err != nil {
					t.Fatalf("%s on %s workers=%d: %v", name, arch, workers, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s on %s workers=%d: batched report differs from scalar oracle:\ngot  %v\nwant %v",
						name, arch, workers, got, want)
				}
				if got.String() != want.String() {
					t.Errorf("%s on %s workers=%d: rendered report differs", name, arch, workers)
				}
			}
		}
	}
}

// TestBatchedEngineMatchesScalarOracleWordMultiport repeats the
// equivalence check on a word-oriented multiport geometry so the lane
// engine's per-bit planes and port handling are exercised end to end.
func TestBatchedEngineMatchesScalarOracleWordMultiport(t *testing.T) {
	opts := Options{Size: 4, Width: 2, Ports: 2}
	for _, arch := range []Architecture{Reference, Microcode, ProgFSM, Hardwired} {
		for _, name := range []string{"marchc+", "marchss", "marchlr"} {
			alg, _ := march.ByName(name)
			want, err := scalarGrade(alg, arch, opts)
			if err != nil {
				t.Fatalf("%s on %s: oracle: %v", name, arch, err)
			}
			for _, workers := range []int{1, 0} {
				o := opts
				o.Workers = workers
				got, err := Grade(alg, arch, o)
				if err != nil {
					t.Fatalf("%s on %s workers=%d: %v", name, arch, workers, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s on %s workers=%d: batched report differs from scalar oracle", name, arch, workers)
				}
			}
		}
	}
}

// TestBatchedEngineEngaged pins that the default Grade path actually
// replays lane batches for the canonical microcode configuration, that batch occupancy respects the
// lane width, and that every fault's verdict comes from one of the
// replayed class lanes.
func TestBatchedEngineEngaged(t *testing.T) {
	reg := obs.Enable()
	defer obs.Disable()
	alg, _ := march.ByName("marchc")
	rep, err := Grade(alg, Microcode, Options{Size: 16})
	if err != nil {
		t.Fatal(err)
	}
	batches := reg.Counter("coverage.batches_replayed").Value()
	if batches == 0 {
		t.Fatal("batched engine not engaged for marchc on microcode")
	}
	count, sum, _, max := reg.Span("coverage.batch_lanes").Stats()
	if count != batches {
		t.Errorf("batch_lanes count %d, batches %d", count, batches)
	}
	classes := reg.Counter("coverage.class_lanes").Value()
	if sum != classes || classes == 0 || int(classes) > rep.Overall.Total {
		t.Errorf("lane occupancy sum %d, class lanes %d, universe size %d", sum, classes, rep.Overall.Total)
	}
	if int(max) > DefaultLanes-1 {
		t.Errorf("batch occupancy %d exceeds %d fault lanes", max, DefaultLanes-1)
	}
	if graded := reg.Counter("coverage.faults_graded").Value(); int(graded) != rep.Overall.Total {
		t.Errorf("faults_graded %d, universe size %d", graded, rep.Overall.Total)
	}
	if cs := reg.Counter("coverage.compiled_streams").Value(); cs == 0 {
		t.Error("stream was not compiled to µops")
	}
}

// TestGradeRejectsBadGeometry pins Options.Validate's geometry bounds
// on every grading entry point. Width 65 used to panic in stream
// capture; at 257 ports the µop port byte wrapped port 256 onto port 0
// and the lane engine disagreed with the scalar oracle; size -5 graded
// a 16-word memory under a -5-word fingerprint; 257 workers would let
// one request size the scalar engine's goroutines. 256 ports, the largest
// accepted, must still grade byte-identically to the oracle.
func TestGradeRejectsBadGeometry(t *testing.T) {
	alg, _ := march.ByName("mats+")
	for _, o := range []Options{
		{Size: 2, Width: 65},
		{Size: 2, Width: -1},
		{Size: 2, Ports: 257},
		{Size: 2, Ports: -1},
		{Size: -5},
		{Size: 2, Workers: 257},
	} {
		if _, err := Grade(alg, Reference, o); err == nil {
			t.Errorf("Grade %dx%d/%d ports: no error", o.Size, o.Width, o.Ports)
		}
		if _, err := GradeShard(alg, Reference, o, 0, 2); err == nil {
			t.Errorf("GradeShard %dx%d/%d ports: no error", o.Size, o.Width, o.Ports)
		}
		if _, err := Matrix([]march.Algorithm{alg}, Reference, o); err == nil {
			t.Errorf("Matrix %dx%d/%d ports: no error", o.Size, o.Width, o.Ports)
		}
	}
	gradeMatchesScalar(t, "mats+ 2x1 on 256 ports", alg, Reference, Options{Size: 2, Ports: 256})
	gradeMatchesScalar(t, "mats+ 2x64", alg, Microcode, Options{Size: 2, Width: 64})
}

// TestDecomposedProgramsGradeOnRealisedMarch pins the prog-FSM half of
// the one-path contract: every library algorithm whose program splits
// an element into SM components grades on the lane engine, against the
// march the program realises. Its report equals the scalar oracle's on
// the program and the reference runner's on the Realized march. Under
// the race detector, which slows the scalar oracle tenfold, only the
// 16×1 geometry runs: the larger ones add no concurrency.
func TestDecomposedProgramsGradeOnRealisedMarch(t *testing.T) {
	names := make([]string, 0, len(march.Library()))
	for name := range march.Library() {
		names = append(names, name)
	}
	sort.Strings(names)
	geometries := []struct{ size, width, ports int }{{16, 1, 1}, {16, 4, 1}, {32, 4, 2}}
	if raceflag.Enabled {
		geometries = geometries[:1]
	}
	decomposed := 0
	for _, g := range geometries {
		opts := Options{Size: g.size, Width: g.width, Ports: g.ports}
		for _, name := range names {
			alg, _ := march.ByName(name)
			p, err := fsmbist.Compile(alg, fsmbist.CompileOpts{WordOriented: g.width > 1, Multiport: g.ports > 1})
			if err != nil || !p.Decomposed {
				continue
			}
			decomposed++
			what := fmt.Sprintf("%s on prog-fsm %dx%dx%d", name, g.size, g.width, g.ports)
			reg := obs.Enable()
			got, err := Grade(alg, ProgFSM, opts)
			batches := reg.Counter("coverage.batches_replayed").Value()
			obs.Disable()
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if batches == 0 {
				t.Errorf("%s: no lane batches replayed", what)
			}
			want, err := scalarGrade(alg, ProgFSM, opts)
			if err != nil {
				t.Fatalf("%s: scalar: %v", what, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: report differs from the scalar oracle:\ngot  %v\nwant %v", what, got, want)
			}
			ref, err := scalarGrade(p.Realized, Reference, opts)
			if err != nil {
				t.Fatalf("%s: realised march: %v", what, err)
			}
			ref.Architecture = ProgFSM
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%s: report differs from the Realized march's on the reference runner:\ngot  %v\nwant %v", what, got, ref)
			}
		}
	}
	if decomposed == 0 {
		t.Fatal("no library algorithm decomposes under the prog-FSM compiler")
	}
}

// TestStreamCheckNamesFirstDifference pins the stream check: a
// controller whose stream differs from the realised march's, differs
// in an op, stops early or runs on, is an error naming the first
// differing op index and both ops.
func TestStreamCheckNamesFirstDifference(t *testing.T) {
	opts := Options{Size: 8}
	opts.normalise()
	marchc, _ := march.ByName("marchc")
	longer := marchc
	longer.Elements = append(append([]march.Element(nil), marchc.Elements...), march.Element{Order: march.Up, Ops: []march.Op{march.R(false)}})
	full := func(a march.Algorithm) []march.StreamOp {
		return march.FullStream(a, opts.Size, opts.Width, opts.Ports, true)
	}
	firstDiff := func(a, b []march.StreamOp) int {
		i := 0
		for i < len(a) && i < len(b) && a[i] == b[i] {
			i++
		}
		return i
	}
	for _, c := range []struct {
		what          string
		alg, realised march.Algorithm
		got, want     string
	}{
		{"another march", marchc, march.MATSPlus(), "", ""},
		{"a stream that stops early", marchc, longer, "the end of the stream", ""},
		{"a stream that runs on", longer, marchc, "", "the end of the stream"},
	} {
		err := verifyStream(c.alg, c.realised, Reference, opts)
		if err == nil {
			t.Fatalf("%s: no error", c.what)
		}
		i := firstDiff(full(c.alg), full(c.realised))
		got, want := c.got, c.want
		if got == "" {
			got = fmt.Sprintf("%+v", full(c.alg)[i])
		}
		if want == "" {
			want = fmt.Sprintf("%+v", full(c.realised)[i])
		}
		if msg := fmt.Sprintf("captured op %d is %s, the realised march's stream has %s", i, got, want); !strings.Contains(err.Error(), msg) {
			t.Errorf("%s: error %q does not name %q", c.what, err, msg)
		}
	}
	// A decomposed program checked against its source algorithm, as the
	// stream check once did, differs too.
	alg, _ := march.ByName("marchc++")
	if err := verifyStream(alg, alg, ProgFSM, opts); err == nil {
		t.Error("marchc++ on prog-fsm matched its source algorithm's stream")
	}
	realised, err := realisedMarch(alg, ProgFSM, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyStream(alg, realised, ProgFSM, opts); err != nil {
		t.Errorf("marchc++ on prog-fsm against its Realized march: %v", err)
	}
}

// TestGradeSerialForcesScalarEngine pins that the scalar oracle
// (Options.Engine = EngineScalar) never touches the lane engine.
func TestGradeSerialForcesScalarEngine(t *testing.T) {
	reg := obs.Enable()
	defer obs.Disable()
	alg, _ := march.ByName("marchc")
	if _, err := scalarGrade(alg, Reference, Options{Size: 8}); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("coverage.batches_replayed").Value(); n != 0 {
		t.Errorf("scalar grade replayed %d batches, want 0", n)
	}
	if n := reg.Counter("coverage.faults_graded").Value(); n == 0 {
		t.Error("scalar grade graded no faults")
	}
}

// scalarGrade grades on the scalar oracle.
func scalarGrade(alg march.Algorithm, arch Architecture, opts Options) (*Report, error) {
	opts.Engine = EngineScalar
	return Grade(alg, arch, opts)
}
