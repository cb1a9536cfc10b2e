package coverage

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/fsmbist"
	"repro/internal/march"
	"repro/internal/obs"
)

// TestBatchedEngineMatchesScalarOracle is the acceptance gate for the
// lane-parallel engine: for every architecture and every algorithm in
// the march library, Grade (EngineAuto) must produce a byte-identical
// Report — including the Missed ordering — to the scalar GradeSerial
// oracle, at worker counts 1, 2 and GOMAXPROCS (Workers: 0).
func TestBatchedEngineMatchesScalarOracle(t *testing.T) {
	names := make([]string, 0, len(march.Library()))
	for name := range march.Library() {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, arch := range []Architecture{Reference, Microcode, ProgFSM, Hardwired} {
		for _, name := range names {
			alg, _ := march.ByName(name)
			want, err := GradeSerial(alg, arch, Options{Size: 8})
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
			want, err := GradeSerial(alg, arch, opts)
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
// replays lane batches (rather than silently falling back) for the
// canonical microcode configuration, that batch occupancy respects the
// configured lane width, that every fault's verdict comes from one of
// the replayed class lanes, and that the lane_width gauge reports it.
func TestBatchedEngineEngaged(t *testing.T) {
	for _, lanes := range []int{0, 64, 128, 256, 512} {
		reg := obs.Enable()
		alg, _ := march.ByName("marchc")
		rep, err := Grade(alg, Microcode, Options{Size: 16, Lanes: lanes})
		if err != nil {
			obs.Disable()
			t.Fatal(err)
		}
		want := lanes
		if want == 0 {
			want = DefaultLanes
		}
		batches := reg.Counter("coverage.batches_replayed").Value()
		if batches == 0 {
			t.Fatalf("lanes=%d: batched engine not engaged for marchc on microcode", lanes)
		}
		if fb := reg.Counter("coverage.stream_fallbacks").Value(); fb != 0 {
			t.Errorf("lanes=%d: unexpected stream fallbacks: %d", lanes, fb)
		}
		if lw := reg.Gauge("coverage.lane_width").Value(); int(lw) != want {
			t.Errorf("lanes=%d: lane_width gauge %d, want %d", lanes, lw, want)
		}
		count, sum, _, max := reg.Span("coverage.batch_lanes").Stats()
		if count != batches {
			t.Errorf("lanes=%d: batch_lanes count %d, batches %d", lanes, count, batches)
		}
		classes := reg.Counter("coverage.class_lanes").Value()
		if sum != classes || classes == 0 || int(classes) > rep.Overall.Total {
			t.Errorf("lanes=%d: lane occupancy sum %d, class lanes %d, universe size %d", lanes, sum, classes, rep.Overall.Total)
		}
		if int(max) > want-1 {
			t.Errorf("lanes=%d: batch occupancy %d exceeds %d fault lanes", lanes, max, want-1)
		}
		if graded := reg.Counter("coverage.faults_graded").Value(); int(graded) != rep.Overall.Total {
			t.Errorf("lanes=%d: faults_graded %d, universe size %d", lanes, graded, rep.Overall.Total)
		}
		if cs := reg.Counter("coverage.compiled_streams").Value(); cs == 0 {
			t.Errorf("lanes=%d: stream was not compiled to µops", lanes)
		}
		obs.Disable()
	}
}

// TestBatchedEngineMatchesScalarOracleAllLaneWidths sweeps the lane
// width across every supported plane count on the canonical geometry:
// each width must reproduce the scalar oracle's report byte-for-byte at
// 1, 2 and GOMAXPROCS workers (acceptance criterion for the multi-plane
// engine).
func TestBatchedEngineMatchesScalarOracleAllLaneWidths(t *testing.T) {
	alg, _ := march.ByName("marchc")
	for _, arch := range []Architecture{Reference, Microcode, ProgFSM, Hardwired} {
		want, err := GradeSerial(alg, arch, Options{Size: 16})
		if err != nil {
			t.Fatalf("%s: oracle: %v", arch, err)
		}
		for _, lanes := range []int{64, 128, 256, 512} {
			for _, workers := range []int{1, 2, 0} {
				got, err := Grade(alg, arch, Options{Size: 16, Lanes: lanes, Workers: workers})
				if err != nil {
					t.Fatalf("%s lanes=%d workers=%d: %v", arch, lanes, workers, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s lanes=%d workers=%d: report differs from scalar oracle", arch, lanes, workers)
				}
				if got.String() != want.String() {
					t.Errorf("%s lanes=%d workers=%d: rendered report differs", arch, lanes, workers)
				}
			}
		}
	}
}

// TestGradeRejectsBadLaneWidth pins Options.Lanes validation.
func TestGradeRejectsBadLaneWidth(t *testing.T) {
	alg, _ := march.ByName("marchc")
	for _, lanes := range []int{-1, 1, 63, 96, 1024} {
		if _, err := Grade(alg, Reference, Options{Size: 8, Lanes: lanes}); err == nil {
			t.Errorf("lanes=%d: no error", lanes)
		}
	}
}

// TestGradeRejectsBadGeometry pins Options.Validate's geometry bounds
// on every grading entry point. Width 65 used to panic in stream
// capture; at 257 ports the µop port byte wrapped port 256 onto port 0
// and the lane engine disagreed with the scalar oracle. 256 ports, the
// largest accepted, must still grade byte-identically to the oracle.
func TestGradeRejectsBadGeometry(t *testing.T) {
	alg, _ := march.ByName("mats+")
	for _, o := range []Options{
		{Size: 2, Width: 65},
		{Size: 2, Width: -1},
		{Size: 2, Ports: 257},
		{Size: 2, Ports: -1},
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

// TestStreamFallbackOnDecomposedProgram pins the automatic fallback:
// a prog-FSM program whose realised algorithm was decomposed emits an
// operation stream that diverges from the reference stream, so Grade
// must take the scalar path — and still match the oracle (already
// guaranteed by sharing the scalar engine, checked again here on one
// instance for the fallback specifically).
func TestStreamFallbackOnDecomposedProgram(t *testing.T) {
	var decomposed march.Algorithm
	found := false
	for name := range march.Library() {
		alg, _ := march.ByName(name)
		p, err := fsmbist.Compile(alg, fsmbist.CompileOpts{})
		if err == nil && p.Decomposed {
			decomposed, found = alg, true
			break
		}
	}
	if !found {
		t.Skip("no library algorithm decomposes under the prog-FSM compiler")
	}
	reg := obs.Enable()
	defer obs.Disable()
	got, err := Grade(decomposed, ProgFSM, Options{Size: 8})
	if err != nil {
		t.Fatal(err)
	}
	if fb := reg.Counter("coverage.stream_fallbacks").Value(); fb == 0 {
		t.Fatalf("%s on prog-fsm: expected a stream-capture fallback", decomposed.Name)
	}
	if reg.Counter("coverage.batches_replayed").Value() != 0 {
		t.Errorf("%s on prog-fsm: batches replayed despite fallback", decomposed.Name)
	}
	want, err := GradeSerial(decomposed, ProgFSM, Options{Size: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s on prog-fsm: fallback report differs from oracle", decomposed.Name)
	}
}

// TestStreamsEqual pins the guard helper.
func TestStreamsEqual(t *testing.T) {
	a := []march.StreamOp{{Write: true, Addr: 1, Data: 1}, {Addr: 1, Data: 1}}
	if !streamsEqual(a, a) {
		t.Error("identical streams compared unequal")
	}
	if streamsEqual(a, a[:1]) {
		t.Error("length mismatch compared equal")
	}
	b := []march.StreamOp{{Write: true, Addr: 1, Data: 1}, {Addr: 2, Data: 1}}
	if streamsEqual(a, b) {
		t.Error("differing streams compared equal")
	}
}

// TestGradeSerialForcesScalarEngine pins that the oracle entry point
// never touches the lane engine.
func TestGradeSerialForcesScalarEngine(t *testing.T) {
	reg := obs.Enable()
	defer obs.Disable()
	alg, _ := march.ByName("marchc")
	if _, err := GradeSerial(alg, Reference, Options{Size: 8}); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("coverage.batches_replayed").Value(); n != 0 {
		t.Errorf("GradeSerial replayed %d batches, want 0", n)
	}
	if n := reg.Counter("coverage.faults_graded").Value(); n == 0 {
		t.Error("GradeSerial graded no faults")
	}
}
