package coverage

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/fsmbist"
	"repro/internal/march"
)

func TestGradeReferenceMarchC(t *testing.T) {
	rep, err := Grade(march.MarchC(), Reference, Options{Size: 8})
	if err != nil {
		t.Fatal(err)
	}
	// March C detects 100% of SA, TF, AF and unlinked CFs.
	for _, k := range []faults.Kind{faults.SA, faults.TF, faults.CFin, faults.CFid, faults.CFst, faults.AFNone, faults.AFMap, faults.AFMulti} {
		if r := rep.ByKind[k]; r.Detected != r.Total {
			t.Errorf("March C misses %s faults: %s", k, r)
		}
	}
	// But not DRF (no pause) nor RDF (single reads).
	if r := rep.ByKind[faults.DRF]; r.Detected != 0 {
		t.Errorf("March C detects DRFs without pausing: %s", r)
	}
	if r := rep.ByKind[faults.RDF]; r.Detected != 0 {
		t.Errorf("March C detects RDFs with single reads: %s", r)
	}
}

func TestEnhancementsCloseCoverageGaps(t *testing.T) {
	// C+ adds DRF coverage, C++ adds RDF coverage on top.
	base, err := Grade(march.MarchC(), Reference, Options{Size: 8})
	if err != nil {
		t.Fatal(err)
	}
	plus, err := Grade(march.MarchCPlus(), Reference, Options{Size: 8})
	if err != nil {
		t.Fatal(err)
	}
	pp, err := Grade(march.MarchCPlusPlus(), Reference, Options{Size: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r := plus.ByKind[faults.DRF]; r.Detected != r.Total {
		t.Errorf("March C+ DRF coverage: %s", r)
	}
	if r := plus.ByKind[faults.RDF]; r.Detected != 0 {
		t.Errorf("March C+ RDF coverage should be zero: %s", r)
	}
	if r := pp.ByKind[faults.DRF]; r.Detected != r.Total {
		t.Errorf("March C++ DRF coverage: %s", r)
	}
	if r := pp.ByKind[faults.RDF]; r.Detected != r.Total {
		t.Errorf("March C++ RDF coverage: %s", r)
	}
	if !(base.Overall.Percent() < plus.Overall.Percent() && plus.Overall.Percent() < pp.Overall.Percent()) {
		t.Errorf("coverage not increasing: %v %v %v", base.Overall, plus.Overall, pp.Overall)
	}
}

func TestAllArchitecturesReachReferenceCoverage(t *testing.T) {
	// The central cross-check: for each algorithm, the three controller
	// architectures must detect exactly the faults the reference runner
	// detects.
	opts := Options{Size: 8}
	for _, algf := range []func() march.Algorithm{march.MarchC, march.MarchCPlus, march.MarchA} {
		alg := algf()
		ref, err := Grade(alg, Reference, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, arch := range []Architecture{Microcode, Hardwired} {
			rep, err := Grade(alg, arch, opts)
			if err != nil {
				t.Fatalf("%s on %s: %v", alg.Name, arch, err)
			}
			if rep.Overall != ref.Overall {
				t.Errorf("%s on %s: %v, reference %v", alg.Name, arch, rep.Overall, ref.Overall)
			}
		}
		// None of these splits an element on the programmable FSM, so it
		// matches too; TestProgFSMFlexibilityPenalty pins the algorithms
		// whose split elements cost coverage.
		rep, err := Grade(alg, ProgFSM, opts)
		if err != nil {
			t.Fatalf("%s on prog-fsm: %v", alg.Name, err)
		}
		if rep.Overall != ref.Overall {
			t.Errorf("%s on prog-fsm: %v, reference %v", alg.Name, rep.Overall, ref.Overall)
		}
	}
}

// TestProgFSMFlexibilityPenalty pins O2's flexibility penalty as known
// answers on the exhaustive 16×1 universe. Microcode and hardwired
// controllers reproduce the reference runner's report on all 14
// library algorithms. The programmable FSM splits the elements of
// March C++, A++, B, SS and G that no SM component runs whole; the
// split keeps B, SS and G at the reference's coverage, but March C++
// falls from 97.0% to 76.9% and March A++ to 62.7%.
func TestProgFSMFlexibilityPenalty(t *testing.T) {
	type kindRatio struct {
		kind faults.Kind
		want Ratio
	}
	penalty := map[string]struct {
		overall Ratio
		kinds   []kindRatio
	}{
		"marchc++": {Ratio{406, 528}, []kindRatio{
			{faults.AFMap, Ratio{0, 16}}, {faults.AFMulti, Ratio{0, 16}},
			{faults.CFid, Ratio{60, 120}}, {faults.SOF, Ratio{2, 16}},
		}},
		"marcha++": {Ratio{331, 528}, nil},
	}
	decomposes := map[string]bool{"marchc++": true, "marcha++": true, "marchb": true, "marchss": true, "marchg": true}
	names := make([]string, 0, len(march.Library()))
	for name := range march.Library() {
		names = append(names, name)
	}
	sort.Strings(names)
	opts := Options{Size: 16}
	for _, name := range names {
		alg, _ := march.ByName(name)
		ref, err := Grade(alg, Reference, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, arch := range []Architecture{Microcode, Hardwired} {
			rep, err := Grade(alg, arch, opts)
			if err != nil {
				t.Fatalf("%s on %s: %v", name, arch, err)
			}
			want := *ref
			want.Architecture = arch
			if !reflect.DeepEqual(rep, &want) {
				t.Errorf("%s on %s: %v, reference %v", name, arch, rep.Overall, ref.Overall)
			}
		}
		p, err := fsmbist.Compile(alg, fsmbist.CompileOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if p.Decomposed != decomposes[name] {
			t.Errorf("%s: prog-FSM program decomposed = %v, want %v", name, p.Decomposed, decomposes[name])
		}
		rep, err := Grade(alg, ProgFSM, opts)
		if err != nil {
			t.Fatalf("%s on prog-fsm: %v", name, err)
		}
		pen, ok := penalty[name]
		if !ok {
			want := *ref
			want.Architecture = ProgFSM
			if !reflect.DeepEqual(rep, &want) {
				t.Errorf("%s on prog-fsm: %v, reference %v", name, rep.Overall, ref.Overall)
			}
			continue
		}
		if ref.Overall != (Ratio{512, 528}) {
			t.Errorf("%s on reference: %v, want 512/528", name, ref.Overall)
		}
		if rep.Overall != pen.overall {
			t.Errorf("%s on prog-fsm: %v, want %v", name, rep.Overall, pen.overall)
		}
		for _, k := range pen.kinds {
			if got := rep.ByKind[k.kind]; got != k.want {
				t.Errorf("%s on prog-fsm: %v %v, want %v", name, k.kind, got, k.want)
			}
		}
	}
}

func TestStaticFaultsNeedMarchSS(t *testing.T) {
	// WDF needs a non-transition write, DRDF needs back-to-back reads:
	// March C detects neither; March SS detects both (and IRF, which
	// any read detects).
	mc, err := Grade(march.MarchC(), Reference, Options{Size: 8})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := Grade(march.MarchSS(), Reference, Options{Size: 8})
	if err != nil {
		t.Fatal(err)
	}
	// March C's only non-transition write is the initialisation w0
	// landing on the all-zero power-up state, which sensitises exactly
	// the WDF<0w0> half of the class; WDF<1w1> stays undetected.
	if r := mc.ByKind[faults.WDF]; r.Detected != r.Total/2 {
		t.Errorf("March C WDF coverage %s, want exactly the <0w0> half", r)
	}
	if r := mc.ByKind[faults.DRDF]; r.Detected != 0 {
		t.Errorf("March C detects DRDFs without back-to-back reads: %s", r)
	}
	if r := mc.ByKind[faults.IRF]; r.Detected != r.Total {
		t.Errorf("March C misses IRFs: %s", r)
	}
	for _, k := range []faults.Kind{faults.WDF, faults.IRF, faults.DRDF, faults.SA, faults.TF} {
		if r := ss.ByKind[k]; r.Detected != r.Total {
			t.Errorf("March SS misses %s faults: %s", k, r)
		}
	}
}

func TestTripleReadsDetectDRDF(t *testing.T) {
	pp, err := Grade(march.MarchCPlusPlus(), Reference, Options{Size: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r := pp.ByKind[faults.DRDF]; r.Detected != r.Total {
		t.Errorf("March C++ misses DRDFs: %s", r)
	}
}

func TestMarchGCoversRetentionAndSOF(t *testing.T) {
	g, err := Grade(march.MarchG(), Reference, Options{Size: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []faults.Kind{faults.DRF, faults.SOF, faults.SA, faults.TF, faults.CFin, faults.CFid} {
		if r := g.ByKind[k]; r.Detected != r.Total {
			t.Errorf("March G misses %s faults: %s", k, r)
		}
	}
}

func TestMATSPlusWeakerThanMarchC(t *testing.T) {
	mats, err := Grade(march.MATSPlus(), Reference, Options{Size: 8})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := Grade(march.MarchC(), Reference, Options{Size: 8})
	if err != nil {
		t.Fatal(err)
	}
	if mats.Overall.Percent() >= mc.Overall.Percent() {
		t.Errorf("MATS+ %.1f%% >= March C %.1f%%", mats.Overall.Percent(), mc.Overall.Percent())
	}
}

func TestMultiportCoverageNeedsPortLoop(t *testing.T) {
	opts := Options{Size: 8, Ports: 2}
	rep, err := Grade(march.MarchC(), Microcode, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Every port-specific fault must be caught by the port loop.
	for _, f := range rep.Missed {
		if f.Port != faults.AnyPort {
			t.Errorf("port loop missed port-specific fault %v", f)
		}
	}
	// And the microcode controller must match the reference exactly.
	ref, err := Grade(march.MarchC(), Reference, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Overall != ref.Overall {
		t.Errorf("microcode multiport %v, reference %v", rep.Overall, ref.Overall)
	}
}

func TestMatrixRenders(t *testing.T) {
	out, err := Matrix([]march.Algorithm{march.MATSPlus(), march.MarchC()}, Reference, Options{Size: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"MATS+", "March C", "SA", "overall"} {
		if !strings.Contains(out, frag) {
			t.Errorf("matrix missing %q:\n%s", frag, out)
		}
	}
}

func TestRatioPercentEdge(t *testing.T) {
	if (Ratio{}).Percent() != 100 {
		t.Error("empty ratio should be 100%")
	}
	if (Ratio{Detected: 1, Total: 4}).Percent() != 25 {
		t.Error("25% ratio wrong")
	}
}

func TestGradeUnknownArchitecture(t *testing.T) {
	if _, err := Grade(march.MarchC(), Architecture(99), Options{Size: 4}); err == nil {
		t.Error("unknown architecture graded")
	}
}

// TestGradeParallelDeterminism pins the worker-pool contract: any
// worker count produces a Report byte-identical to the serial path —
// same per-kind ratios, same overall ratio, and the same Missed slice
// in the same (universe) order.
func TestGradeParallelDeterminism(t *testing.T) {
	algs := []func() march.Algorithm{march.MarchC, march.MarchCPlus, march.MarchCPlusPlus}
	for _, algf := range algs {
		alg := algf()
		for _, arch := range []Architecture{Reference, Microcode} {
			serial, err := Grade(alg, arch, Options{Size: 8, Workers: 1})
			if err != nil {
				t.Fatalf("%s on %s serial: %v", alg.Name, arch, err)
			}
			for _, workers := range []int{2, 8} {
				par, err := Grade(alg, arch, Options{Size: 8, Workers: workers})
				if err != nil {
					t.Fatalf("%s on %s with %d workers: %v", alg.Name, arch, workers, err)
				}
				if !reflect.DeepEqual(par, serial) {
					t.Errorf("%s on %s: %d-worker report differs from serial", alg.Name, arch, workers)
				}
				if par.String() != serial.String() {
					t.Errorf("%s on %s: %d-worker rendering differs from serial", alg.Name, arch, workers)
				}
			}
		}
	}
}

// TestGradeDefaultsToParallel checks the zero Options value opts into
// the worker pool (Workers defaults to the CPU count, never zero).
func TestGradeDefaultsToParallel(t *testing.T) {
	var o Options
	o.normalise()
	if o.Workers < 1 {
		t.Errorf("normalised Workers = %d, want >= 1", o.Workers)
	}
}
