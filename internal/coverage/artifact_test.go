package coverage

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/march"
	"repro/internal/obs"
)

// artifactCaches names the package's four artifact caches.
var artifactCaches = []string{"universe", "controller", "stream", "plan"}

// TestRepeatGradeServedFromArtifactCache pins the service-facing cache
// contract: a repeated identical grade request re-synthesises nothing —
// the fault universe, the controller program, the stream verdict and
// the class plan are all served from the artifact cache, observable
// through the artifact.<name>.builds counters.
func TestRepeatGradeServedFromArtifactCache(t *testing.T) {
	reg := obs.Enable()
	defer obs.Disable()

	alg, ok := march.ByName("marchc")
	if !ok {
		t.Fatal("march library lost marchc")
	}
	// A geometry no other test in this package grades, so the first
	// Grade here is the one that populates the cache.
	opts := Options{Size: 24, Width: 2, Workers: 2}

	builds := func() []int64 {
		n := make([]int64, len(artifactCaches))
		for i, name := range artifactCaches {
			n[i] = reg.Counter("artifact." + name + ".builds").Value()
		}
		return n
	}
	hits := func(name string) int64 {
		return reg.Counter("artifact." + name + ".hits").Value()
	}

	first, err := Grade(alg, Microcode, opts)
	if err != nil {
		t.Fatal(err)
	}
	b1 := builds()
	for i, n := range b1 {
		if n > 1 {
			t.Fatalf("first grade built %s %d times, want at most 1", artifactCaches[i], n)
		}
	}

	second, err := Grade(alg, Microcode, opts)
	if err != nil {
		t.Fatal(err)
	}
	if b2 := builds(); fmt.Sprint(b2) != fmt.Sprint(b1) {
		t.Fatalf("repeat grade rebuilt artifacts: %v builds %v -> %v", artifactCaches, b1, b2)
	}
	// A verified stream never reruns its controller, so the warm path
	// reads no controller.
	for _, name := range []string{"universe", "stream", "plan"} {
		if hits(name) == 0 {
			t.Fatalf("repeat grade did not hit the %s cache", name)
		}
	}
	if first.String() != second.String() {
		t.Fatalf("cached grade diverged:\n%s\nvs\n%s", first, second)
	}
}

// TestLibrarySweepStaysCached grades mbistcov's default library (the
// eight algorithms of sweep.DefaultAlgs) on the reference, microcode
// and hardwired architectures, at sizes 8 and 16 with one and two
// ports, twice. The first pass builds each artifact once per key: 4
// universes, 48 controllers, 96 (algorithm, architecture, geometry)
// stream verdicts and 32 (algorithm, geometry) class plans. The second
// pass must build nothing: every key fits its cache.
func TestLibrarySweepStaysCached(t *testing.T) {
	reg := obs.Enable()
	defer obs.Disable()
	universeCache.Flush()
	controllerCache.Flush()
	streamCache.Flush()
	planCache.Flush()

	var algs []march.Algorithm
	for _, name := range strings.Split("mats+,marchx,marchy,marchc,marchc+,marchc++,marcha,marchb", ",") {
		alg, ok := march.ByName(name)
		if !ok {
			t.Fatalf("march library lost %s", name)
		}
		algs = append(algs, alg)
	}
	builds := func() []int64 {
		n := make([]int64, len(artifactCaches))
		for i, name := range artifactCaches {
			n[i] = reg.Counter("artifact." + name + ".builds").Value()
		}
		return n
	}
	sweep := func() {
		for _, arch := range []Architecture{Reference, Microcode, Hardwired} {
			for _, size := range []int{8, 16} {
				for _, ports := range []int{1, 2} {
					if _, err := Matrix(algs, arch, Options{Size: size, Ports: ports, Workers: 1}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	sweep()
	first := builds()
	if want := []int64{4, 48, 96, 32}; fmt.Sprint(first) != fmt.Sprint(want) {
		t.Errorf("first sweep built %v %v times, want %v", artifactCaches, first, want)
	}
	sweep()
	if again := builds(); fmt.Sprint(again) != fmt.Sprint(first) {
		t.Fatalf("second sweep rebuilt artifacts: %v builds %v -> %v", artifactCaches, first, again)
	}
}
