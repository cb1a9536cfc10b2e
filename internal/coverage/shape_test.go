package coverage

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/faults"
	"repro/internal/march"
)

// checkShapes fails unless every support of a size-word memory projects
// alg's whole reference stream exactly as its shape's support projects
// the surrogate's stream, the projection the plan build replays in its
// place. Memories of up to 40 words check every support; larger ones
// check every word, every adjacent pair, every pair holding an edge
// word and a random sample of the rest.
func checkShapes(t testing.TB, alg march.Algorithm, size, width, ports int, rng *rand.Rand) {
	t.Helper()
	opts := Options{Size: size, Width: width, Ports: ports}
	whole, err := lowerStream(referenceStream(alg, opts), size, width, ports)
	if err != nil {
		t.Fatalf("%v at %dx%dx%d: whole stream: %v", alg, size, width, ports, err)
	}
	surrogate, err := surrogateStream(alg, opts)
	if err != nil {
		t.Fatalf("%v at %dx%dx%d: surrogate: %v", alg, size, width, ports, err)
	}
	ssize, _, _ := surrogate.Geometry()
	var got, want []faults.UOp
	check := func(words [2]int32, n int) {
		shape := supportShape(words, n, int32(size))
		rep, rn := shapeSupport(shape, int32(ssize))
		want = whole.Project(words[:n], want[:0])
		got = surrogate.Project(rep[:rn], got[:0])
		if !slices.Equal(got, want) {
			t.Fatalf("%v at %dx%dx%d: support %v (shape %04b) projects %d µops; surrogate support %v projects %d differently",
				alg, size, width, ports, words[:n], shape, len(want), rep[:rn], len(got))
		}
	}
	last := int32(size - 1)
	for a := int32(0); a <= last; a++ {
		check([2]int32{a}, 1)
	}
	if size <= 40 {
		for a := int32(0); a < last; a++ {
			for b := a + 1; b <= last; b++ {
				check([2]int32{a, b}, 2)
			}
		}
		return
	}
	for a := int32(0); a < last; a++ {
		check([2]int32{a, a + 1}, 2)
		if a > 0 {
			check([2]int32{0, a}, 2)
			check([2]int32{a, last}, 2)
		}
	}
	check([2]int32{0, last}, 2)
	for k := 0; k < 200; k++ {
		a := 1 + rng.Int31n(last-3)
		b := a + 2 + rng.Int31n(last-a-2)
		check([2]int32{a, b}, 2)
	}
}

// TestPlanShapesMatchWholeStream is the exactness property of planning
// by shape: over the march library and seeded random march tests
// (every one valid, some with Del elements), sizes 1–7, 16 and 512,
// widths 1–8 and 1–3 ports, every support projects the whole stream as
// its shape's support projects the surrogate's. Sizes up to 16 run
// every width and port count; at 512 words each algorithm runs one
// (width, ports) pair, and the pairs rotate through all 24.
func TestPlanShapesMatchWholeStream(t *testing.T) {
	names := make([]string, 0, len(march.Library()))
	for name := range march.Library() {
		names = append(names, name)
	}
	sort.Strings(names)
	var algs []march.Algorithm
	for _, name := range names {
		alg, _ := march.ByName(name)
		algs = append(algs, alg)
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 12; i++ {
		alg := march.Random(rng)
		alg.Name = fmt.Sprintf("random%d", i)
		algs = append(algs, alg)
	}
	for i, alg := range algs {
		for _, size := range []int{1, 2, 3, 4, 5, 6, 7, 16} {
			for width := 1; width <= 8; width++ {
				for ports := 1; ports <= 3; ports++ {
					checkShapes(t, alg, size, width, ports, rng)
				}
			}
		}
		checkShapes(t, alg, 512, 1+i%8, 1+i/8%3, rng)
	}
}

// FuzzPlanShapes checks the exactness property of planning by shape
// (see TestPlanShapesMatchWholeStream) on fuzzed march tests and
// geometries: the march is the fuzzed notation when it parses, and a
// march.Random test drawn from the fuzzed seed otherwise.
func FuzzPlanShapes(f *testing.F) {
	f.Add("b(w0); u(r0,w1); d(r1,w0); b(r0)", int64(1), uint8(9), uint8(2), uint8(1))
	f.Add("u(w1); del u(r1,w0,r0); d(r0,w1,r1,w1)", int64(2), uint8(6), uint8(4), uint8(2))
	f.Add("", int64(3), uint8(40), uint8(1), uint8(3))
	f.Add("", int64(4), uint8(1), uint8(8), uint8(2))
	f.Fuzz(func(t *testing.T, text string, seed int64, size, width, ports uint8) {
		alg, err := march.Parse("fuzz", text)
		if err != nil {
			alg = march.Random(rand.New(rand.NewSource(seed)))
		}
		checkShapes(t, alg, 1+int(size)%48, 1+int(width)%16, 1+int(ports)%3, rand.New(rand.NewSource(seed)))
	})
}
