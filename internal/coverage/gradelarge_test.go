package coverage

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/march"
)

// gradeLargeRound grades one round of the mbistperf grade-large
// workload in-process: March C, C++ and B on 512×4 microcode with the
// exhaustive universe, then March C on 2048×8×2 with a sampled one.
func gradeLargeRound(b *testing.B) {
	for _, name := range []string{"marchc", "marchc++", "marchb"} {
		alg, _ := march.ByName(name)
		if _, err := Grade(alg, Microcode, Options{Size: 512, Width: 4, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
	alg, _ := march.ByName("marchc")
	sampled := faults.UniverseOpts{CellSample: 1024, CouplingPairs: 2048, AddrSample: 256, Seed: 1}
	if _, err := Grade(alg, Microcode, Options{Size: 2048, Width: 8, Ports: 2, Workers: 1, Universe: sampled}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkGradeLargeCold times a grade-large round with the four
// artifact caches flushed first, as the first round of a process
// grades it: universe, partition, stream verification and plan builds
// included.
func BenchmarkGradeLargeCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		universeCache.Flush()
		controllerCache.Flush()
		streamCache.Flush()
		planCache.Flush()
		gradeLargeRound(b)
	}
}

// BenchmarkGradeLargeWarm times a grade-large round on warm caches, as
// every later round of a process grades it: replay, verdicts and
// reports.
func BenchmarkGradeLargeWarm(b *testing.B) {
	gradeLargeRound(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gradeLargeRound(b)
	}
}
