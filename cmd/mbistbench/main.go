// Command mbistbench measures the tracked benchmark suite (the paired
// Serial/Parallel fault-simulation fast paths defined in
// internal/benchsuite) via testing.Benchmark, emits a schema-versioned
// machine-readable snapshot, and gates against a baseline snapshot —
// the binary CI's bench-regression job runs on every pull request.
//
// Usage:
//
//	mbistbench                                   # measure, print, no gate
//	mbistbench -out BENCH_pr2.json               # regenerate the snapshot
//	mbistbench -baseline BENCH_pr1.json          # gate at the default 1.30x
//	mbistbench -baseline BENCH_pr1.json -tolerance 1.15 -bench LogicBIST
//
// Exit status is non-zero when any tracked benchmark's ns/op exceeds
// baseline × tolerance, or when the baseline shares no benchmarks with
// the suite (a mis-pointed baseline must not silently pass).
//
// With a baseline the suite runs at the baseline's GOMAXPROCS, so the
// gate compares like with like on a host with a different CPU count:
// the parallel cases size their worker pools by it, and a wider pool
// allocates more per op.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/benchsuite"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mbistbench: ")
	testing.Init() // registers test.* flags so -benchtime can be forwarded
	baselinePath := flag.String("baseline", "", "baseline BENCH_*.json to gate against (empty = measure only)")
	tolerance := flag.Float64("tolerance", 1.30, "allowed current/baseline ns-per-op ratio before failing")
	out := flag.String("out", "", "write the measurements to this JSON file")
	benchtime := flag.String("benchtime", "1s", "per-benchmark measuring budget, testing syntax (e.g. 2s, 20x)")
	repeat := flag.Int("repeat", 3, "measure each benchmark this many times and keep the fastest (noise robustness)")
	benchRE := flag.String("bench", "", "only run tracked benchmarks matching this regexp")
	list := flag.Bool("list", false, "list the tracked benchmarks and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile covering every measured run to this file")
	flag.Parse()

	suite := benchsuite.Suite()
	if *list {
		for _, c := range suite {
			fmt.Println(c.Name)
		}
		return
	}

	var filter *regexp.Regexp
	if *benchRE != "" {
		var err error
		if filter, err = regexp.Compile(*benchRE); err != nil {
			log.Fatalf("bad -bench regexp: %v", err)
		}
	}
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		log.Fatalf("bad -benchtime %q: %v", *benchtime, err)
	}
	// The profile brackets the measurement loop only and is stopped
	// explicitly (not deferred): the gate below exits the process on a
	// regression, and the profile of the run that regressed is exactly
	// the artifact worth keeping.
	stopProfile := func() {}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("start CPU profile: %v", err)
		}
		stopProfile = func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote CPU profile %s\n", *cpuprofile)
		}
	}

	var baseline *Report
	if *baselinePath != "" {
		var err error
		if baseline, err = LoadBaseline(*baselinePath); err != nil {
			log.Fatal(err)
		}
		if procs := baseline.Procs(); procs > 0 {
			runtime.GOMAXPROCS(procs)
		}
	}

	report := &Report{
		Schema:     Schema,
		Generated:  time.Now().UTC().Format(time.RFC3339),
		Go:         runtime.Version(),
		Host:       fmt.Sprintf("%s/%s, %d CPU", runtime.GOOS, runtime.GOARCH, runtime.NumCPU()),
		Gomaxprocs: runtime.GOMAXPROCS(0),
		Benchtime:  *benchtime,
		Benchmarks: make(map[string]Entry),
	}
	if *repeat < 1 {
		*repeat = 1
	}
	for _, c := range suite {
		if filter != nil && !filter.MatchString(c.Name) {
			continue
		}
		fmt.Fprintf(os.Stderr, "running %s (benchtime %s, best of %d)\n", c.Name, *benchtime, *repeat)
		// Shared-runner CPU speed fluctuates on multi-second scales;
		// the minimum over repetitions is the robust per-op estimate
		// (slowdowns are one-sided noise).
		var best testing.BenchmarkResult
		for rep := 0; rep < *repeat; rep++ {
			br := testing.Benchmark(c.F)
			if br.N == 0 {
				log.Fatalf("%s failed to run", c.Name)
			}
			if rep == 0 || br.NsPerOp() < best.NsPerOp() {
				best = br
			}
		}
		fmt.Printf("%-34s %12d ns/op %8d allocs/op  (best of %d, %d iterations)\n",
			c.Name, best.NsPerOp(), best.AllocsPerOp(), *repeat, best.N)
		report.AddResult(c.Name, best)
	}
	stopProfile()
	if len(report.Benchmarks) == 0 {
		log.Fatalf("-bench %q matched no tracked benchmark", *benchRE)
	}

	report.Speedups = speedups(suite, report.Benchmarks)
	for name, s := range report.Speedups {
		fmt.Printf("%-34s %12.2fx\n", name, s)
	}

	if *out != "" {
		if err := report.WriteFile(*out); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}

	if baseline == nil {
		return
	}
	regressions, compared := Gate(report.Benchmarks, baseline.Benchmarks, *tolerance)
	if len(compared) == 0 {
		log.Fatalf("baseline %s shares no benchmarks with the tracked suite", *baselinePath)
	}
	fmt.Printf("gate: %d benchmark(s) vs %s at tolerance %.2fx, GOMAXPROCS %d\n",
		len(compared), *baselinePath, *tolerance, report.Gomaxprocs)
	for _, name := range compared {
		base := baseline.Benchmarks[name].NsPerOp
		fmt.Printf("  %-32s baseline %12.0f ns/op  current %12.0f ns/op  ratio %.2fx\n",
			name, base, report.Benchmarks[name].NsPerOp, report.Benchmarks[name].NsPerOp/base)
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Printf("REGRESSION %s %s: %.0f -> %.0f (%.2fx > %.2fx tolerance)\n",
				r.Name, r.Metric, r.Baseline, r.Current, r.Ratio, *tolerance)
		}
		os.Exit(1)
	}
	fmt.Println("gate: PASS")
}

// speedups derives the parallel-vs-serial ratios for the paired cases
// that were actually measured.
func speedups(suite []benchsuite.Case, measured map[string]Entry) map[string]float64 {
	out := make(map[string]float64)
	for _, c := range suite {
		if c.Serial == "" {
			continue
		}
		par, okP := measured[c.Name]
		ser, okS := measured[c.Serial]
		if !okP || !okS || par.NsPerOp <= 0 {
			continue
		}
		out[c.Name+"_vs_"+c.Serial] = ser.NsPerOp / par.NsPerOp
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
