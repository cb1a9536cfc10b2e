// Command mbistperf is the repository's workload benchmark. It grades
// BIST controllers in-process and drives the mbistd grading service
// over HTTP on four named workloads, checks every output, and prints
// each end-to-end metric by name with its unit; with -trace 1 it
// instead prints a per-layer breakdown of where the ops' time went.
// BENCHMARK.md explains the workloads, the metrics and the layer map,
// and how the recorded numbers were taken.
//
// Usage, from the repository root (run.sh builds the binary, then runs
// it with the same arguments):
//
//	bash mbistperf/run.sh -workload grade-fleet -seed 1 -seconds 15 -trace 0
//	bash mbistperf/run.sh -workload all -seed 1 -out run.json
//	bash mbistperf/run.sh -workload all -seed 1 -trace 1 -trace-out spans.jsonl
//	bash mbistperf/run.sh -compare parent.json change.json
//	bash mbistperf/run.sh -update-golden
//
// A single-workload run prints, as the last line of its standard
// output, one JSON object with the keys correct, attempted, failed and
// metrics. It exits non-zero when any op failed, was refused, or
// produced an output that disagrees with the golden digests, the
// scalar oracle or (traced) the decomposed pipeline. -workload all runs
// each workload in its own child process, so caches, heap and RSS never
// carry over from one workload to the next.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mbistperf: ")
	var cfg runConfig
	var trace int
	var out, spec, goldenPath string
	var compare, updateGolden, probe bool
	flag.StringVar(&cfg.Workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	flag.Int64Var(&cfg.Seed, "seed", 1, "seed the workload's inputs are drawn from")
	flag.IntVar(&cfg.Seconds, "seconds", 15, "run length: as many rounds as the reference host runs in this many seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end metrics")
	flag.StringVar(&cfg.Scale, "scale", scaleFull, "workload sizes: full, or smoke for a seconds-long check of every path")
	flag.StringVar(&cfg.TraceOut, "trace-out", "", "append the traced run's spans to this JSONL file")
	flag.StringVar(&out, "out", "", "append the run, every op included, to this JSON file")
	flag.BoolVar(&compare, "compare", false, "compare the runs of two -out files: -compare parent.json change.json")
	flag.StringVar(&spec, "spec", "BENCHMARK.json", "benchmark definition whose bounds -compare applies")
	flag.BoolVar(&updateGolden, "update-golden", false, "regenerate the golden digests of the seed-1 ops")
	flag.StringVar(&goldenPath, "golden", "mbistperf/testdata/golden.json", "golden digest file -update-golden writes")
	flag.BoolVar(&probe, "setup-probe", false, "set up, print the wall clock in ns and exit (used to measure setup_s)")
	flag.Parse()
	if trace != 0 && trace != 1 {
		log.Fatalf("-trace %d: want 0 or 1", trace)
	}
	cfg.Trace = trace == 1
	ctx := context.Background()

	switch {
	case compare:
		if flag.NArg() != 2 {
			log.Fatal("-compare takes two files: parent.json change.json")
		}
		worse, err := runCompare(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			log.Fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	case updateGolden:
		if err := writeGolden(ctx, goldenPath); err != nil {
			log.Fatal(err)
		}
	case probe:
		if err := probeSetup(cfg); err != nil {
			log.Fatal(err)
		}
	case cfg.Workload == "all":
		if !runAll(cfg, out) {
			os.Exit(1)
		}
	case cfg.Workload == "":
		log.Fatal("no -workload given (see -h)")
	default:
		rec, err := runOne(ctx, cfg)
		if err != nil {
			log.Fatal(err)
		}
		if out != "" {
			if err := appendOut(out, rec); err != nil {
				log.Fatal(err)
			}
		}
		if !printResult(rec) {
			os.Exit(1)
		}
	}
}

// printResult prints the metrics as a table, then the result line, and
// reports whether the run was correct.
func printResult(rec *runRecord) bool {
	defs := endToEndMetrics
	if rec.Trace {
		defs = perLayerMetrics
	}
	fmt.Printf("%s seed %d: %d ops, %d failed\n", rec.Workload, rec.Seed, rec.Attempted, rec.Failed)
	for _, o := range rec.Ops {
		if o.Error != "" {
			fmt.Printf("  op %d (%s): %s\n", o.Index, o.Key, o.Error)
		}
	}
	for _, d := range defs {
		fmt.Printf("  %-42s %14.6g %s\n", d.Name, rec.Metrics[d.Name].Value, d.Unit)
	}
	line, err := json.Marshal(rec.result)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(line))
	return rec.Correct
}

// runAll runs every workload in a child process of its own, in order,
// and reports whether all of them succeeded.
func runAll(cfg runConfig, out string) bool {
	self, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	ok := true
	for _, name := range workloadNames {
		args := []string{"-workload", name, "-seed", strconv.FormatInt(cfg.Seed, 10),
			"-seconds", strconv.Itoa(cfg.Seconds), "-scale", cfg.Scale, "-out", out, "-trace-out", cfg.TraceOut}
		if cfg.Trace {
			args = append(args, "-trace", "1")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "mbistperf: %s: %v\n", name, err)
			ok = false
		}
	}
	return ok
}
