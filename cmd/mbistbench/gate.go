package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"testing"
)

// Schema identifies the machine-readable benchmark report format. Bump
// on incompatible changes; the loader keeps accepting older snapshots
// as long as they carry benchmarks.{name}.ns_per_op (the hand-rolled
// pre-schema BENCH_pr1.json already does).
const Schema = "mbist-bench/2"

// Entry is one benchmark's measurement.
type Entry struct {
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Iterations  int                `json:"iterations,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Report is the schema-versioned benchmark snapshot BENCH_pr*.json
// files carry from PR 2 on.
type Report struct {
	Schema     string             `json:"schema"`
	Generated  string             `json:"generated"`
	Go         string             `json:"go"`
	Host       string             `json:"host"`
	Gomaxprocs int                `json:"gomaxprocs,omitempty"`
	Benchtime  string             `json:"benchtime"`
	Benchmarks map[string]Entry   `json:"benchmarks"`
	Speedups   map[string]float64 `json:"speedups,omitempty"`
}

// AddResult records one testing.Benchmark result.
func (r *Report) AddResult(name string, br testing.BenchmarkResult) {
	e := Entry{
		NsPerOp:     float64(br.NsPerOp()),
		BytesPerOp:  br.AllocedBytesPerOp(),
		AllocsPerOp: br.AllocsPerOp(),
		Iterations:  br.N,
	}
	if len(br.Extra) > 0 {
		e.Extra = make(map[string]float64, len(br.Extra))
		for k, v := range br.Extra {
			e.Extra[k] = v
		}
	}
	r.Benchmarks[name] = e
}

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadBaseline reads a BENCH_*.json in either the schema-versioned
// format or the PR-1 hand-rolled one — both carry
// benchmarks.{name}.ns_per_op, which is all the gate compares.
func LoadBaseline(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("baseline %s carries no benchmarks", path)
	}
	return &rep, nil
}

var hostCPUs = regexp.MustCompile(`(\d+) CPU`)

// Procs returns the GOMAXPROCS the snapshot was measured at: its
// gomaxprocs field, or for older snapshots the CPU count in its host
// string ("linux/amd64, 1 CPU"), which was what GOMAXPROCS defaulted
// to. 0 means unknown.
func (r *Report) Procs() int {
	if r.Gomaxprocs > 0 {
		return r.Gomaxprocs
	}
	if m := hostCPUs.FindStringSubmatch(r.Host); m != nil {
		n, _ := strconv.Atoi(m[1])
		return n
	}
	return 0
}

// Regression is one benchmark metric that exceeded the tolerated
// growth: Metric is "ns_per_op" or "allocs_per_op".
type Regression struct {
	Name     string
	Metric   string
	Baseline float64
	Current  float64
	Ratio    float64
}

// Gate compares current measurements against a baseline: a benchmark
// regresses when current/baseline ns/op exceeds tolerance, and — with
// the same tolerance — when its allocations per op grow past the
// baseline's (only for baselines that record a positive allocs_per_op;
// an alloc-free baseline entry of 0 cannot form a ratio and older
// snapshots may predate alloc tracking). Benchmarks missing from
// either side are skipped (baselines predating a new benchmark stay
// usable). Returns the regressions and the names compared, both sorted
// by name for deterministic output.
func Gate(current, baseline map[string]Entry, tolerance float64) (regressions []Regression, compared []string) {
	names := make([]string, 0, len(current))
	for name := range current {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		base, ok := baseline[name]
		if !ok || base.NsPerOp <= 0 {
			continue
		}
		compared = append(compared, name)
		ratio := current[name].NsPerOp / base.NsPerOp
		if ratio > tolerance {
			regressions = append(regressions, Regression{
				Name:     name,
				Metric:   "ns_per_op",
				Baseline: base.NsPerOp,
				Current:  current[name].NsPerOp,
				Ratio:    ratio,
			})
		}
		if base.AllocsPerOp > 0 {
			aratio := float64(current[name].AllocsPerOp) / float64(base.AllocsPerOp)
			if aratio > tolerance {
				regressions = append(regressions, Regression{
					Name:     name,
					Metric:   "allocs_per_op",
					Baseline: float64(base.AllocsPerOp),
					Current:  float64(current[name].AllocsPerOp),
					Ratio:    aratio,
				})
			}
		}
	}
	return regressions, compared
}
