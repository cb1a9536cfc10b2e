package mbist

// Paired benchmarks for the two fault-simulation fast paths: the
// bit-parallel (64-lane PPSFP) logic-BIST engine versus the serial
// oracle, and the worker-pool functional-fault grading versus the
// serial path. The bodies live in internal/benchsuite so that
// cmd/mbistbench — the CI regression gate — measures exactly the same
// workloads. Run with
//
//	go test -bench='LogicBIST|Grade' -benchtime=1x
//
// or regenerate the machine-readable snapshot with
//
//	go run ./cmd/mbistbench -out BENCH_pr3.json

import (
	"testing"

	"repro/internal/benchsuite"
	"repro/internal/obs"
)

func BenchmarkLogicBISTSerial(b *testing.B)       { benchsuite.LogicBISTSerial(b) }
func BenchmarkLogicBISTWordParallel(b *testing.B) { benchsuite.LogicBISTWordParallel(b) }
func BenchmarkGradeSerial(b *testing.B)           { benchsuite.GradeSerial(b) }
func BenchmarkGradeParallel(b *testing.B)         { benchsuite.GradeParallel(b) }
func BenchmarkGradeLane(b *testing.B)             { benchsuite.GradeLane(b) }
func BenchmarkGradeLaneParallel(b *testing.B)     { benchsuite.GradeLaneParallel(b) }

// MetricsOn variants quantify the observability overhead budget: with
// the obs registry enabled, the parallel engines must stay within 2%
// of their uninstrumented counterparts (DESIGN.md "Observability").
func BenchmarkLogicBISTWordParallelMetricsOn(b *testing.B) {
	obs.Enable()
	defer obs.Disable()
	benchsuite.LogicBISTWordParallel(b)
}

func BenchmarkGradeParallelMetricsOn(b *testing.B) {
	obs.Enable()
	defer obs.Disable()
	benchsuite.GradeParallel(b)
}

func BenchmarkGradeLaneMetricsOn(b *testing.B) {
	benchsuite.GradeLaneMetricsOn(b)
}

// BenchmarkGradeSharded measures the 4-shard sweep path (grade slices,
// merge states, rebuild report) against BenchmarkGradeLane's unsharded
// baseline — the overhead mbistd pays for distributable sweeps.
func BenchmarkGradeSharded(b *testing.B) {
	benchsuite.GradeSharded(b)
}
