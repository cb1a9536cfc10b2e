package mbist

import (
	"context"

	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/netlist"
)

// Table is an area comparison table (paper Tables 1-3).
type Table = core.Table

// Observations quantifies the paper's four concluding observations.
type Observations = core.Observations

// Table1 regenerates the structure of the paper's Table 1: the size of
// every BIST method for a bit-oriented single-port memory.
func Table1() (*Table, error) { return core.Table1(&netlist.CMOS5SLike) }

// Table2 regenerates the paper's Table 2: word-oriented and multiport
// memories.
func Table2() (*Table, error) { return core.Table2(&netlist.CMOS5SLike) }

// Table3 regenerates the paper's Table 3: the microcode-based
// controller with scan-only storage cells.
func Table3() (*Table, error) { return core.Table3(&netlist.CMOS5SLike) }

// MeasureObservations computes the paper's four observations from the
// regenerated tables.
func MeasureObservations() (*Observations, error) {
	return core.Measure(&netlist.CMOS5SLike)
}

// LifecycleCost compares one programmable controller against per-stage
// hardwired controllers across the memory's test life cycle.
type LifecycleCost = core.LifecycleCost

// MeasureLifecycle sizes the lifecycle comparison (paper §1's "overall
// test logic overhead" claim).
func MeasureLifecycle() (*LifecycleCost, error) {
	return core.MeasureLifecycle(&netlist.CMOS5SLike)
}

// LoadCost models the scan-programming cost of a microcode controller
// with the given storage capacity running the algorithm.
type LoadCost = core.LoadCost

// MicrocodeLoadCost computes the scan-load cost for an algorithm and
// storage size.
func MicrocodeLoadCost(alg Algorithm, slots int) (LoadCost, error) {
	return core.MicrocodeLoadCost(alg, slots)
}

// CoverageReport is a fault-coverage grading result.
type CoverageReport = coverage.Report

// CoverageOptions configures fault-coverage grading.
type CoverageOptions = coverage.Options

// CoverageState is the resumable progress of a grading run, produced
// by CoverageOptions.Checkpoint and consumed by CoverageOptions.Resume.
type CoverageState = coverage.State

// GradeCoverage runs the algorithm against the functional fault
// universe on the selected architecture.
func GradeCoverage(alg Algorithm, arch Architecture, opts CoverageOptions) (*CoverageReport, error) {
	return coverage.Grade(alg, arch, opts)
}

// GradeCoverageContext is GradeCoverage with cancellation: workers
// stop at the next fault (or batch) boundary once ctx is done and the
// valid partial report is returned alongside the context's error.
func GradeCoverageContext(ctx context.Context, alg Algorithm, arch Architecture, opts CoverageOptions) (*CoverageReport, error) {
	return coverage.GradeContext(ctx, alg, arch, opts)
}

// CoverageMatrix renders a fault-kind × algorithm coverage table.
func CoverageMatrix(algs []Algorithm, arch Architecture, opts CoverageOptions) (string, error) {
	return coverage.Matrix(algs, arch, opts)
}
