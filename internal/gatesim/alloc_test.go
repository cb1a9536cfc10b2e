package gatesim_test

import (
	"testing"

	"repro/internal/gatesim"
	"repro/internal/netlist"
	"repro/internal/raceflag"
)

// TestWordSimSettleZeroAlloc pins the zero-allocation steady state of
// the word-simulator settle path on a real controller netlist: once
// constructed, a force / evaluate / read / clear cycle must not
// allocate. A regression here shows up as allocs-per-op growth in
// BenchmarkLogicBISTWordParallel.
func TestWordSimSettleZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc pins need a non-race build")
	}
	nl := controllerNetlists(t)[0]
	ws, err := gatesim.NewWord(nl)
	if err != nil {
		t.Fatal(err)
	}
	inputs := nl.Inputs()
	outputs := nl.Outputs()
	var sink uint64
	cycle := func() {
		for k, id := range inputs {
			ws.ForceLane(id, k+1, k&1 == 0)
		}
		ws.Eval()
		for _, id := range outputs {
			sink ^= ws.Get(id)
		}
		ws.ClearForces()
	}
	cycle() // warm the forcedNets list to steady-state capacity

	if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
		t.Errorf("settle path allocates %.1f objects per cycle in steady state, want 0", avg)
	}
	_ = sink
}

// TestWordSimStepZeroAlloc extends the pin to the clocked path: Step
// (settle, capture, update, settle) must also be allocation-free.
func TestWordSimStepZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc pins need a non-race build")
	}
	nl := netlist.New("stepalloc")
	a := nl.AddInput("a")
	q := nl.AddFF(netlist.CellDFF, nl.Inv(a), false)
	nl.AddOutput("f", nl.And2(a, q))
	ws, err := gatesim.NewWord(nl)
	if err != nil {
		t.Fatal(err)
	}
	ws.Step()
	if avg := testing.AllocsPerRun(50, func() {
		ws.SetWord(a, 0xdeadbeef)
		ws.Step()
	}); avg != 0 {
		t.Errorf("Step allocates %.1f objects per cycle, want 0", avg)
	}
}
