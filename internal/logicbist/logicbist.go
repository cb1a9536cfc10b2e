// Package logicbist grades the testability of the BIST controllers'
// own logic — the paper's §3 discussion: the controller must itself be
// testable, and the two programmable architectures differ in how their
// storage units are exercised (scan-only registers "could be used as a
// set of stimulus test points to test the entire memory BIST unit",
// versus random logic BIST over the FSM architecture's functional-clock
// register file).
//
// The model is standard full-scan random-pattern logic BIST: every
// flip-flop is scan-controllable and scan-observable, so each random
// pattern assigns all primary inputs and flip-flop outputs
// (pseudo-inputs) and observes all primary outputs and flip-flop D
// inputs (pseudo-outputs). Faults are single stuck-at-0/1 on every
// driven net.
//
// The model treats every flip-flop as full scan, whatever its cell:
// a scan-only storage cell (CellSODFF) is graded exactly like a
// full-scan register. Full-scan and scan-only microcode controllers
// therefore enumerate the same faults and reach the same coverage, and
// the model cannot yet price the paper's scan-only storage (its
// observation O1) in testability.
//
// Two fault-simulation engines grade the same model: the bit-parallel
// default packs the good machine and up to 63 faulty machines into the
// 64 lanes of a gatesim.WordSimulator (PPSFP), while the serial engine
// re-settles the netlist once per fault per pattern. Both produce
// identical Results for the same seed; the serial engine remains as the
// cross-check oracle and benchmark baseline.
package logicbist

import (
	"fmt"
	"math/rand"

	"repro/internal/gatesim"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// Fault is a single stuck-at fault on a net.
type Fault struct {
	Net     netlist.NetID
	StuckAt bool
}

// EnumerateFaults lists stuck-at-0 and stuck-at-1 on every primary
// input and every instance output — the collapsed-enough fault list a
// logic BIST grading uses.
func EnumerateFaults(nl *netlist.Netlist) []Fault {
	var fs []Fault
	add := func(id netlist.NetID) {
		fs = append(fs, Fault{Net: id, StuckAt: false}, Fault{Net: id, StuckAt: true})
	}
	for _, id := range nl.Inputs() {
		add(id)
	}
	for _, inst := range nl.Instances() {
		add(inst.Out)
	}
	return fs
}

// Result reports a random-pattern fault-grading run.
type Result struct {
	Faults   int
	Detected int
	Patterns int
	// CumulativeDetected[i] is the detected-fault count after pattern
	// i+1 — the logic-BIST coverage curve.
	CumulativeDetected []int
}

// Coverage returns the final fault coverage in [0,1].
func (r *Result) Coverage() float64 {
	if r.Faults == 0 {
		return 1
	}
	return float64(r.Detected) / float64(r.Faults)
}

func (r *Result) String() string {
	return fmt.Sprintf("%d/%d stuck-at faults detected (%.1f%%) with %d random patterns",
		r.Detected, r.Faults, 100*r.Coverage(), r.Patterns)
}

// scanAccess computes the controllable and observable net sets under
// full scan: primary inputs and flip-flop outputs are controllable,
// primary outputs and flip-flop D inputs are observable.
func scanAccess(nl *netlist.Netlist) (controls, observes []netlist.NetID, err error) {
	controls = append(controls, nl.Inputs()...)
	observes = append(observes, nl.Outputs()...)
	for _, inst := range nl.Instances() {
		if inst.Kind.IsSequential() {
			controls = append(controls, inst.Out)
			observes = append(observes, inst.In[0])
		}
	}
	if len(controls) == 0 || len(observes) == 0 {
		return nil, nil, fmt.Errorf("logicbist: netlist %s has no scan test access", nl.Name)
	}
	return controls, observes, nil
}

// RandomPatternCoverage grades the netlist's combinational logic under
// full-scan random-pattern BIST: patterns random patterns are applied
// to primary inputs and flip-flop outputs, and fault effects are
// observed at primary outputs and flip-flop D inputs.
//
// Faults are simulated 63 at a time on a 64-lane bit-parallel
// WordSimulator: lane 0 carries the good machine and each remaining
// lane a faulty machine with its fault net force-masked to the stuck
// value. One settle pass therefore replaces up to 63 serial re-settles,
// and detected faults drop out of the pending set after every pattern
// so later batches stay densely packed. The result is bit-identical to
// RandomPatternCoverageSerial for the same seed.
func RandomPatternCoverage(nl *netlist.Netlist, patterns int, seed int64) (*Result, error) {
	sim, err := gatesim.NewWord(nl)
	if err != nil {
		return nil, err
	}
	controls, observes, err := scanAccess(nl)
	if err != nil {
		return nil, err
	}

	faults := EnumerateFaults(nl)
	res := &Result{Faults: len(faults), Patterns: patterns}
	detected := make([]bool, len(faults))

	// Forcing a controllable net corrupts its stored word in the forced
	// lanes; ctrlIdx maps those nets back to their pattern value for the
	// post-batch restore (-1: not controllable). A flat slice, because
	// the restore loop runs once per fault per batch.
	ctrlIdx := make([]int, nl.NumNets()+1)
	for i := range ctrlIdx {
		ctrlIdx[i] = -1
	}
	for i, id := range controls {
		ctrlIdx[id] = i
	}

	// pending holds the indices of still-undetected faults in
	// enumeration order, compacted in place as faults drop out.
	pending := make([]int, len(faults))
	for i := range pending {
		pending[i] = i
	}

	const faultLanes = gatesim.Lanes - 1 // lane 0 is the good machine

	// Metrics: pattern and batch counts plus the faults-per-batch
	// distribution, which shows how well detection drop-out keeps the
	// fault lanes occupied, and the running count of faults retired
	// from the pending set. Nil no-op instruments when disabled.
	reg := obs.Active()
	mPatterns := reg.Counter("logicbist.patterns")
	mBatches := reg.Counter("logicbist.batches")
	mBatchFaults := reg.Span("logicbist.batch_faults")
	mDetected := reg.Counter("logicbist.detected")
	mDropped := reg.Counter("logicbist.faults_dropped")

	rng := rand.New(rand.NewSource(seed))
	vals := make([]bool, len(controls))
	for p := 0; p < patterns; p++ {
		// Apply one random pattern, broadcast across all lanes. The RNG
		// draw order matches the serial engine exactly.
		for i, id := range controls {
			vals[i] = rng.Intn(2) == 1
			sim.Set(id, vals[i])
		}
		mPatterns.Add(1)

		for start := 0; start < len(pending); start += faultLanes {
			batch := pending[start:min(start+faultLanes, len(pending))]
			mBatches.Add(1)
			mBatchFaults.Observe(int64(len(batch)))
			for k, fi := range batch {
				sim.ForceLane(faults[fi].Net, k+1, faults[fi].StuckAt)
			}
			sim.Eval()
			// A lane detects its fault when any observable differs from
			// the good machine in lane 0.
			var diff uint64
			for _, id := range observes {
				w := sim.Get(id)
				diff |= w ^ -(w & 1) // -(w&1) replicates lane 0 into all lanes
			}
			for k, fi := range batch {
				if diff>>uint(k+1)&1 == 1 {
					detected[fi] = true
					res.Detected++
				}
			}
			sim.ClearForces()
			// Restore controllable words corrupted by forcing; driven
			// nets recover on the next settle by themselves.
			for _, fi := range batch {
				if ci := ctrlIdx[faults[fi].Net]; ci >= 0 {
					sim.Set(faults[fi].Net, vals[ci])
				}
			}
		}

		// Fault dropping: retire every fault this pattern detected so the
		// next pattern's batches pack only live faults into fresh lanes.
		live := pending[:0]
		for _, fi := range pending {
			if !detected[fi] {
				live = append(live, fi)
			}
		}
		mDropped.Add(int64(len(pending) - len(live)))
		pending = live
		res.CumulativeDetected = append(res.CumulativeDetected, res.Detected)
	}
	mDetected.Add(int64(res.Detected))
	return res, nil
}

// RandomPatternCoverageSerial is the one-fault-at-a-time reference
// engine: the whole netlist is re-settled per fault per pattern. It
// exists as the oracle the bit-parallel engine is cross-checked against
// and as the benchmark baseline; results are bit-identical to
// RandomPatternCoverage for the same seed.
func RandomPatternCoverageSerial(nl *netlist.Netlist, patterns int, seed int64) (*Result, error) {
	sim, err := gatesim.New(nl)
	if err != nil {
		return nil, err
	}
	controls, observes, err := scanAccess(nl)
	if err != nil {
		return nil, err
	}

	faults := EnumerateFaults(nl)
	res := &Result{Faults: len(faults), Patterns: patterns}
	detected := make([]bool, len(faults))

	ctrlIdx := make(map[netlist.NetID]int, len(controls))
	for i, id := range controls {
		ctrlIdx[id] = i
	}

	rng := rand.New(rand.NewSource(seed))
	good := make([]bool, len(observes))
	vals := make([]bool, len(controls))
	for p := 0; p < patterns; p++ {
		// Apply one random pattern.
		for i, id := range controls {
			vals[i] = rng.Intn(2) == 1
			sim.Set(id, vals[i])
		}
		sim.Eval()
		for i, id := range observes {
			good[i] = sim.Get(id)
		}

		// Serial fault simulation against the good responses.
		for fi, f := range faults {
			if detected[fi] {
				continue
			}
			sim.Force(f.Net, f.StuckAt)
			sim.Eval()
			for i, id := range observes {
				if sim.Get(id) != good[i] {
					detected[fi] = true
					res.Detected++
					break
				}
			}
			sim.Unforce(f.Net)
			// Only a forced controllable keeps its clobbered value past
			// the next settle; driven nets recover by themselves.
			if ci, ok := ctrlIdx[f.Net]; ok {
				sim.Set(f.Net, vals[ci])
			}
		}
		res.CumulativeDetected = append(res.CumulativeDetected, res.Detected)
	}
	return res, nil
}
