package gatesim_test

// Engine-equivalence suite: the bit-parallel WordSimulator must agree
// with the scalar Simulator net for net, cycle for cycle, and report
// identical fault-detection sets — checked on the synthesised
// microcode- and FSM-controller netlists, the real workloads of the
// logic-BIST grading.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fsmbist"
	"repro/internal/gatesim"
	"repro/internal/march"
	"repro/internal/microbist"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// controllerNetlists synthesises the two programmable BIST controllers
// the paper's §3 testability discussion grades.
func controllerNetlists(t testing.TB) []*netlist.Netlist {
	t.Helper()
	mp, err := microbist.Assemble(march.MarchC(), microbist.AssembleOpts{WordOriented: true, Multiport: true})
	if err != nil {
		t.Fatal(err)
	}
	mhw, err := microbist.BuildHardware(mp, microbist.HWConfig{
		Slots: mp.Len(), AddrBits: 4, Width: 1, Ports: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	fp, err := fsmbist.Compile(march.MarchC(), fsmbist.CompileOpts{WordOriented: true, Multiport: true})
	if err != nil {
		t.Fatal(err)
	}
	fhw, err := fsmbist.BuildHardware(fp, fsmbist.HWConfig{
		Slots: fp.Len(), AddrBits: 4, Width: 1, Ports: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return []*netlist.Netlist{mhw.Netlist, fhw.Netlist}
}

// TestWordSimMatchesSerialPerCycle drives both engines through the same
// reset + random input sequence and asserts every net carries the same
// value in every one of the 64 lanes on every cycle.
func TestWordSimMatchesSerialPerCycle(t *testing.T) {
	for _, nl := range controllerNetlists(t) {
		t.Run(nl.Name, func(t *testing.T) {
			ser, err := gatesim.New(nl)
			if err != nil {
				t.Fatal(err)
			}
			ws, err := gatesim.NewWord(nl)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(21))
			compare := func(cycle int) {
				t.Helper()
				for id := netlist.NetID(1); id <= netlist.NetID(nl.NumNets()); id++ {
					want := ser.Get(id)
					w := ws.Get(id)
					var wantWord uint64
					if want {
						wantWord = ^uint64(0)
					}
					if w != wantWord {
						t.Fatalf("cycle %d net %s: serial=%v word=%#x", cycle, nl.NetName(id), want, w)
					}
				}
			}
			compare(-1) // post-reset state
			for cycle := 0; cycle < 24; cycle++ {
				for _, in := range nl.Inputs() {
					v := rng.Intn(2) == 1
					ser.Set(in, v)
					ws.Set(in, v)
				}
				ser.Eval()
				ws.Eval()
				compare(cycle)
				ser.Step()
				ws.Step()
				if ser.Cycles() != ws.Cycles() {
					t.Fatalf("cycle counters diverged: %d vs %d", ser.Cycles(), ws.Cycles())
				}
			}
		})
	}
}

// TestWordSimFaultDetectionMatchesSerial packs stuck-at faults 63 to a
// settle pass (lane 0 good, per-lane forced nets) and asserts the
// detected-fault set equals the one the scalar engine finds one fault
// at a time — on both controller netlists, under full-scan access.
func TestWordSimFaultDetectionMatchesSerial(t *testing.T) {
	for _, nl := range controllerNetlists(t) {
		t.Run(nl.Name, func(t *testing.T) {
			ser, err := gatesim.New(nl)
			if err != nil {
				t.Fatal(err)
			}
			ws, err := gatesim.NewWord(nl)
			if err != nil {
				t.Fatal(err)
			}

			// Full-scan access: inputs and FF outputs controllable,
			// outputs and FF D inputs observable.
			controls := append([]netlist.NetID(nil), nl.Inputs()...)
			observes := append([]netlist.NetID(nil), nl.Outputs()...)
			type fault struct {
				net netlist.NetID
				sa  bool
			}
			var faultList []fault
			for _, id := range nl.Inputs() {
				faultList = append(faultList, fault{id, false}, fault{id, true})
			}
			for _, inst := range nl.Instances() {
				if inst.Kind.IsSequential() {
					controls = append(controls, inst.Out)
					observes = append(observes, inst.In[0])
				}
				faultList = append(faultList, fault{inst.Out, false}, fault{inst.Out, true})
			}
			ctrlVal := make(map[netlist.NetID]bool, len(controls))

			rng := rand.New(rand.NewSource(5))
			for pattern := 0; pattern < 3; pattern++ {
				for _, id := range controls {
					v := rng.Intn(2) == 1
					ctrlVal[id] = v
					ser.Set(id, v)
					ws.Set(id, v)
				}
				ser.Eval()
				good := make([]bool, len(observes))
				for i, id := range observes {
					good[i] = ser.Get(id)
				}

				// Serial oracle: one force + settle per fault.
				serialDet := make([]bool, len(faultList))
				for fi, f := range faultList {
					ser.Force(f.net, f.sa)
					ser.Eval()
					for i, id := range observes {
						if ser.Get(id) != good[i] {
							serialDet[fi] = true
							break
						}
					}
					ser.Unforce(f.net)
					if v, ok := ctrlVal[f.net]; ok {
						ser.Set(f.net, v)
					}
				}

				// Word engine: 63 faults per settle.
				wordDet := make([]bool, len(faultList))
				for start := 0; start < len(faultList); start += gatesim.Lanes - 1 {
					end := start + gatesim.Lanes - 1
					if end > len(faultList) {
						end = len(faultList)
					}
					for k, f := range faultList[start:end] {
						ws.ForceLane(f.net, k+1, f.sa)
					}
					if got := ws.ForcedLanes(); got != end-start {
						t.Fatalf("batch %d: %d forced lanes, want %d", start, got, end-start)
					}
					ws.Eval()
					var diff uint64
					for _, id := range observes {
						w := ws.Get(id)
						diff |= w ^ -(w & 1)
					}
					for k := range faultList[start:end] {
						wordDet[start+k] = diff>>uint(k+1)&1 == 1
					}
					ws.ClearForces()
					for _, f := range faultList[start:end] {
						if v, ok := ctrlVal[f.net]; ok {
							ws.Set(f.net, v)
						}
					}
				}

				for fi, f := range faultList {
					if serialDet[fi] != wordDet[fi] {
						t.Fatalf("pattern %d: fault %s stuck-at-%v serial=%v word=%v",
							pattern, nl.NetName(f.net), f.sa, serialDet[fi], wordDet[fi])
					}
				}
			}
		})
	}
}

// TestWordSimLaneIndependence checks that distinct per-lane stimulus
// words evaluate exactly like 64 scalar simulations of a combinational
// block.
func TestWordSimLaneIndependence(t *testing.T) {
	nl := netlist.New("lanes")
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	c := nl.AddInput("c")
	nl.AddOutput("f", nl.Xor2(nl.And2(a, b), nl.Mux2(c, a, nl.Nor2(b, c))))
	ws, err := gatesim.NewWord(nl)
	if err != nil {
		t.Fatal(err)
	}
	ser, err := gatesim.New(nl)
	if err != nil {
		t.Fatal(err)
	}
	out := nl.Outputs()[0]
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		wa, wb, wc := rng.Uint64(), rng.Uint64(), rng.Uint64()
		ws.SetWord(a, wa)
		ws.SetWord(b, wb)
		ws.SetWord(c, wc)
		ws.Eval()
		for lane := 0; lane < gatesim.Lanes; lane++ {
			ser.Set(a, wa>>uint(lane)&1 == 1)
			ser.Set(b, wb>>uint(lane)&1 == 1)
			ser.Set(c, wc>>uint(lane)&1 == 1)
			ser.Eval()
			if ws.GetLane(out, lane) != ser.Get(out) {
				t.Fatalf("trial %d lane %d: word=%v serial=%v", trial, lane, ws.GetLane(out, lane), ser.Get(out))
			}
		}
	}
	// GetLane agrees with the word view.
	w := ws.Get(out)
	for lane := 0; lane < gatesim.Lanes; lane++ {
		if ws.GetLane(out, lane) != (w>>uint(lane)&1 == 1) {
			t.Fatal("GetLane disagrees with Get word")
		}
	}
	if s := fmt.Sprint(ws.Cycles()); s != "0" {
		t.Errorf("Eval advanced the cycle counter: %s", s)
	}
}

// TestLevelizationCacheHits pins the cross-simulator levelization
// cache: repeated construction over one netlist levelises once and
// counts a cache hit for every later build.
func TestLevelizationCacheHits(t *testing.T) {
	reg := obs.Enable()
	defer obs.Disable()

	nl := netlist.New("levcache")
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	nl.AddOutput("f", nl.And2(a, b))

	hits := func() int64 {
		for _, m := range reg.Snapshot() {
			if m.Name == "gatesim.levelization_cache_hits" {
				return m.Value
			}
		}
		return 0
	}

	if _, err := gatesim.New(nl); err != nil { // first build levelises
		t.Fatal(err)
	}
	base := hits()
	if _, err := gatesim.NewWord(nl); err != nil {
		t.Fatal(err)
	}
	if _, err := gatesim.New(nl); err != nil {
		t.Fatal(err)
	}
	if got := hits() - base; got != 2 {
		t.Errorf("levelization cache hits after 2 rebuilds = %d, want 2", got)
	}
}
