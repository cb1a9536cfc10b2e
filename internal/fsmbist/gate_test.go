package fsmbist

import (
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/gatesim"
	"repro/internal/march"
	"repro/internal/memory"
)

func buildUnit(t *testing.T, alg march.Algorithm, addrBits, width int) (*Hardware, *Program) {
	t.Helper()
	p, err := Compile(alg, CompileOpts{WordOriented: width > 1, Multiport: true})
	if err != nil {
		t.Fatal(err)
	}
	hw, err := BuildHardware(p, HWConfig{
		Slots: p.Len(), AddrBits: addrBits, Width: width, Ports: 1,
		IncludeDatapath: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return hw, p
}

// TestGateLevelClosedLoop runs the complete programmable FSM-based BIST
// unit — circular buffer, synthesised 7-state lower controller, op
// decode and datapath — closed-loop against a memory and compares the
// observed operation stream with the realized algorithm's canonical
// stream.
func TestGateLevelClosedLoop(t *testing.T) {
	cases := []struct {
		alg   march.Algorithm
		width int
	}{
		{march.MATSPlus(), 1},
		{march.MarchC(), 1},
		{march.MarchA(), 1},
		{march.MarchB(), 1}, // decomposed element
		{march.MarchC(), 4}, // background loop
	}
	const addrBits = 3
	size := 1 << addrBits
	for _, c := range cases {
		t.Run(c.alg.Name, func(t *testing.T) {
			hw, p := buildUnit(t, c.alg, addrBits, c.width)
			mem := memory.NewSRAM(size, c.width, 1)
			want := march.OpStream(p.Realized, size, c.width)

			res, err := gatesim.RunBISTUnit(hw.Netlist, mem, 20*len(want)+500)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Ended {
				t.Fatalf("unit did not raise test_end in %d cycles (%d/%d ops)",
					res.Cycles, len(res.Ops), len(want))
			}
			if res.Detected() {
				t.Fatalf("comparator flagged a clean memory at %v", res.MismatchAddrs)
			}
			if len(res.Ops) != len(want) {
				t.Fatalf("unit issued %d ops, want %d", len(res.Ops), len(want))
			}
			for i := range want {
				got := res.Ops[i]
				if got.Write != want[i].Write || got.Addr != want[i].Addr || got.Data != want[i].Data {
					t.Fatalf("op %d: gate %+v, golden %+v", i, got, want[i])
				}
			}
		})
	}
}

// TestGateLevelMultiport exercises the port loop-back (path B of
// Fig. 4(b)) and the checking-condition register at gate level.
func TestGateLevelMultiport(t *testing.T) {
	const addrBits, width, ports = 3, 2, 2
	size := 1 << addrBits
	alg := march.MarchC()
	p, err := Compile(alg, CompileOpts{WordOriented: true, Multiport: true})
	if err != nil {
		t.Fatal(err)
	}
	hw, err := BuildHardware(p, HWConfig{
		Slots: p.Len(), AddrBits: addrBits, Width: width, Ports: ports,
		IncludeDatapath: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	mem := memory.NewSRAM(size, width, ports)
	want := march.OpStreamPorts(p.Realized, size, width, ports)
	res, err := gatesim.RunBISTUnit(hw.Netlist, mem, 20*len(want)+500)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ended || res.Detected() {
		t.Fatalf("clean multiport run: ended=%v mismatches=%v (%d/%d ops)",
			res.Ended, res.MismatchAddrs, len(res.Ops), len(want))
	}
	if len(res.Ops) != len(want) {
		t.Fatalf("unit issued %d ops, want %d", len(res.Ops), len(want))
	}
	for i := range want {
		got := res.Ops[i]
		if got.Write != want[i].Write || got.Port != want[i].Port ||
			got.Addr != want[i].Addr || got.Data != want[i].Data {
			t.Fatalf("op %d: gate %+v, golden %+v", i, got, want[i])
		}
	}
}

func TestGateLevelDetectsFault(t *testing.T) {
	const addrBits = 3
	size := 1 << addrBits
	alg := march.MarchC()
	f := faults.Fault{Kind: faults.TF, Cell: 2, Value: true, Port: faults.AnyPort}

	hw, p := buildUnit(t, alg, addrBits, 1)
	mem := faults.NewInjected(size, 1, 1, f)
	res, err := gatesim.RunBISTUnit(hw.Netlist, mem, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ended || !res.Detected() {
		t.Fatalf("ended=%v detected=%v", res.Ended, res.Detected())
	}

	oracle := faults.NewInjected(size, 1, 1, f)
	want, err := march.Run(p.Realized, oracle, march.RunOpts{SinglePort: true, SingleBackground: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MismatchAddrs) != len(want.Fails) {
		t.Fatalf("gate mismatches %d, oracle fails %d", len(res.MismatchAddrs), len(want.Fails))
	}
	for i, addr := range res.MismatchAddrs {
		if addr != want.Fails[i].Addr {
			t.Errorf("mismatch %d at addr %d, oracle at %d", i, addr, want.Fails[i].Addr)
		}
	}
}

// TestGateLevelHoldingProgramsEnd runs every retention-pause algorithm
// closed-loop at gate level, with and without a delay timer: a holding
// program must release its hold (from the timer, or from the delay_done
// input the harness drives high) and issue exactly its realised stream.
func TestGateLevelHoldingProgramsEnd(t *testing.T) {
	const addrBits = 3
	size := 1 << addrBits
	algs := []march.Algorithm{
		march.MarchCPlus(), march.MarchCPlusPlus(),
		march.MarchAPlus(), march.MarchAPlusPlus(), march.MarchG(),
	}
	for _, alg := range algs {
		for _, width := range []int{1, 4} {
			for _, timer := range []int{0, 8} {
				t.Run(fmt.Sprintf("%s/%dx%d/timer%d", alg.Name, size, width, timer), func(t *testing.T) {
					p, err := Compile(alg, CompileOpts{WordOriented: width > 1, Multiport: true})
					if err != nil {
						t.Fatal(err)
					}
					if p.Realized.Pauses() == 0 {
						t.Fatalf("%s compiled without a pause", alg.Name)
					}
					hw, err := BuildHardware(p, HWConfig{
						Slots: p.Len(), AddrBits: addrBits, Width: width, Ports: 1,
						IncludeDatapath: true, DelayTimerBits: timer,
					})
					if err != nil {
						t.Fatal(err)
					}
					want := march.OpStream(p.Realized, size, width)
					budget := 20*len(want) + 500*(1+p.Realized.Pauses())
					res, err := gatesim.RunBISTUnit(hw.Netlist, memory.NewSRAM(size, width, 1), budget)
					if err != nil {
						t.Fatal(err)
					}
					if !res.Ended {
						t.Fatalf("unit did not raise test_end in %d cycles (%d/%d ops)",
							res.Cycles, len(res.Ops), len(want))
					}
					if res.Detected() {
						t.Fatalf("comparator flagged a clean memory at %v", res.MismatchAddrs)
					}
					if len(res.Ops) != len(want) {
						t.Fatalf("unit issued %d ops, want %d", len(res.Ops), len(want))
					}
					for i := range want {
						got := res.Ops[i]
						if got.Write != want[i].Write || got.Addr != want[i].Addr || got.Data != want[i].Data {
							t.Fatalf("op %d: gate %+v, golden %+v", i, got, want[i])
						}
					}
				})
			}
		}
	}
}
