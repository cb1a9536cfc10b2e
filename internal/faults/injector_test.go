package faults

import (
	"math"
	"strings"
	"testing"

	"repro/internal/memory"
)

func TestNoFaultsBehavesLikeSRAM(t *testing.T) {
	inj := NewInjected(32, 4, 2)
	ref := memory.NewSRAM(32, 4, 2)
	ops := []struct {
		port, addr int
		data       uint64
	}{
		{0, 3, 0xA}, {1, 3, 0x5}, {0, 31, 0xF}, {1, 0, 0x1},
	}
	for _, op := range ops {
		inj.Write(op.port, op.addr, op.data)
		ref.Write(op.port, op.addr, op.data)
	}
	inj.Pause()
	ref.Pause()
	if !memory.Equal(inj, ref) {
		t.Error("fault-free injected memory diverged from SRAM")
	}
}

func TestStuckAt(t *testing.T) {
	m := NewInjected(8, 1, 1, Fault{Kind: SA, Cell: 3, Value: true, Port: AnyPort})
	m.Write(0, 3, 0)
	if got := m.Read(0, 3); got != 1 {
		t.Errorf("SA1 cell reads %d after w0", got)
	}
	m2 := NewInjected(8, 1, 1, Fault{Kind: SA, Cell: 3, Value: false, Port: AnyPort})
	m2.Write(0, 3, 1)
	if got := m2.Read(0, 3); got != 0 {
		t.Errorf("SA0 cell reads %d after w1", got)
	}
	// Neighbours unaffected.
	m2.Write(0, 2, 1)
	if got := m2.Read(0, 2); got != 1 {
		t.Errorf("neighbour of SA0 cell corrupted: %d", got)
	}
}

func TestTransitionFault(t *testing.T) {
	// ⟨↑⟩: cell cannot rise.
	m := NewInjected(8, 1, 1, Fault{Kind: TF, Cell: 2, Value: true, Port: AnyPort})
	m.Write(0, 2, 0)
	m.Write(0, 2, 1) // blocked
	if got := m.Read(0, 2); got != 0 {
		t.Errorf("TF-up cell rose: %d", got)
	}
	// ⟨↓⟩: cannot fall. Must first get the cell to 1 — initial state is
	// 0 so the 0->1 write works, then 1->0 is blocked.
	m2 := NewInjected(8, 1, 1, Fault{Kind: TF, Cell: 2, Value: false, Port: AnyPort})
	m2.Write(0, 2, 1)
	if got := m2.Read(0, 2); got != 1 {
		t.Fatalf("TF-down cell failed to rise: %d", got)
	}
	m2.Write(0, 2, 0) // blocked
	if got := m2.Read(0, 2); got != 1 {
		t.Errorf("TF-down cell fell: %d", got)
	}
}

func TestCouplingInversion(t *testing.T) {
	// Rising aggressor (cell 1) inverts victim (cell 4).
	m := NewInjected(8, 1, 1, Fault{Kind: CFin, Aggressor: 1, Cell: 4, AggVal: true, Port: AnyPort})
	m.Write(0, 4, 0)
	m.Write(0, 1, 1) // rise: victim inverts to 1
	if got := m.Read(0, 4); got != 1 {
		t.Errorf("CFin victim = %d after aggressor rise, want 1", got)
	}
	m.Write(0, 1, 0) // falling edge: no effect
	if got := m.Read(0, 4); got != 1 {
		t.Errorf("CFin victim changed on falling aggressor")
	}
	m.Write(0, 1, 1) // rise again: invert back to 0
	if got := m.Read(0, 4); got != 0 {
		t.Errorf("CFin victim = %d after second rise, want 0", got)
	}
	// Re-writing the aggressor to the same value is no transition.
	m.Write(0, 1, 1)
	if got := m.Read(0, 4); got != 0 {
		t.Errorf("CFin triggered without transition")
	}
}

func TestCouplingIdempotent(t *testing.T) {
	// Falling aggressor forces victim to 1.
	m := NewInjected(8, 1, 1, Fault{Kind: CFid, Aggressor: 0, Cell: 7, AggVal: false, Value: true, Port: AnyPort})
	m.Write(0, 0, 1)
	m.Write(0, 7, 0)
	m.Write(0, 0, 0) // fall: victim forced to 1
	if got := m.Read(0, 7); got != 1 {
		t.Errorf("CFid victim = %d, want 1", got)
	}
	m.Write(0, 7, 0)
	m.Write(0, 0, 0) // no transition
	if got := m.Read(0, 7); got != 0 {
		t.Errorf("CFid fired without transition")
	}
}

func TestCouplingState(t *testing.T) {
	// While aggressor (cell 2) holds 1, victim (cell 5) is forced to 0.
	m := NewInjected(8, 1, 1, Fault{Kind: CFst, Aggressor: 2, Cell: 5, AggVal: true, Value: false, Port: AnyPort})
	m.Write(0, 2, 1)
	m.Write(0, 5, 1) // write lands, then state coupling pulls it down
	if got := m.Read(0, 5); got != 0 {
		t.Errorf("CFst victim = %d with aggressor=1, want 0", got)
	}
	m.Write(0, 2, 0)
	m.Write(0, 5, 1)
	if got := m.Read(0, 5); got != 1 {
		t.Errorf("CFst active with aggressor=0")
	}
}

func TestStuckOpen(t *testing.T) {
	m := NewInjected(8, 1, 1, Fault{Kind: SOF, Cell: 3, Port: AnyPort})
	m.Write(0, 3, 1)
	m.Write(0, 2, 0)
	m.Read(0, 2) // sense amp now holds 0
	if got := m.Read(0, 3); got != 0 {
		t.Errorf("SOF read = %d, want sense-amp value 0", got)
	}
	m.Write(0, 4, 1)
	m.Read(0, 4) // sense amp now holds 1
	if got := m.Read(0, 3); got != 1 {
		t.Errorf("SOF read = %d, want sense-amp value 1", got)
	}
}

func TestDataRetention(t *testing.T) {
	m := NewInjected(8, 1, 1, Fault{Kind: DRF, Cell: 6, Value: false, Port: AnyPort})
	m.Write(0, 6, 1)
	if got := m.Read(0, 6); got != 1 {
		t.Fatalf("DRF cell lost data without pause")
	}
	m.Pause()
	if got := m.Read(0, 6); got != 0 {
		t.Errorf("DRF cell holds %d after pause, want 0", got)
	}
}

func TestReadDisturb(t *testing.T) {
	m := NewInjected(8, 1, 1, Fault{Kind: RDF, Cell: 1, Value: true, Port: AnyPort})
	m.Write(0, 1, 0)
	if got := m.Read(0, 1); got != 0 {
		t.Errorf("RDF first read = %d", got)
	}
	if got := m.Read(0, 1); got != 0 {
		t.Errorf("RDF second read = %d", got)
	}
	if got := m.Read(0, 1); got != 1 {
		t.Errorf("RDF third read = %d, want disturbed 1", got)
	}
	// A write resets the accumulation.
	m.Write(0, 1, 0)
	if got := m.Read(0, 1); got != 0 {
		t.Errorf("RDF read after write = %d", got)
	}
}

func TestAddressDecoderNone(t *testing.T) {
	m := NewInjected(8, 1, 1, Fault{Kind: AFNone, Addr: 5, Port: AnyPort})
	m.Write(0, 5, 1)
	if got := m.Read(0, 5); got != 0 {
		t.Errorf("AFnone read = %d, want floating 0", got)
	}
	// Neighbours unaffected.
	m.Write(0, 4, 1)
	if got := m.Read(0, 4); got != 1 {
		t.Errorf("AFnone corrupted neighbour")
	}
}

func TestAddressDecoderMap(t *testing.T) {
	m := NewInjected(8, 1, 1, Fault{Kind: AFMap, Addr: 2, AggAddr: 3, Port: AnyPort})
	m.Write(0, 2, 1) // actually writes cell 3
	if got := m.Read(0, 3); got != 1 {
		t.Errorf("AFmap write did not land on target: %d", got)
	}
	if got := m.Read(0, 2); got != 1 {
		t.Errorf("AFmap read did not come from target: %d", got)
	}
	m.Write(0, 3, 0)
	if got := m.Read(0, 2); got != 0 {
		t.Errorf("AFmap read decoupled from target")
	}
}

func TestAddressDecoderMulti(t *testing.T) {
	m := NewInjected(8, 1, 1, Fault{Kind: AFMulti, Addr: 1, AggAddr: 6, Port: AnyPort})
	m.Write(0, 1, 1) // writes cells 1 and 6
	if got := m.Read(0, 6); got != 1 {
		t.Errorf("AFmulti write missed second cell")
	}
	m.Write(0, 6, 0)
	// Read of addr 1 sees wired-AND of cell1(1) and cell6(0) = 0.
	if got := m.Read(0, 1); got != 0 {
		t.Errorf("AFmulti wired-AND read = %d, want 0", got)
	}
}

func TestPortSpecificFault(t *testing.T) {
	m := NewInjected(8, 1, 2, Fault{Kind: SA, Cell: 4, Value: true, Port: 1})
	m.Write(0, 4, 0)
	if got := m.Read(0, 4); got != 0 {
		t.Errorf("port-1 fault visible on port 0")
	}
	if got := m.Read(1, 4); got != 1 {
		t.Errorf("port-1 SA1 not visible on port 1: %d", got)
	}
}

func TestWordOrientedCellIndexing(t *testing.T) {
	// SA1 on bit 2 of word 3 in a 4-bit memory: cell = 3*4+2.
	m := NewInjected(8, 4, 1, Fault{Kind: SA, Cell: 3*4 + 2, Value: true, Port: AnyPort})
	m.Write(0, 3, 0x0)
	if got := m.Read(0, 3); got != 0b0100 {
		t.Errorf("word read = %04b, want 0100", got)
	}
	m.Write(0, 3, 0xF)
	if got := m.Read(0, 3); got != 0xF {
		t.Errorf("word read = %04b, want 1111", got)
	}
}

func TestInjectPanics(t *testing.T) {
	for _, f := range []Fault{
		{Kind: SA, Cell: 99, Port: AnyPort},
		{Kind: CFin, Aggressor: 2, Cell: 2, Port: AnyPort},
		{Kind: AFNone, Addr: -1, Port: AnyPort},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("inject(%v) did not panic", f)
				}
			}()
			NewInjected(8, 1, 1, f)
		}()
	}
}

func TestFaultStrings(t *testing.T) {
	cases := []struct {
		f    Fault
		want string
	}{
		{Fault{Kind: SA, Cell: 3, Value: true, Port: AnyPort}, "SA1(c3)"},
		{Fault{Kind: TF, Cell: 1, Value: true, Port: AnyPort}, "TF<↑>(c1)"},
		{Fault{Kind: DRF, Cell: 2, Value: false, Port: 1}, "DRF0(c2)@p1"},
		{Fault{Kind: AFMap, Addr: 4, AggAddr: 5, Port: AnyPort}, "AFmap(a4->a5)"},
	}
	for _, c := range cases {
		if got := c.f.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	// Every kind renders something non-empty and distinct-ish.
	seen := make(map[string]bool)
	for k := Kind(0); k < numKinds; k++ {
		s := Fault{Kind: k, Port: AnyPort}.String()
		if s == "" || strings.HasPrefix(s, "fault(") {
			t.Errorf("kind %d has no rendering", k)
		}
		seen[s] = true
	}
	if len(seen) != int(numKinds) {
		t.Errorf("fault renderings collide: %d unique of %d", len(seen), numKinds)
	}
}

func TestWriteDisturb(t *testing.T) {
	// <0w0/↑>: writing 0 into a cell holding 0 flips it to 1.
	m := NewInjected(8, 1, 1, Fault{Kind: WDF, Cell: 2, Value: false, Port: AnyPort})
	m.Write(0, 2, 0) // non-transition write: cell flips
	if got := m.Read(0, 2); got != 1 {
		t.Errorf("WDF cell = %d after 0w0, want 1", got)
	}
	m.Write(0, 2, 0) // transition write 1->0: normal
	if got := m.Read(0, 2); got != 0 {
		t.Errorf("WDF cell = %d after transition write, want 0", got)
	}
}

func TestIncorrectRead(t *testing.T) {
	// <r0/-/1>: reading a 0 cell returns 1 but the cell keeps 0.
	m := NewInjected(8, 1, 1, Fault{Kind: IRF, Cell: 5, Value: false, Port: AnyPort})
	m.Write(0, 5, 0)
	if got := m.Read(0, 5); got != 1 {
		t.Errorf("IRF read = %d, want 1", got)
	}
	if m.CellState(5) {
		t.Error("IRF changed the cell state")
	}
	m.Write(0, 5, 1)
	if got := m.Read(0, 5); got != 1 {
		t.Errorf("IRF read of 1 cell = %d, want 1", got)
	}
}

func TestDeceptiveReadDestructive(t *testing.T) {
	// <r0/↑/0>: reading a 0 cell returns 0 but flips the cell to 1.
	m := NewInjected(8, 1, 1, Fault{Kind: DRDF, Cell: 4, Value: false, Port: AnyPort})
	m.Write(0, 4, 0)
	if got := m.Read(0, 4); got != 0 {
		t.Errorf("DRDF first read = %d, want deceptive 0", got)
	}
	if got := m.Read(0, 4); got != 1 {
		t.Errorf("DRDF second read = %d, want 1 (cell flipped)", got)
	}
}

func TestUniverseExhaustiveCounts(t *testing.T) {
	fs := Universe(4, 1, UniverseOpts{})
	// 4 cells * 15 single-cell faults + 3 neighbour pairs * 2 dirs * 8
	// coupling faults + 4 addrs * 3 AF faults.
	want := 4*15 + 6*8 + 4*3
	if len(fs) != want {
		t.Errorf("universe size = %d, want %d", len(fs), want)
	}
	// Determinism.
	fs2 := Universe(4, 1, UniverseOpts{})
	for i := range fs {
		if fs[i] != fs2[i] {
			t.Fatalf("universe not deterministic at %d", i)
		}
	}
	// Every fault injects cleanly.
	for _, f := range fs {
		NewInjected(4, 1, 1, f)
	}
}

func TestUniverseSampling(t *testing.T) {
	fs := Universe(64, 4, UniverseOpts{CellSample: 8, CouplingPairs: 10, AddrSample: 4, Seed: 1})
	want := 8*15 + 10*8 + 4*3
	if len(fs) != want {
		t.Errorf("sampled universe size = %d, want %d", len(fs), want)
	}
	for _, f := range fs {
		NewInjected(64, 4, 1, f)
	}
}

func TestUniversePortFaults(t *testing.T) {
	fs := Universe(4, 1, UniverseOpts{Ports: 2})
	n := 0
	for _, f := range fs {
		if f.Port == 1 {
			n++
		}
	}
	if n != 8 { // 4 cells * SA0/SA1
		t.Errorf("port-specific faults = %d, want 8", n)
	}
}

// TestUniversePresized pins that Universe allocates its fault slice
// once, at the exact fault count, for exhaustive, sampled, multiport
// and single-word geometries.
func TestUniversePresized(t *testing.T) {
	for _, c := range []struct {
		size, width int
		opts        UniverseOpts
	}{
		{16, 1, UniverseOpts{}},
		{8, 4, UniverseOpts{Ports: 3}},
		{64, 4, UniverseOpts{CellSample: 8, CouplingPairs: 10, AddrSample: 4, Seed: 1, Ports: 2}},
		{1, 1, UniverseOpts{}},
		{1, 8, UniverseOpts{}},
	} {
		fs := Universe(c.size, c.width, c.opts)
		if cap(fs) != len(fs) {
			t.Errorf("%dx%d %+v: %d faults in a slice of capacity %d", c.size, c.width, c.opts, len(fs), cap(fs))
		}
		if n := UniverseLen(c.size, c.width, c.opts); n != len(fs) {
			t.Errorf("%dx%d %+v: UniverseLen %d, Universe enumerates %d", c.size, c.width, c.opts, n, len(fs))
		}
	}
}

// TestUniverseLenSaturates pins UniverseLen's overflow guard: counts
// past math.MaxInt saturate instead of wrapping to small or negative
// values, and sampled coupling pairs are bounded by the ordered pairs
// that exist.
func TestUniverseLenSaturates(t *testing.T) {
	for _, c := range []struct {
		size, width int
		opts        UniverseOpts
		want        int
	}{
		{math.MaxInt / 2, 64, UniverseOpts{}, math.MaxInt},
		{1 << 58, 64, UniverseOpts{Ports: 256}, math.MaxInt},
		{1 << 40, 8, UniverseOpts{Ports: 2}, 15<<43 + 16<<43 - 16 + 16<<43 - 128 + 2<<43 + 3<<40},
		{1, 1, UniverseOpts{CouplingPairs: 10}, 15},
		{2, 1, UniverseOpts{CouplingPairs: 10}, 30 + 8*2 + 3*2},
		{0, 8, UniverseOpts{}, 0},
	} {
		if n := UniverseLen(c.size, c.width, c.opts); n != c.want {
			t.Errorf("UniverseLen(%d, %d, %+v) = %d, want %d", c.size, c.width, c.opts, n, c.want)
		}
	}
}
