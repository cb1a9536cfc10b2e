package march

import (
	"testing"

	"repro/internal/memory"
)

// TestFullStreamMatchesOpStreamPlusPauses: stripping the pause entries
// from FullStream must recover OpStreamPorts exactly, and the number of
// pause entries must be Pauses() per background per port.
func TestFullStreamMatchesOpStreamPlusPauses(t *testing.T) {
	for _, algf := range []func() Algorithm{MarchC, MarchCPlus, MarchG, MarchA} {
		alg := algf()
		size, width, ports := 6, 2, 2
		full := FullStream(alg, size, width, ports, false)
		var stripped []StreamOp
		pauses := 0
		for _, op := range full {
			if op.Pause {
				pauses++
				continue
			}
			stripped = append(stripped, op)
		}
		want := OpStreamPorts(alg, size, width, ports)
		if len(stripped) != len(want) {
			t.Fatalf("%s: stripped FullStream has %d ops, OpStreamPorts %d", alg.Name, len(stripped), len(want))
		}
		for i := range want {
			if stripped[i] != want[i] {
				t.Fatalf("%s: op %d differs: %+v vs %+v", alg.Name, i, stripped[i], want[i])
			}
		}
		wantPauses := alg.Pauses() * len(Backgrounds(width)) * ports
		if pauses != wantPauses {
			t.Errorf("%s: %d pause entries, want %d", alg.Name, pauses, wantPauses)
		}
		// Both expansions are allocated once, at their exact length.
		if cap(full) != len(full) || cap(want) != len(want) {
			t.Errorf("%s: FullStream len %d cap %d, OpStreamPorts len %d cap %d",
				alg.Name, len(full), cap(full), len(want), cap(want))
		}
	}
}

// TestRecorderCapturesReferenceRun: driving the reference runner over a
// Recorder-wrapped fault-free memory must capture exactly FullStream —
// the property the lane-parallel grading engine's stream guard relies
// on.
func TestRecorderCapturesReferenceRun(t *testing.T) {
	for _, tc := range []struct {
		width, ports int
	}{{1, 1}, {2, 1}, {1, 2}, {2, 2}} {
		for _, algf := range []func() Algorithm{MarchC, MarchCPlus, MarchSS} {
			alg := algf()
			size := 5
			rec := &Recorder{Mem: memory.NewSRAM(size, tc.width, tc.ports)}
			res, err := Run(alg, rec, RunOpts{
				MaxFails:         1,
				SinglePort:       tc.ports == 1,
				SingleBackground: tc.width == 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Detected() {
				t.Fatalf("%s: fault-free run detected a fail", alg.Name)
			}
			want := FullStream(alg, size, tc.width, tc.ports, tc.width == 1)
			if len(rec.Ops) != len(want) {
				t.Fatalf("%s %dx%d/%dp: captured %d ops, want %d",
					alg.Name, size, tc.width, tc.ports, len(rec.Ops), len(want))
			}
			for i := range want {
				if rec.Ops[i] != want[i] {
					t.Fatalf("%s: op %d captured %+v, want %+v", alg.Name, i, rec.Ops[i], want[i])
				}
			}
		}
	}
}

// TestRecorderForwardsGeometry: the wrapper must present the inner
// memory's geometry unchanged.
func TestRecorderForwardsGeometry(t *testing.T) {
	rec := &Recorder{Mem: memory.NewSRAM(8, 4, 2)}
	if rec.Size() != 8 || rec.Width() != 4 || rec.Ports() != 2 {
		t.Errorf("recorder geometry %dx%d/%dp, want 8x4/2p", rec.Size(), rec.Width(), rec.Ports())
	}
}

// TestStreamCursorYieldsFullStream: the cursor must yield FullStream op
// for op and then stop, on every library algorithm, with and without
// the single-background restriction, on one and two ports.
func TestStreamCursorYieldsFullStream(t *testing.T) {
	for name := range Library() {
		alg, _ := ByName(name)
		for _, g := range []struct{ size, width, ports int }{{1, 1, 1}, {5, 1, 2}, {6, 4, 1}, {3, 2, 3}} {
			for _, single := range []bool{true, false} {
				want := FullStream(alg, g.size, g.width, g.ports, single)
				c := NewStreamCursor(alg, g.size, g.width, g.ports, single)
				for i, w := range want {
					if got, ok := c.Next(); !ok || got != w {
						t.Fatalf("%s %v single=%v: op %d is %+v (ok %v), want %+v", name, g, single, i, got, ok, w)
					}
				}
				if got, ok := c.Next(); ok {
					t.Fatalf("%s %v single=%v: cursor runs past the %d-op stream: %+v", name, g, single, len(want), got)
				}
			}
		}
	}
	if _, ok := NewStreamCursor(Algorithm{Name: "empty"}, 4, 1, 1, true).Next(); ok {
		t.Error("empty algorithm yielded an op")
	}
}
