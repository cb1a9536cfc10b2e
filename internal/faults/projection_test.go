package faults

import (
	"sort"
	"testing"
)

// supportClass keys a projected batch: one support, one fault kind
// (class -1 mixes every kind of the support).
type supportClass struct {
	words [2]int32
	n     int
	class int
}

// TestReplayProjectedMatchesWhole is the exactness property of
// support-sliced replay at the replay level: a batch of faults sharing
// one support, localised onto a 1–2-word memory and replayed against
// the stream projected onto those words, must give every lane the
// verdict whole-stream replay on the full memory gives it. Batches are
// drawn per fault kind and mixed, on random streams with multiport
// interleaved reads (every SOF lane depends on UOpSense), pauses and
// far-apart sampled coupling pairs.
func TestReplayProjectedMatchesWhole(t *testing.T) {
	geometries := []struct {
		size, width, ports int
		uopts              UniverseOpts
	}{
		{8, 1, 1, UniverseOpts{}},
		{6, 2, 2, UniverseOpts{Ports: 2}},
		{16, 4, 2, UniverseOpts{Ports: 2, CellSample: 12, CouplingPairs: 40, AddrSample: 6, Seed: 3}},
	}
	for gi, g := range geometries {
		cs := buildTestStream(t, g.size, g.width, g.ports, int64(gi+7), 400, true)
		if err := cs.GoodMachineErr(); err != nil {
			t.Fatalf("test stream: %v", err)
		}
		groups := map[supportClass][]Fault{}
		for _, f := range Universe(g.size, g.width, g.uopts) {
			words, n := Support(f, g.width)
			c := int(f.Kind)
			groups[supportClass{words, n, c}] = append(groups[supportClass{words, n, c}], f)
			groups[supportClass{words, n, -1}] = append(groups[supportClass{words, n, -1}], f)
		}
		keys := make([]supportClass, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			a, b := keys[i], keys[j]
			if a.words != b.words {
				return a.words[0] < b.words[0] || a.words[0] == b.words[0] && a.words[1] < b.words[1]
			}
			return a.class < b.class
		})
		var buf []UOp
		for _, k := range keys {
			for _, np := range []int{1, 2} {
				pool := groups[k]
				for start := 0; start < len(pool); start += BatchLimit(np) {
					batch := pool[start:min(start+BatchLimit(np), len(pool))]
					whole := NewLaneInjectedPlanes(g.size, g.width, g.ports, np, batch)
					var want [MaxPlanes]uint64
					_, err := whole.Replay(cs, &want)
					if err != nil {
						t.Fatalf("whole replay: %v", err)
					}
					words := k.words[:k.n]
					local := make([]Fault, len(batch))
					for i, f := range batch {
						local[i] = Localize(f, g.width, words)
					}
					lm := NewLaneInjectedPlanes(2, g.width, g.ports, np, local)
					var got [MaxPlanes]uint64
					buf, err = lm.ReplayProjected(cs, words, buf, &got)
					if err != nil {
						t.Fatalf("projected replay on %v: %v", words, err)
					}
					for i, f := range batch {
						l := i + 1
						if gd, wd := got[l>>6]>>uint(l&63)&1, want[l>>6]>>uint(l&63)&1; gd != wd {
							t.Fatalf("%dx%d/%dp np=%d words %v: %v (local %v) projected detected=%d, whole-stream %d",
								g.size, g.width, g.ports, np, words, f, local[i], gd, wd)
						}
					}
				}
			}
		}
	}
}

// TestUOpSenseMatchesReadLanes pins UOpSense to the latch semantics of
// a real read of fault-free cells, on five batches of different fault
// mechanisms: retention, sense latch, coupling, decoder and a mix. The
// stream writes words 0 and 1 on a 2×2 memory, reads word 1, then word
// 0; its projection onto word 0 stands for the word-1 read with a
// UOpSense.
// An SOF lane on word 0 re-delivers what that read sensed, so it is
// detected only if replay loads the latch; a DRF lane must not be
// detected, because the stream has no pause and a replay that took the
// UOpSense for one would leak the cell.
func TestUOpSenseMatchesReadLanes(t *testing.T) {
	const width, ports = 2, 1
	ops := []UOp{
		{Kind: UOpWrite, Addr: 0, Cell: 0, Data: 0b00},
		{Kind: UOpWrite, Addr: 1, Cell: 2, Data: 0b11},
		{Kind: UOpRead, Addr: 1, Cell: 2, Data: 0b11},
		{Kind: UOpRead, Addr: 0, Cell: 0, Data: 0b00},
	}
	cs, err := NewCompiledStream(2, width, ports, ops)
	if err != nil {
		t.Fatal(err)
	}
	proj := cs.Project([]int32{0}, nil)
	if len(proj) != 3 || proj[1].Kind != UOpSense || proj[1].Data != 0b11 {
		t.Fatalf("projection onto word 0 = %+v, want write, sense 0b11, read", proj)
	}

	// The latch a UOpSense loads equals the one a read leaves behind.
	sof := []Fault{{Kind: SOF, Cell: 0, Port: AnyPort}}
	read := NewLaneInjectedPlanes(2, width, ports, 2, sof)
	read.Write(0, 1, 0b11)
	read.ReadLanes(0, 1, nil)
	sensed := NewLaneInjectedPlanes(2, width, ports, 2, sof)
	sensed.loadLatch(0, 0b11)
	for i, v := range read.senseLatch[0] {
		if sensed.senseLatch[0][i] != v {
			t.Fatalf("latch slot %d: UOpSense loaded %#x, a read left %#x", i, sensed.senseLatch[0][i], v)
		}
	}

	sof0 := Fault{Kind: SOF, Cell: 0, Port: AnyPort}
	drf1 := Fault{Kind: DRF, Cell: 0, Value: true, Port: AnyPort}
	cases := []struct {
		batch []Fault
		want  []bool // per fault: detected
	}{
		{[]Fault{drf1}, []bool{false}},
		{[]Fault{sof0}, []bool{true}},
		{[]Fault{drf1, {Kind: CFid, Aggressor: 0, Cell: 1, AggVal: true, Value: true, Port: AnyPort}}, []bool{false, false}},
		{[]Fault{{Kind: AFNone, Addr: 0, Port: AnyPort}}, []bool{false}},
		{[]Fault{sof0, drf1, {Kind: AFNone, Addr: 0, Port: AnyPort}}, []bool{true, false, false}},
	}
	for _, c := range cases {
		whole := NewLaneInjected(2, width, ports, c.batch)
		var want [MaxPlanes]uint64
		if _, err := whole.Replay(cs, &want); err != nil {
			t.Fatal(err)
		}
		lm := NewLaneInjected(1, width, ports, c.batch)
		var got [MaxPlanes]uint64
		if _, err := lm.ReplayProjected(cs, []int32{0}, nil, &got); err != nil {
			t.Fatal(err)
		}
		for i, f := range c.batch {
			l := uint(i + 1)
			if d := got[0]>>l&1 == 1; d != c.want[i] || d != (want[0]>>l&1 == 1) {
				t.Errorf("batch %v: %v projected detected=%v, whole-stream %v, want %v",
					c.batch, f, d, want[0]>>l&1 == 1, c.want[i])
			}
		}
	}
}

// TestGoodMachineErr pins the whole-stream fault-free check a compiled
// stream carries: a wrong expected read anywhere is reported, with the
// first offending µop.
func TestGoodMachineErr(t *testing.T) {
	ops := []UOp{
		{Kind: UOpWrite, Addr: 3, Cell: 3, Data: 1},
		{Kind: UOpRead, Addr: 3, Cell: 3, Data: 1},
		{Kind: UOpPause},
		{Kind: UOpRead, Addr: 5, Cell: 5, Data: 1}, // never written: holds 0
	}
	cs, err := NewCompiledStream(8, 1, 1, ops)
	if err != nil {
		t.Fatal(err)
	}
	if cs.GoodMachineErr() == nil {
		t.Fatal("wrong expected read at addr 5 not reported")
	}
	ops[3].Data = 0
	if cs, _ = NewCompiledStream(8, 1, 1, ops); cs.GoodMachineErr() != nil {
		t.Fatalf("consistent stream reported: %v", cs.GoodMachineErr())
	}
	if _, err := NewCompiledStream(8, 1, 1, []UOp{{Kind: UOpSense}}); err == nil {
		t.Error("NewCompiledStream accepted a UOpSense")
	}
}
