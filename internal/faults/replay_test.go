package faults

import (
	"math/rand"
	"testing"
)

// testStream builds a deterministic pseudo-march µop sequence for one
// geometry: random writes, reads and pauses with the expected read
// values computed on a fault-free scalar machine. Long read runs occur
// often enough to decay RDF lanes and exercise sense-latch state.
func testStream(t *testing.T, size, width, ports int, seed int64, steps int) *CompiledStream {
	return buildTestStream(t, size, width, ports, seed, steps, false)
}

// buildTestStream is testStream, optionally opened by a write of every
// word (on port 0, random data) as a march test's first element is.
func buildTestStream(t *testing.T, size, width, ports int, seed int64, steps int, sweep bool) *CompiledStream {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	good := NewInjected(size, width, ports)
	mask := uint64(1)<<uint(width) - 1
	ops := make([]UOp, 0, steps+size)
	for addr := 0; sweep && addr < size; addr++ {
		data := rng.Uint64() & mask
		good.Write(0, addr, data)
		ops = append(ops, UOp{Kind: UOpWrite, Addr: int32(addr), Cell: int32(addr * width), Data: data})
	}
	for i := 0; i < steps; i++ {
		port := rng.Intn(ports)
		addr := rng.Intn(size)
		switch r := rng.Float64(); {
		case r < 0.40:
			data := rng.Uint64() & mask
			good.Write(port, addr, data)
			ops = append(ops, UOp{
				Kind: UOpWrite, Port: uint8(port), Addr: int32(addr),
				Cell: int32(addr * width), Data: data,
			})
		case r < 0.92:
			ops = append(ops, UOp{
				Kind: UOpRead, Port: uint8(port), Addr: int32(addr),
				Cell: int32(addr * width), Data: good.Read(port, addr),
			})
		default:
			good.Pause()
			ops = append(ops, UOp{Kind: UOpPause})
		}
	}
	cs, err := NewCompiledStream(size, width, ports, ops)
	if err != nil {
		t.Fatalf("compile test stream: %v", err)
	}
	return cs
}

// scalarDetects runs the stream's µops on a scalar Injected carrying
// only f and reports whether any read returned a wrong value: the
// oracle every replay lane must agree with.
func scalarDetects(cs *CompiledStream, f Fault) bool {
	m := NewInjected(cs.size, cs.width, cs.ports, f)
	detected := false
	for i := range cs.ops {
		op := &cs.ops[i]
		switch op.Kind {
		case UOpWrite:
			m.Write(int(op.Port), int(op.Addr), op.Data)
		case UOpRead:
			if m.Read(int(op.Port), int(op.Addr)) != op.Data {
				detected = true
			}
		default:
			m.Pause()
		}
	}
	return detected
}

// replayProjection replays cs projected onto words the way the
// coverage plan does: Project, compile the projection as a 2-word
// stream and Replay it on m, a 2-word memory carrying faults localised
// onto words.
func replayProjection(m *LaneInjected, cs *CompiledStream, words []int32, fail *[MaxPlanes]uint64) error {
	proj, err := NewCompiledStream(2, cs.width, cs.ports, cs.Project(words, nil))
	if err != nil {
		return err
	}
	_, err = m.Replay(proj, fail)
	return err
}

// laneDetected reports logical lane l's verdict in a fail mask.
func laneDetected(fail *[MaxPlanes]uint64, l int) bool {
	return fail[l>>6]>>uint(l&63)&1 == 1
}

// FuzzReplayMatchesScalar is the compiled-replay equivalence property:
// on a random µop stream over a small geometry, every fault's lane
// verdict from Replay (universe chunks that mix every kind) and from
// a projected replay (batches sharing one support, localised onto a
// 2-word memory replaying the support's projection; replayProjection)
// must equal a scalar Injected carrying only that fault
// and running the same µops. Inputs pick the stream seed, the geometry
// (1–8 words, width 1–4, 1–2 ports), the plane count (1, 2 or 4), the
// stream length and whether the stream opens with a write of every
// word.
func FuzzReplayMatchesScalar(f *testing.F) {
	// Long random streams detect almost every fault whatever the replay
	// does, so short ones (where a verdict hangs on a single read) seed
	// the corpus too.
	for _, g := range []struct{ size, width, ports uint8 }{{8, 1, 1}, {4, 2, 2}} {
		for planes := uint8(0); planes < 3; planes++ {
			for _, steps := range []uint16{300, 32} {
				f.Add(int64(g.size)*100+int64(g.ports), g.size, g.width, g.ports, planes, steps, false)
			}
			f.Add(int64(planes), g.size, g.width, g.ports, planes, uint16(16), true)
		}
	}
	f.Add(int64(7), uint8(6), uint8(2), uint8(2), uint8(1), uint16(400), true)
	f.Fuzz(func(t *testing.T, seed int64, size, width, ports, planes uint8, steps uint16, sweep bool) {
		// pick maps v onto [lo, hi], identically on values already there.
		pick := func(v uint8, lo, hi int) int {
			n := hi - lo + 1
			return lo + ((int(v)-lo)%n+n)%n
		}
		sz, w, np := pick(size, 1, 8), pick(width, 1, 4), []int{1, 2, 4}[planes%3]
		p := pick(ports, 1, 2)
		cs := buildTestStream(t, sz, w, p, seed, int(steps)%512, sweep)
		universe := Universe(sz, w, UniverseOpts{Ports: p})
		want := make(map[Fault]bool, len(universe))
		for _, flt := range universe {
			want[flt] = scalarDetects(cs, flt)
		}
		limit := BatchLimit(np)

		for start := 0; start < len(universe); start += limit {
			batch := universe[start:min(start+limit, len(universe))]
			m := NewLaneInjectedPlanes(sz, w, p, np, batch)
			var fail [MaxPlanes]uint64
			if _, err := m.Replay(cs, &fail); err != nil {
				t.Fatalf("replay: %v", err)
			}
			for i, flt := range batch {
				if got := laneDetected(&fail, i+1); got != want[flt] {
					t.Fatalf("%dx%d/%dp np=%d: %v replay detected=%v, scalar %v", sz, w, p, np, flt, got, want[flt])
				}
			}
		}

		type support struct {
			words [2]int32
			n     int
		}
		groups := map[support][]Fault{}
		var order []support
		for _, flt := range universe {
			words, n := Support(flt, w)
			k := support{words, n}
			if _, ok := groups[k]; !ok {
				order = append(order, k)
			}
			groups[k] = append(groups[k], flt)
		}
		local := NewLaneInjectedPlanes(2, w, p, np, nil)
		for _, k := range order {
			words := k.words[:k.n]
			pool := groups[k]
			for start := 0; start < len(pool); start += limit {
				batch := pool[start:min(start+limit, len(pool))]
				loc := make([]Fault, len(batch))
				for i, flt := range batch {
					loc[i] = Localize(flt, w, words)
				}
				local.ResetPlanes(loc, np)
				var fail [MaxPlanes]uint64
				if err := replayProjection(local, cs, words, &fail); err != nil {
					t.Fatalf("projected replay on %v: %v", words, err)
				}
				for i, flt := range batch {
					if got := laneDetected(&fail, i+1); got != want[flt] {
						t.Fatalf("%dx%d/%dp np=%d words %v: %v projected detected=%v, scalar %v",
							sz, w, p, np, words, flt, got, want[flt])
					}
				}
			}
		}
	})
}

// TestReplaySameBatchReset pins the re-injection skip: replaying the
// identical batch slice on the same arena (the cached-partition hot
// path) must give verdicts identical to a fresh arena, including when
// the active plane count shrinks below the arena's capacity.
func TestReplaySameBatchReset(t *testing.T) {
	const size, width, ports = 8, 1, 1
	universe := Universe(size, width, UniverseOpts{})
	cs := testStream(t, size, width, ports, 42, 300)

	arena := NewLaneInjectedPlanes(size, width, ports, MaxPlanes, nil)
	if arena.PlaneCap() != MaxPlanes {
		t.Fatalf("PlaneCap = %d, want %d", arena.PlaneCap(), MaxPlanes)
	}
	for _, np := range []int{1, 2, MaxPlanes} {
		batch := universe[:min(BatchLimit(np), len(universe))]
		var first, second [MaxPlanes]uint64
		arena.ResetPlanes(batch, np)
		if arena.Planes() != np {
			t.Fatalf("Planes = %d, want %d", arena.Planes(), np)
		}
		if !arena.SameBatch(batch) {
			t.Fatal("SameBatch false for the armed batch")
		}
		if _, err := arena.Replay(cs, &first); err != nil {
			t.Fatalf("np=%d first replay: %v", np, err)
		}
		// Second pass takes the same-batch fast path.
		arena.ResetPlanes(batch, np)
		if _, err := arena.Replay(cs, &second); err != nil {
			t.Fatalf("np=%d second replay: %v", np, err)
		}
		if first != second {
			t.Fatalf("np=%d: same-batch reset changed verdicts\nfirst  %x\nsecond %x", np, first, second)
		}

		fresh := NewLaneInjectedPlanes(size, width, ports, np, batch)
		var want [MaxPlanes]uint64
		if _, err := fresh.Replay(cs, &want); err != nil {
			t.Fatalf("np=%d fresh replay: %v", np, err)
		}
		for p := 0; p < np; p++ {
			occ := fresh.FaultMaskPlane(p)
			if first[p]&occ != want[p]&occ {
				t.Fatalf("np=%d plane %d: arena %x, fresh %x", np, p, first[p]&occ, want[p]&occ)
			}
		}
	}
}

// TestCompiledStreamValidation pins compile-time validation: the
// kernels skip per-op access checks, so NewCompiledStream must reject
// every malformed op.
func TestCompiledStreamValidation(t *testing.T) {
	valid := UOp{Kind: UOpWrite, Port: 0, Addr: 2, Cell: 4, Data: 3}
	cases := []struct {
		name string
		op   UOp
	}{
		{"bad opcode", UOp{Kind: 9}},
		{"port out of range", UOp{Kind: UOpRead, Port: 2, Addr: 0, Cell: 0}},
		{"addr out of range", UOp{Kind: UOpWrite, Addr: 8, Cell: 16}},
		{"negative addr", UOp{Kind: UOpWrite, Addr: -1, Cell: -2}},
		{"cell mismatch", UOp{Kind: UOpWrite, Addr: 1, Cell: 3}},
		{"data past width", UOp{Kind: UOpWrite, Addr: 1, Cell: 2, Data: 4}},
		{"sense port out of range", UOp{Kind: UOpSense, Port: 2, Data: 3}},
		{"sense data past width", UOp{Kind: UOpSense, Port: 1, Data: 4}},
	}
	if _, err := NewCompiledStream(8, 2, 2, []UOp{valid, {Kind: UOpPause}, {Kind: UOpSense, Port: 1, Data: 3}}); err != nil {
		t.Fatalf("valid stream rejected: %v", err)
	}
	for _, c := range cases {
		if _, err := NewCompiledStream(8, 2, 2, []UOp{valid, c.op}); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, err := NewCompiledStream(0, 1, 1, nil); err == nil {
		t.Error("bad geometry accepted")
	}

	// Geometry mismatch at replay time.
	cs, err := NewCompiledStream(8, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := NewLaneInjected(4, 1, 1, nil)
	var fail [MaxPlanes]uint64
	if _, err := m.Replay(cs, &fail); err == nil {
		t.Error("geometry mismatch accepted at replay")
	}
}
