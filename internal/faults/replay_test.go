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

// interpretedReplay drives the same µops through the public
// Write/ReadLanes/Pause path — the reference the kernels must match.
func interpretedReplay(m *LaneInjected, cs *CompiledStream) ([MaxPlanes]uint64, bool) {
	var fail [MaxPlanes]uint64
	np, width := m.Planes(), m.Width()
	var reads []uint64
	for i := range cs.ops {
		op := &cs.ops[i]
		switch op.Kind {
		case UOpWrite:
			m.Write(int(op.Port), int(op.Addr), op.Data)
		case UOpRead:
			reads = m.ReadLanes(int(op.Port), int(op.Addr), reads[:0])
			s := 0
			for bit := 0; bit < width; bit++ {
				exp := -(op.Data >> uint(bit) & 1)
				for p := 0; p < np; p++ {
					fail[p] |= reads[s] ^ exp
					s++
				}
			}
			if fail[0]&1 != 0 {
				return fail, false
			}
		default:
			m.Pause()
		}
	}
	return fail, true
}

// kernelClass partitions fault kinds the way the coverage layer packs
// batches: each class admits one specialized kernel.
func kernelClass(k Kind) (int, Kernel) {
	switch k {
	case SOF, RDF, DRDF:
		return 1, KernelLatch
	case CFin, CFid, CFst:
		return 2, KernelCoupling
	case AFNone, AFMap, AFMulti:
		return 3, KernelAF
	default: // SA, TF, WDF, IRF, DRF
		return 0, KernelMask
	}
}

// TestReplayKernelsMatchInterpreted is the core compiled-replay
// equivalence property: for every mechanism class (each selecting its
// specialized kernel) and for mixed batches (the general catch-all),
// Replay must produce the same per-lane verdicts as the interpreted
// Write/ReadLanes path, across geometries and plane counts.
func TestReplayKernelsMatchInterpreted(t *testing.T) {
	geometries := []struct {
		size, width, ports int
	}{
		{8, 1, 1},
		{4, 2, 2},
	}
	for _, g := range geometries {
		universe := Universe(g.size, g.width, UniverseOpts{Ports: g.ports})
		cs := testStream(t, g.size, g.width, g.ports, int64(g.size*100+g.ports), 300)

		// Per-class batches select their specialized kernel; a whole
		// universe chunk mixes classes and must fall back to general.
		byClass := make(map[int][]Fault)
		wantKernel := make(map[int]Kernel)
		for _, f := range universe {
			c, k := kernelClass(f.Kind)
			byClass[c] = append(byClass[c], f)
			wantKernel[c] = k
		}
		byClass[4] = universe
		wantKernel[4] = KernelGeneral

		for _, np := range []int{1, 2, 4} {
			limit := BatchLimit(np)
			for class, pool := range byClass {
				for start := 0; start < len(pool); start += limit {
					end := min(start+limit, len(pool))
					batch := pool[start:end]

					arena := NewLaneInjectedPlanes(g.size, g.width, g.ports, np, batch)
					if got := arena.Kernel(); got != wantKernel[class] && class != 4 {
						t.Fatalf("class %d batch: kernel %v, want %v (caps %b)",
							class, got, wantKernel[class], arena.Caps())
					}
					var fail [MaxPlanes]uint64
					if _, err := arena.Replay(cs, &fail); err != nil {
						t.Fatalf("class %d np=%d replay: %v", class, np, err)
					}

					ref := NewLaneInjectedPlanes(g.size, g.width, g.ports, np, batch)
					want, ok := interpretedReplay(ref, cs)
					if !ok {
						t.Fatalf("class %d np=%d: interpreted replay lost the good machine", class, np)
					}

					for i := range batch {
						l := i + 1
						got := fail[l>>6]>>uint(l&63)&1 == 1
						exp := want[l>>6]>>uint(l&63)&1 == 1
						if got != exp {
							t.Fatalf("%dx%d/%dp np=%d class %d: lane %d (%s) detected=%v, interpreted %v",
								g.size, g.width, g.ports, np, class, l, batch[i], got, exp)
						}
					}
				}
			}
		}
	}
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
	}
	if _, err := NewCompiledStream(8, 2, 2, []UOp{valid, {Kind: UOpPause}}); err != nil {
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
