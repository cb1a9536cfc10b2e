package gatesim_test

import (
	"testing"

	"repro/internal/gatesim"
	"repro/internal/netlist"
)

// fuzzBytes hands out the fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fuzzNetlist builds an acyclic netlist from the fuzz bytes: 1–8
// primary inputs, 0–3 flip-flops of every sequential kind, and 1–64
// gates over every combinational cell kind, each reading the inputs,
// the constants, the flip-flop outputs or an earlier gate. Flip-flop D
// inputs close sequential loops over any of those nets.
func fuzzNetlist(b *fuzzBytes) *netlist.Netlist {
	nl := netlist.New("fuzz")
	var pool []netlist.NetID
	for i, n := 0, 1+b.next()%8; i < n; i++ {
		pool = append(pool, nl.AddInput(string(rune('a'+i))))
	}
	pool = append(pool, nl.Const0(), nl.Const1())
	var ffs []netlist.NetID
	for i, n := 0, b.next()%4; i < n; i++ {
		kind := []netlist.CellKind{netlist.CellDFF, netlist.CellSDFF, netlist.CellSODFF}[b.next()%3]
		ffs = append(ffs, nl.AddFF(kind, nl.Const0(), b.next()&1 == 1))
	}
	pool = append(pool, ffs...)
	for i, n := 0, 1+b.next()%64; i < n; i++ {
		kind := netlist.CellKind(b.next() % int(netlist.CellMux2+1))
		in := make([]netlist.NetID, kind.NumInputs())
		for k := range in {
			in[k] = pool[b.next()%len(pool)]
		}
		pool = append(pool, nl.Add(kind, in...))
	}
	for _, q := range ffs {
		nl.SetFFInput(q, pool[b.next()%len(pool)])
	}
	nl.AddOutput("f", pool[len(pool)-1])
	return nl
}

// FuzzWordSimMatchesScalar checks the 64-lane settle kernel against the
// scalar Simulator: on a fuzz-built netlist, lanes 1..n (n ≤ 63) each
// carry one stuck-at force, every lane gets its own input stimulus, and
// after every Step each net of each lane must equal a scalar Simulator
// with the same force and stimulus. Releasing the forces must then keep
// the lanes in step for one more cycle.
func FuzzWordSimMatchesScalar(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 0, 1, 1, 0, 20, 8, 0, 1, 2, 4, 2, 3, 5, 0, 6, 4, 7, 1, 5, 30, 1, 17, 3, 2, 9, 4})
	f.Add([]byte{7, 3, 2, 1, 0, 0, 1, 1, 63, 0, 1, 1, 2, 3, 2, 4, 5, 3, 6, 7, 4, 8, 9, 5, 10, 11, 6, 12, 13, 7, 14, 15, 8, 16, 17, 18, 63, 5, 200, 1, 100, 0, 50, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		nl := fuzzNetlist(&b)
		ws, err := gatesim.NewWord(nl)
		if err != nil {
			t.Fatal(err)
		}
		nets := nl.NumNets()
		type force struct {
			net netlist.NetID
			v   bool
		}
		forces := make([]force, b.next()%gatesim.Lanes)
		for i := range forces {
			forces[i] = force{netlist.NetID(1 + b.next()%nets), b.next()&1 == 1}
		}
		scalar := make([]*gatesim.Simulator, gatesim.Lanes)
		for lane := range scalar {
			if scalar[lane], err = gatesim.New(nl); err != nil {
				t.Fatal(err)
			}
		}
		for i, fc := range forces {
			ws.ForceLane(fc.net, i+1, fc.v)
			scalar[i+1].Force(fc.net, fc.v)
		}

		check := func(when string) {
			t.Helper()
			for lane, s := range scalar {
				for id := netlist.NetID(1); int(id) <= nets; id++ {
					if ws.GetLane(id, lane) != s.Get(id) {
						t.Fatalf("%s: lane %d net %s: word=%v scalar=%v",
							when, lane, nl.NetName(id), ws.GetLane(id, lane), s.Get(id))
					}
				}
			}
		}
		step := func() {
			for _, id := range nl.Inputs() {
				var w uint64
				for k := 0; k < 8; k++ {
					w = w<<8 | uint64(b.next())
				}
				ws.SetWord(id, w)
				for lane, s := range scalar {
					s.Set(id, w>>uint(lane)&1 == 1)
				}
			}
			ws.Step()
			for _, s := range scalar {
				s.Step()
			}
		}
		for cycle, n := 0, 1+b.next()%4; cycle < n; cycle++ {
			step()
			check("forced")
		}
		ws.ClearForces()
		for i, fc := range forces {
			scalar[i+1].Unforce(fc.net)
		}
		step()
		check("released")
	})
}
