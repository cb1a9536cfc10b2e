package faults

import (
	"math"
	"math/rand"
)

// UniverseOpts controls fault-universe generation.
type UniverseOpts struct {
	// CouplingPairs bounds the number of (aggressor, victim) pairs per
	// coupling fault family. Zero means every ordered neighbour pair
	// (cells i and i±1, plus word-adjacent cells for word-oriented
	// memories).
	CouplingPairs int
	// CellSample bounds the number of victim cells per single-cell fault
	// family (0 = every cell).
	CellSample int
	// AddrSample bounds the number of faulty addresses per decoder fault
	// family (0 = every address, paired with the next address).
	AddrSample int
	// Ports > 1 additionally generates port-specific stuck-at read
	// faults on ports 1..Ports-1.
	Ports int
	// Seed drives sampling; the same seed reproduces the same universe.
	Seed int64
}

// Universe enumerates a deterministic functional-fault universe for a
// memory of the given geometry. With zero-valued opts it is exhaustive
// over cells and neighbour coupling pairs — suitable for the small
// memories the coverage experiments use.
func Universe(size, width int, opts UniverseOpts) []Fault {
	rng := rand.New(rand.NewSource(opts.Seed))
	nCells := size * width
	// Draw cells, pairs and addresses first, in that order, so the
	// fault slice is allocated once at its exact length.
	cells := sampleInts(nCells, opts.CellSample, rng)
	pairs := couplingPairs(nCells, width, opts.CouplingPairs, rng)
	addrs := sampleInts(size, opts.AddrSample, rng)
	fs := make([]Fault, 0, UniverseLen(size, width, opts))

	for _, c := range cells {
		fs = append(fs,
			Fault{Kind: SA, Cell: c, Value: false, Port: AnyPort},
			Fault{Kind: SA, Cell: c, Value: true, Port: AnyPort},
			Fault{Kind: TF, Cell: c, Value: true, Port: AnyPort},  // ⟨↑⟩ cannot rise
			Fault{Kind: TF, Cell: c, Value: false, Port: AnyPort}, // ⟨↓⟩ cannot fall
			Fault{Kind: SOF, Cell: c, Port: AnyPort},
			Fault{Kind: DRF, Cell: c, Value: false, Port: AnyPort},
			Fault{Kind: DRF, Cell: c, Value: true, Port: AnyPort},
			Fault{Kind: RDF, Cell: c, Value: false, Port: AnyPort},
			Fault{Kind: RDF, Cell: c, Value: true, Port: AnyPort},
			Fault{Kind: WDF, Cell: c, Value: false, Port: AnyPort},
			Fault{Kind: WDF, Cell: c, Value: true, Port: AnyPort},
			Fault{Kind: IRF, Cell: c, Value: false, Port: AnyPort},
			Fault{Kind: IRF, Cell: c, Value: true, Port: AnyPort},
			Fault{Kind: DRDF, Cell: c, Value: false, Port: AnyPort},
			Fault{Kind: DRDF, Cell: c, Value: true, Port: AnyPort},
		)
	}

	for _, p := range pairs {
		agg, vic := p[0], p[1]
		fs = append(fs,
			Fault{Kind: CFin, Aggressor: agg, Cell: vic, AggVal: true, Port: AnyPort},
			Fault{Kind: CFin, Aggressor: agg, Cell: vic, AggVal: false, Port: AnyPort},
			Fault{Kind: CFid, Aggressor: agg, Cell: vic, AggVal: true, Value: false, Port: AnyPort},
			Fault{Kind: CFid, Aggressor: agg, Cell: vic, AggVal: true, Value: true, Port: AnyPort},
			Fault{Kind: CFid, Aggressor: agg, Cell: vic, AggVal: false, Value: false, Port: AnyPort},
			Fault{Kind: CFid, Aggressor: agg, Cell: vic, AggVal: false, Value: true, Port: AnyPort},
			Fault{Kind: CFst, Aggressor: agg, Cell: vic, AggVal: true, Value: false, Port: AnyPort},
			Fault{Kind: CFst, Aggressor: agg, Cell: vic, AggVal: true, Value: true, Port: AnyPort},
		)
	}

	for _, a := range addrs {
		other := (a + 1) % size
		if other == a {
			continue
		}
		fs = append(fs,
			Fault{Kind: AFNone, Addr: a, Port: AnyPort},
			Fault{Kind: AFMap, Addr: a, AggAddr: other, Port: AnyPort},
			Fault{Kind: AFMulti, Addr: a, AggAddr: other, Port: AnyPort},
		)
	}

	for p := 1; p < opts.Ports; p++ {
		for _, c := range cells {
			fs = append(fs,
				Fault{Kind: SA, Cell: c, Value: false, Port: p},
				Fault{Kind: SA, Cell: c, Value: true, Port: p},
			)
		}
	}
	return fs
}

// UniverseLen returns the number of faults Universe(size, width, opts)
// enumerates, without enumerating them: the count follows from the
// geometry and the sample bounds alone, never from the seed. It
// saturates at math.MaxInt instead of overflowing, so a caller can
// compare an absurd geometry against a budget safely.
func UniverseLen(size, width int, opts UniverseOpts) int {
	if size <= 0 || width <= 0 {
		return 0
	}
	nCells := satMul(size, width)
	cells := sampledLen(nCells, opts.CellSample)
	var pairs int
	if opts.CouplingPairs <= 0 {
		pairs = satMul(2, nCells-1)
		if width > 1 {
			pairs = satAdd(pairs, satMul(2, nCells-width))
		}
	} else {
		pairs = min(opts.CouplingPairs, satMul(nCells, nCells-1))
	}
	n := satAdd(satMul(15, cells), satMul(8, pairs))
	n = satAdd(n, satMul(satMul(2, max(opts.Ports-1, 0)), cells))
	if size > 1 {
		n = satAdd(n, satMul(3, sampledLen(size, opts.AddrSample)))
	}
	return n
}

// sampledLen is len(sampleInts(n, limit, ·)).
func sampledLen(n, limit int) int {
	if limit <= 0 || limit >= n {
		return n
	}
	return limit
}

// satMul and satAdd are non-negative multiplication and addition that
// saturate at math.MaxInt.
func satMul(a, b int) int {
	if a != 0 && b > math.MaxInt/a {
		return math.MaxInt
	}
	return a * b
}

func satAdd(a, b int) int {
	if a > math.MaxInt-b {
		return math.MaxInt
	}
	return a + b
}

func sampleInts(n, limit int, rng *rand.Rand) []int {
	if limit <= 0 || limit >= n {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	perm := rng.Perm(n)[:limit]
	return perm
}

// couplingPairs returns ordered (aggressor, victim) pairs. Exhaustive
// mode uses physical neighbours: bit-adjacent cells and word-adjacent
// cells (same bit lane, next word) in both directions.
func couplingPairs(nCells, width, limit int, rng *rand.Rand) [][2]int {
	if limit <= 0 {
		n := 2 * max(nCells-1, 0)
		if width > 1 {
			n += 2 * max(nCells-width, 0)
		}
		pairs := make([][2]int, 0, n)
		for c := 0; c < nCells; c++ {
			if c+1 < nCells {
				pairs = append(pairs, [2]int{c, c + 1}, [2]int{c + 1, c})
			}
			if width > 1 && c+width < nCells {
				pairs = append(pairs, [2]int{c, c + width}, [2]int{c + width, c})
			}
		}
		return pairs
	}
	var pairs [][2]int
	seen := make(map[[2]int]bool)
	for len(pairs) < limit && len(seen) < nCells*(nCells-1) {
		a, v := rng.Intn(nCells), rng.Intn(nCells)
		if a == v || seen[[2]int{a, v}] {
			continue
		}
		seen[[2]int{a, v}] = true
		pairs = append(pairs, [2]int{a, v})
	}
	return pairs
}
