package coverage

import (
	"fmt"

	"repro/internal/artifact"
	"repro/internal/faults"
	"repro/internal/march"
)

// Cells and plans for the lane engine.
//
// Two faults are in one cell when their supports (the one or two words
// each can touch) have the same shape (supportShape) and their
// localised forms are equal. A support's projection of the stream
// (faults.CompiledStream.Project) depends only on its shape, and a
// lane's verdict on a projected replay depends on nothing but the
// projection and the localised fault, so one lane per cell decides
// every member under any march.
//
// Why the shape decides the projection: march.FullStream visits the
// addresses of every element in order, and its data depends only on
// the background and the port pass, never on the address. So the µops
// of a support's words interleave alike for every support of a shape,
// and a projected read is preceded by a sense exactly when the read
// before it on its port hit a word outside the support, which the
// shape decides too. A surrogate memory of min(size, surrogateWords)
// words holds a support of every shape the workload's memory has, and
// that support projects the surrogate's stream exactly as every
// support of its shape projects the whole stream.
//
// Cells belong to the universe (buildPartition, built once per cached
// universe); the march enters only through the plan, cached per
// (algorithm, geometry): one 2-word CompiledStream per shape the
// memory holds, projected from the surrogate's reference stream. The
// architecture is absent from the key: the lane engine grades every
// architecture on the march its controller realises (verifyStream),
// and architectures realising the same march share its plan.

// Support shapes are bit sets. A 1-word memory's one word is both its
// first and its last; shapes with both edge bits otherwise need a pair.
const (
	shapePair     uint8 = 1 << iota // two words
	shapeAdjacent                   // the two words are adjacent
	shapeFirst                      // holds word 0
	shapeLast                       // holds word size−1
	numShapes     = 1 << 4
)

// surrogateWords is the surrogate memory's size: the smallest memory
// holding a support of every shape. A pair of non-adjacent words that
// holds neither edge needs five (words 1 and 3).
const surrogateWords = 5

// supportShape returns the shape of the support words[:n] (ascending)
// in a memory of size words.
func supportShape(words [2]int32, n int, size int32) uint8 {
	lo, hi := words[0], words[n-1]
	var s uint8
	if n == 2 {
		s |= shapePair
		if hi-lo == 1 {
			s |= shapeAdjacent
		}
	}
	if lo == 0 {
		s |= shapeFirst
	}
	if hi == size-1 {
		s |= shapeLast
	}
	return s
}

// shapeSupport returns a support of the given shape in a memory of size
// words. The memory must hold one: a shape found in a memory of any
// size is held by one of min(size, surrogateWords) words.
func shapeSupport(shape uint8, size int32) (words [2]int32, n int) {
	first, last := shape&shapeFirst != 0, shape&shapeLast != 0
	switch {
	case shape&shapePair == 0 && first:
		return [2]int32{0}, 1
	case shape&shapePair == 0 && last:
		return [2]int32{size - 1}, 1
	case shape&shapePair == 0:
		return [2]int32{1}, 1
	case shape&shapeAdjacent != 0 && first:
		return [2]int32{0, 1}, 2
	case shape&shapeAdjacent != 0 && last:
		return [2]int32{size - 2, size - 1}, 2
	case shape&shapeAdjacent != 0:
		return [2]int32{1, 2}, 2
	case first && last:
		return [2]int32{0, size - 1}, 2
	case first:
		return [2]int32{0, 2}, 2
	case last:
		return [2]int32{size - 3, size - 1}, 2
	default:
		return [2]int32{1, 3}, 2
	}
}

// partition is a universe's cells. Cell c replays faults[c], a
// localised fault, on one lane; its verdict belongs to the universe
// indices members[memberStart[c]:memberStart[c+1]], in universe order,
// which all share faults[c].Kind. Cells are numbered shape by shape,
// each in order of its first member in the universe, and each batch
// packs a run of cells of one shape, so one batch replays one
// projection.
type partition struct {
	faults      []faults.Fault
	memberStart []int32
	members     []int32
	batches     []cellBatch
}

// cellBatch grades cells [lo, hi) on the plan's projection of shape;
// cell lo+k rides logical lane k+1, and the batch replays planes
// bit-planes.
type cellBatch struct {
	lo, hi int32
	shape  uint8
	planes int32
}

// membersOf returns the universe indices of batch b's cell members.
func (p *partition) membersOf(b *cellBatch) []int32 {
	return p.members[p.memberStart[b.lo]:p.memberStart[b.hi]]
}

// buildPartition sorts the universe into cells. One pass in universe
// order finds each fault's support shape and its localised form, whose
// ID comes from a dense integer key, its template times its local
// coordinates, looked up in flat tables: a fault is only localised
// (faults.Localize) the first time its key appears. The cells are then
// numbered shape by shape, filled in universe order and split into
// batches of at most BatchLimit(batchPlanes) lanes.
func buildPartition(universe []faults.Fault, size, width int) *partition {
	span := 2 * width // cells of a 2-word local memory
	// base[t] is 1 + the first key of template t, 0 while t is unseen;
	// ids[key] is 1 + the local ID of key, 0 while key is unseen;
	// cellOf[loc*numShapes+shape] is 1 + the cell of that pair in order
	// of first appearance, 0 while the pair is unseen.
	var (
		base, ids, cellOf []int32
		local             []faults.Fault
		cellShape         []uint8
		cellLoc           []int32
	)
	cell := make([]int32, len(universe))
	for i := range universe {
		f := &universe[i]
		words, n := faults.Support(*f, width)
		sh := supportShape(words, n, int32(size))
		t := localTemplate(f)
		if t >= len(base) {
			base = append(base, make([]int32, t+1-len(base))...)
		}
		if base[t] == 0 {
			base[t] = int32(len(ids)) + 1
			ids = append(ids, make([]int32, localSpan(f.Kind, span))...)
		}
		key := int(base[t]-1) + localCoord(f, width, words[0])
		if ids[key] == 0 {
			local = append(local, faults.Localize(*f, width, words[:n]))
			ids[key] = int32(len(local))
			cellOf = append(cellOf, make([]int32, numShapes)...)
		}
		k := int(ids[key]-1)*numShapes + int(sh)
		if cellOf[k] == 0 {
			cellShape = append(cellShape, sh)
			cellLoc = append(cellLoc, ids[key]-1)
			cellOf[k] = int32(len(cellShape))
		}
		cell[i] = cellOf[k] - 1
	}

	// Number the cells shape by shape: order lists them in their final
	// order, and number maps a cell's first-appearance index to it.
	order := make([]int32, 0, len(cellShape))
	for s := range uint8(numShapes) {
		for c, sh := range cellShape {
			if sh == s {
				order = append(order, int32(c))
			}
		}
	}
	number := make([]int32, len(order))
	p := &partition{
		faults:      make([]faults.Fault, len(order)),
		memberStart: make([]int32, len(order)+1),
		members:     make([]int32, len(universe)),
	}
	for c, first := range order {
		number[first] = int32(c)
		p.faults[c] = local[cellLoc[first]]
	}
	// Count members into memberStart[c+1], sum, then fill in universe
	// order through a cursor per cell.
	for i, c := range cell {
		cell[i] = number[c]
		p.memberStart[cell[i]+1]++
	}
	for c := range order {
		p.memberStart[c+1] += p.memberStart[c]
	}
	fill := number // dead once the members are renumbered
	copy(fill, p.memberStart)
	for i, c := range cell {
		p.members[fill[c]] = int32(i)
		fill[c]++
	}

	capacity := int32(faults.BatchLimit(batchPlanes))
	for lo := int32(0); lo < int32(len(order)); {
		sh := cellShape[order[lo]]
		hi := lo + 1
		for hi < int32(len(order)) && hi-lo < capacity && cellShape[order[hi]] == sh {
			hi++
		}
		p.batches = append(p.batches, cellBatch{
			lo: lo, hi: hi, shape: sh,
			// Lanes 1..hi-lo are occupied; lane 0 is the good machine.
			planes: min((hi-lo+64)/64, batchPlanes),
		})
		lo = hi
	}
	return p
}

// localTemplate numbers the fields of a fault that its local
// coordinates leave out: kind, value, aggressor value and port.
func localTemplate(f *faults.Fault) int {
	t := int(f.Kind) * 4
	if f.Value {
		t += 2
	}
	if f.AggVal {
		t++
	}
	return (f.Port+1)*faults.NumKinds*4 + t
}

// localSpan is the coordinate count of a kind's localised faults in a
// 2-word local memory of span cells.
func localSpan(k faults.Kind, span int) int {
	switch k {
	case faults.CFin, faults.CFid, faults.CFst:
		return span * span
	case faults.AFNone, faults.AFMap, faults.AFMulti:
		return 4
	default:
		return span
	}
}

// localCoord numbers the coordinates of f localised onto its support,
// whose lower word is lo: the local cells or addresses its kind reads,
// as faults.Localize renumbers them (word lo becomes 0, the other 1).
func localCoord(f *faults.Fault, width int, lo int32) int {
	local := func(addr int) int {
		if int32(addr) == lo {
			return 0
		}
		return 1
	}
	switch f.Kind {
	case faults.CFin, faults.CFid, faults.CFst:
		agg := local(f.Aggressor/width)*width + f.Aggressor%width
		return agg*2*width + local(f.Cell/width)*width + f.Cell%width
	case faults.AFNone:
		return 0
	case faults.AFMap, faults.AFMulti:
		return local(f.Addr)*2 + local(f.AggAddr)
	default:
		return f.Cell % width
	}
}

// batchPlanes is the plane count of every lane arena: DefaultLanes
// logical lanes.
const batchPlanes = DefaultLanes / 64

// shapePlan is an algorithm's plan on one geometry: its projection
// onto a support of each shape the memory holds, compiled as a 2-word
// stream (nil for shapes the memory lacks).
type shapePlan [numShapes]*faults.CompiledStream

// planKey content-addresses a plan: the algorithm and the geometry.
// The algorithm fingerprint is in the key, so two algorithms on one
// geometry never share projections.
type planKey struct {
	algFP              uint64
	size, width, ports int
}

var planCache = artifact.New[planKey, *shapePlan]("plan", 0)

// cachedPlan returns the plan of alg, the march the graded controller
// realises, on the workload's geometry. Projection exactness needs
// every word's first access to be a write, which a valid march
// guarantees; every controller's synthesis validates its march, and
// fsmbist.Compile validates the Realized march as well.
func cachedPlan(alg march.Algorithm, opts Options) (*shapePlan, error) {
	key := planKey{
		algFP: march.Fingerprint(alg),
		size:  opts.Size, width: opts.Width, ports: opts.Ports,
	}
	return planCache.Get(key, func() (*shapePlan, error) {
		cs, err := surrogateStream(alg, opts)
		if err != nil {
			return nil, err
		}
		// Batches check the good machine only on their own words. A
		// word's fault-free behaviour is its 1-word projection, and the
		// surrogate holds a word of every 1-word shape, so its check
		// stands for the whole stream's.
		if err := cs.GoodMachineErr(); err != nil {
			return nil, err
		}
		return buildPlan(cs)
	})
}

// surrogateStream expands and compiles the reference stream of the
// surrogate memory: min(Size, surrogateWords) words of the workload's
// width and ports.
func surrogateStream(alg march.Algorithm, opts Options) (*faults.CompiledStream, error) {
	opts.Size = min(opts.Size, surrogateWords)
	cs, err := lowerStream(referenceStream(alg, opts), opts.Size, opts.Width, opts.Ports)
	if err != nil {
		return nil, fmt.Errorf("surrogate stream fails µop validation: %w", err)
	}
	return cs, nil
}

// lowerStream lowers march.StreamOps into the flat µop form:
// pre-resolved first-cell indices, expected-value words and validated
// port/address bounds. Options.Validate keeps ports within the µop's
// port byte.
func lowerStream(stream []march.StreamOp, size, width, ports int) (*faults.CompiledStream, error) {
	uops := make([]faults.UOp, len(stream))
	for i, op := range stream {
		u := faults.UOp{
			Kind: faults.UOpRead, Port: uint8(op.Port),
			Addr: int32(op.Addr), Cell: int32(op.Addr * width),
			Data: op.Data,
		}
		switch {
		case op.Pause:
			u = faults.UOp{Kind: faults.UOpPause}
		case op.Write:
			u.Kind = faults.UOpWrite
		}
		uops[i] = u
	}
	return faults.NewCompiledStream(size, width, ports, uops)
}

// buildPlan projects the surrogate's compiled stream onto one support
// of every shape the surrogate holds, which are the shapes of the
// workload's memory, and compiles each projection as a 2-word stream.
func buildPlan(cs *faults.CompiledStream) (*shapePlan, error) {
	size, width, ports := cs.Geometry()
	n := int32(size)
	var held uint16
	for a := int32(0); a < n; a++ {
		held |= 1 << supportShape([2]int32{a}, 1, n)
		for b := a + 1; b < n; b++ {
			held |= 1 << supportShape([2]int32{a, b}, 2, n)
		}
	}
	plan := new(shapePlan)
	for s := range numShapes {
		if held&(1<<s) == 0 {
			continue
		}
		words, k := shapeSupport(uint8(s), n)
		var err error
		if plan[s], err = faults.NewCompiledStream(2, width, ports, cs.Project(words[:k], nil)); err != nil {
			return nil, fmt.Errorf("shape %04b projection fails µop validation: %w", s, err)
		}
	}
	return plan, nil
}
