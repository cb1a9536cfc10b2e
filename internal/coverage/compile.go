package coverage

import (
	"fmt"
	"slices"

	"repro/internal/artifact"
	"repro/internal/faults"
	"repro/internal/march"
)

// Class planning for the lane engine.
//
// Two faults are in one projection class when their supports (the one
// or two words each can touch) project the stream to the same µop
// sequence (faults.CompiledStream.Project) and their localised forms
// are equal. A lane's verdict on a projected replay depends on nothing
// else, so one lane per class decides every member.
//
// A support's projection depends only on its shape (supportShape):
// whether it is one word or two, whether the two are adjacent, and
// whether it holds word 0 and word size−1. march.FullStream visits the
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
// The plan is cached per (algorithm, geometry, universe options). Its
// build expands and compiles the surrogate's reference stream only,
// checks the fault-free machine on it, projects one support per shape
// the universe holds, and keeps each distinct projection as a 2-word
// CompiledStream that batches replay directly. The architecture is
// absent from the key: the lane engine only runs architectures whose
// captured stream equals the reference stream (verifyStream), so they
// all share one plan.

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

// partition describes every universe fault by two small numbers: fault
// i's support has shape shape[i], and the fault localises to
// local[loc[i]]. Bit s of shapes is set when some fault has shape s.
type partition struct {
	shape  []uint8
	loc    []int32
	local  []faults.Fault
	shapes uint16
}

// buildPartition computes every fault's support shape and interns its
// localised form, in one pass in universe order. A localised fault's
// ID comes from a dense integer key, its template times its local
// coordinates, looked up in flat tables; the fault is only localised
// (faults.Localize) the first time its key appears.
func buildPartition(universe []faults.Fault, size, width int) *partition {
	p := &partition{shape: make([]uint8, len(universe)), loc: make([]int32, len(universe))}
	span := 2 * width // cells of a 2-word local memory
	// base[t] is 1 + the first key of template t, 0 while t is unseen;
	// ids[key] is 1 + the local ID of key, 0 while key is unseen.
	var base, ids []int32
	for i := range universe {
		f := &universe[i]
		words, n := faults.Support(*f, width)
		sh := supportShape(words, n, int32(size))
		p.shape[i] = sh
		p.shapes |= 1 << sh
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
			p.local = append(p.local, faults.Localize(*f, width, words[:n]))
			ids[key] = int32(len(p.local))
		}
		p.loc[i] = ids[key] - 1
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

// classPlan is a universe's projection classes under one stream. Class
// c replays faults[c] on one lane; its verdict belongs to the universe
// indices members[memberStart[c]:memberStart[c+1]], in universe order,
// which all share faults[c].Kind. Classes sharing a projection are
// numbered consecutively, and each batch packs a run of them, so one
// batch replays one projection.
type classPlan struct {
	faults      []faults.Fault
	memberStart []int32
	members     []int32
	batches     []classBatch
	// projs holds each distinct projection as a 2-word stream.
	projs []*faults.CompiledStream
}

// classBatch grades classes [lo, hi) on projs[proj]; class lo+k rides
// logical lane k+1, and the batch replays planes bit-planes.
type classBatch struct {
	lo, hi int32
	proj   int32
	planes int32
}

// membersOf returns the universe indices of batch b's class members.
func (p *classPlan) membersOf(b *classBatch) []int32 {
	return p.members[p.memberStart[b.lo]:p.memberStart[b.hi]]
}

// planKey content-addresses a class plan: the algorithm, the geometry
// and the universe options. The algorithm fingerprint is in the key,
// so two algorithms on one geometry never share classes.
type planKey struct {
	algFP              uint64
	size, width, ports int
	uopts              faults.UniverseOpts
}

var planCache = artifact.New[planKey, *classPlan]("plan", 0)

// cachedClassPlan returns the class plan of the workload.
func cachedClassPlan(alg march.Algorithm, opts Options, u *faultUniverse) (*classPlan, error) {
	key := planKey{
		algFP: march.Fingerprint(alg),
		size:  opts.Size, width: opts.Width, ports: opts.Ports,
		uopts: opts.Universe,
	}
	return planCache.Get(key, func() (*classPlan, error) {
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
		return buildClassPlan(u.partition(), cs)
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

// buildClassPlan classes a partition under the surrogate's compiled
// stream. It projects one support per shape the partition holds,
// merges projections with equal µops and compiles each distinct one as
// a 2-word stream. Classes, one per (projection, localised fault), are
// numbered projection by projection, each in order of its first member
// in the universe, and split into batches of at most
// BatchLimit(batchPlanes) lanes. A class's members are in universe
// order.
func buildClassPlan(p *partition, cs *faults.CompiledStream) (*classPlan, error) {
	size, width, ports := cs.Geometry()
	var (
		projOf [numShapes]int32
		seqs   [][]faults.UOp
	)
	for s := range numShapes {
		if p.shapes&(1<<s) == 0 {
			continue
		}
		words, n := shapeSupport(uint8(s), int32(size))
		seq := cs.Project(words[:n], nil)
		id := slices.IndexFunc(seqs, func(q []faults.UOp) bool { return slices.Equal(q, seq) })
		if id < 0 {
			id = len(seqs)
			seqs = append(seqs, seq)
		}
		projOf[s] = int32(id)
	}

	// A class's key is proj*nl + its local ID. cls[key] is 1 + its
	// class in order of first appearance, then 1 + its final number
	// once the classes are sorted stably by projection.
	nl := int32(len(p.local))
	cls := make([]int32, int32(len(seqs))*nl)
	var keys []int32
	for i, s := range p.shape {
		k := projOf[s]*nl + p.loc[i]
		if cls[k] == 0 {
			keys = append(keys, k)
			cls[k] = int32(len(keys))
		}
	}
	order := make([]int32, len(keys))
	for c := range order {
		order[c] = keys[c] / nl
	}
	order = countingSort(order, len(seqs))

	plan := &classPlan{
		faults:      make([]faults.Fault, len(keys)),
		memberStart: make([]int32, len(keys)+1),
		members:     make([]int32, len(p.shape)),
		projs:       make([]*faults.CompiledStream, len(seqs)),
	}
	classProj := make([]int32, len(keys))
	for c, first := range order {
		k := keys[first]
		cls[k] = int32(c) + 1
		classProj[c] = k / nl
		plan.faults[c] = p.local[k%nl]
	}
	for pj, seq := range seqs {
		var err error
		if plan.projs[pj], err = faults.NewCompiledStream(2, width, ports, seq); err != nil {
			return nil, fmt.Errorf("projection %d fails µop validation: %w", pj, err)
		}
	}
	// Count members into memberStart[c+1], sum, then fill in universe
	// order through a cursor per class.
	for i, s := range p.shape {
		plan.memberStart[cls[projOf[s]*nl+p.loc[i]]]++
	}
	for c := range keys {
		plan.memberStart[c+1] += plan.memberStart[c]
	}
	fill := order // dead once the classes are numbered
	copy(fill, plan.memberStart)
	for i, s := range p.shape {
		c := cls[projOf[s]*nl+p.loc[i]] - 1
		plan.members[fill[c]] = int32(i)
		fill[c]++
	}

	capacity := int32(faults.BatchLimit(batchPlanes))
	for lo := int32(0); lo < int32(len(keys)); {
		pj := classProj[lo]
		hi := lo + 1
		for hi < int32(len(keys)) && hi-lo < capacity && classProj[hi] == pj {
			hi++
		}
		plan.batches = append(plan.batches, classBatch{
			lo: lo, hi: hi, proj: pj,
			// Lanes 1..hi-lo are occupied; lane 0 is the good machine.
			planes: min((hi-lo+64)/64, batchPlanes),
		})
		lo = hi
	}
	return plan, nil
}

// countingSort returns 0..len(key)-1 stably sorted by key, whose
// values lie in [0, buckets).
func countingSort(key []int32, buckets int) []int32 {
	count := make([]int32, buckets+1)
	for _, k := range key {
		count[k+1]++
	}
	for b := 0; b < buckets; b++ {
		count[b+1] += count[b]
	}
	dst := make([]int32, len(key))
	for i, k := range key {
		dst[count[k]] = int32(i)
		count[k]++
	}
	return dst
}
