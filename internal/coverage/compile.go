package coverage

import (
	"slices"

	"repro/internal/artifact"
	"repro/internal/faults"
	"repro/internal/march"
)

// Stream compilation and class planning for the lane engine.
//
// The stream is lowered once per (algorithm, geometry) into a
// validated faults.CompiledStream (bounds proven at compile time, cell
// indices pre-resolved, a per-word µop index built). The universe is
// then graded by projection class: two faults are in one class when
// their supports (the one or two words each can touch) project the
// stream to the same µop sequence and their localised forms are equal.
// ReplayProjected's verdict for a lane depends on nothing else, so one
// lane per class decides every member.
//
// The plan is built as two cached artifacts:
//
//   - a partition per universe, independent of the stream: each fault's
//     support group, and its localised form interned to a small ID
//     (buildPartition);
//   - a class plan per compiled stream: a projection ID per support
//     group, the classes with their member lists, and the batches that
//     pack one lane per class (buildClassPlan).

// compiledKey content-addresses a compiled stream. The architecture is
// deliberately absent: the batched engine only runs streams verified
// equal to the canonical reference stream (see captureStream), so every
// architecture that passes verification shares one compilation.
type compiledKey struct {
	algFP              uint64
	size, width, ports int
}

var compiledCache = artifact.New[compiledKey, *faults.CompiledStream]("uops", 0)

// cachedCompiledStream lowers a verified captured stream to µops,
// memoised on the workload key.
func cachedCompiledStream(alg march.Algorithm, opts Options, stream []march.StreamOp) (*faults.CompiledStream, error) {
	return compiledCache.Get(streamKeyOf(alg, opts), func() (*faults.CompiledStream, error) {
		return compileStream(opts, stream)
	})
}

func streamKeyOf(alg march.Algorithm, opts Options) compiledKey {
	return compiledKey{algFP: march.Fingerprint(alg), size: opts.Size, width: opts.Width, ports: opts.Ports}
}

// compileStream lowers march.StreamOps into the flat µop form:
// pre-resolved first-cell indices, expected-value words and validated
// port/address bounds. Options.Validate keeps ports within the µop's
// port byte.
func compileStream(opts Options, stream []march.StreamOp) (*faults.CompiledStream, error) {
	uops := make([]faults.UOp, len(stream))
	for i, op := range stream {
		switch {
		case op.Pause:
			uops[i] = faults.UOp{Kind: faults.UOpPause}
		case op.Write:
			uops[i] = faults.UOp{
				Kind: faults.UOpWrite, Port: uint8(op.Port),
				Addr: int32(op.Addr), Cell: int32(op.Addr * opts.Width),
				Data: op.Data,
			}
		default:
			uops[i] = faults.UOp{
				Kind: faults.UOpRead, Port: uint8(op.Port),
				Addr: int32(op.Addr), Cell: int32(op.Addr * opts.Width),
				Data: op.Data,
			}
		}
	}
	return faults.NewCompiledStream(opts.Size, opts.Width, opts.Ports, uops)
}

// supportGroup is one support of a partition: words[:n], ascending.
type supportGroup struct {
	words [2]int32
	n     int32
}

// partition is the universe grouped by support: universe fault i lies
// in groups[group[i]], and loc[i] is the interned ID of its localised
// form, local[loc[i]]. Groups are numbered in order of first
// appearance in the universe.
type partition struct {
	group  []int32
	loc    []int32
	groups []supportGroup
	local  []faults.Fault
}

var partitionCache = artifact.New[universeKey, *partition]("partition", 0)

func cachedPartition(opts Options, universe []faults.Fault) *partition {
	key := universeKey{size: opts.Size, width: opts.Width, opts: opts.Universe}
	p, _ := partitionCache.Get(key, func() (*partition, error) {
		return buildPartition(universe, opts.Width), nil
	})
	return p
}

// buildPartition groups the universe by support and interns every
// localised fault, in one pass in universe order. The universe lists
// the faults of one cell or coupling pair together, so the group map
// is only consulted when the support changes.
func buildPartition(universe []faults.Fault, width int) *partition {
	p := &partition{group: make([]int32, len(universe)), loc: make([]int32, len(universe))}
	groupOf := map[supportGroup]int32{}
	ids := map[faults.Fault]int32{}
	var last supportGroup
	g := int32(-1)
	for i, f := range universe {
		words, k := faults.Support(f, width)
		if sg := (supportGroup{words: words, n: int32(k)}); sg != last {
			var seen bool
			if g, seen = groupOf[sg]; !seen {
				g = int32(len(p.groups))
				groupOf[sg] = g
				p.groups = append(p.groups, sg)
			}
			last = sg
		}
		p.group[i] = g
		lf := faults.Localize(f, width, words[:k])
		id, seen := ids[lf]
		if !seen {
			id = int32(len(p.local))
			p.local = append(p.local, lf)
			ids[lf] = id
		}
		p.loc[i] = id
	}
	return p
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

// classPlan is a universe's projection classes under one compiled
// stream. Class c replays faults[c] on one lane; its verdict belongs
// to the universe indices members[memberStart[c]:memberStart[c+1]].
// Classes sharing a projection are numbered consecutively, and each
// batch packs a run of them, so one batch replays one projection.
type classPlan struct {
	faults      []faults.Fault
	memberStart []int32
	members     []int32
	batches     []classBatch
}

// classBatch grades classes [lo, hi) on the stream projected onto
// words[:n]; class lo+k rides logical lane k+1, and the batch replays
// planes bit-planes.
type classBatch struct {
	lo, hi int32
	words  [2]int32
	n      int32
	planes int32
}

// membersOf returns the universe indices of batch b's class members.
func (p *classPlan) membersOf(b *classBatch) []int32 {
	return p.members[p.memberStart[b.lo]:p.memberStart[b.hi]]
}

// planKey content-addresses a class plan: the compiled stream, the
// universe it partitions and the lane width bounding batch capacity.
// The stream key carries the algorithm, so two algorithms on one
// geometry never share classes.
type planKey struct {
	stream compiledKey
	uopts  faults.UniverseOpts
	lanes  int
}

var planCache = artifact.New[planKey, *classPlan]("plan", 0)

func cachedClassPlan(alg march.Algorithm, opts Options, universe []faults.Fault, cs *faults.CompiledStream) *classPlan {
	key := planKey{stream: streamKeyOf(alg, opts), uopts: opts.Universe, lanes: opts.Lanes}
	plan, _ := planCache.Get(key, func() (*classPlan, error) {
		return buildClassPlan(cachedPartition(opts, universe), cs, opts.Lanes/64), nil
	})
	return plan
}

// buildClassPlan classes a partition under a compiled stream. Each
// support group's projection is compared µop by µop with the distinct
// projections seen so far (hash first); classes are then numbered
// projection by projection, in universe order, and split into batches
// of at most BatchLimit(maxPlanes) lanes. A class's members are in
// universe order.
func buildClassPlan(p *partition, cs *faults.CompiledStream, maxPlanes int) *classPlan {
	proj := make([]int32, len(p.groups))
	var (
		seqs     []faults.UOp
		seqStart = []int32{0}
		rep      []int32 // a group of each projection
		byHash   = map[uint64][]int32{}
		buf      []faults.UOp
	)
	for g, sg := range p.groups {
		buf = cs.Project(sg.words[:sg.n], buf[:0])
		h := hashUOps(buf)
		id := int32(-1)
		for _, c := range byHash[h] {
			if slices.Equal(seqs[seqStart[c]:seqStart[c+1]], buf) {
				id = c
				break
			}
		}
		if id < 0 {
			id = int32(len(rep))
			seqs = append(seqs, buf...)
			seqStart = append(seqStart, int32(len(seqs)))
			rep = append(rep, int32(g))
			byHash[h] = append(byHash[h], id)
		}
		proj[g] = id
	}

	// Number classes projection by projection: visit the universe
	// sorted by projection; stamp[l] is the last projection local fault
	// l was seen under, cls[l] its class there.
	faultProj := make([]int32, len(p.group))
	for i, g := range p.group {
		faultProj[i] = proj[g]
	}
	stamp := make([]int32, len(p.local))
	cls := make([]int32, len(p.local))
	for l := range stamp {
		stamp[l] = -1
	}
	classOf := faultProj // reused: each entry is read before it is overwritten
	var classLoc, classProj, count []int32
	for _, i := range countingSort(faultProj, len(rep)) {
		pj, l := faultProj[i], p.loc[i]
		if stamp[l] != pj {
			stamp[l], cls[l] = pj, int32(len(classLoc))
			classLoc = append(classLoc, l)
			classProj = append(classProj, pj)
			count = append(count, 0)
		}
		classOf[i] = cls[l]
		count[cls[l]]++
	}

	plan := &classPlan{
		faults:      make([]faults.Fault, len(classLoc)),
		memberStart: make([]int32, len(classLoc)+1),
		members:     make([]int32, len(p.group)),
	}
	for c, l := range classLoc {
		plan.faults[c] = p.local[l]
		plan.memberStart[c+1] = plan.memberStart[c] + count[c]
	}
	fill := count // dead once the member offsets are summed
	copy(fill, plan.memberStart)
	for i, c := range classOf {
		plan.members[fill[c]] = int32(i)
		fill[c]++
	}

	capacity := int32(faults.BatchLimit(maxPlanes))
	for lo := int32(0); lo < int32(len(classLoc)); {
		pj := classProj[lo]
		hi := lo + 1
		for hi < int32(len(classLoc)) && hi-lo < capacity && classProj[hi] == pj {
			hi++
		}
		g := p.groups[rep[pj]]
		plan.batches = append(plan.batches, classBatch{
			lo: lo, hi: hi, words: g.words, n: g.n,
			// Lanes 1..hi-lo are occupied; lane 0 is the good machine.
			planes: min((hi-lo+64)/64, int32(maxPlanes)),
		})
		lo = hi
	}
	return plan
}

// hashUOps is FNV-1a over the fields replay reads, two words per µop.
func hashUOps(ops []faults.UOp) uint64 {
	h := uint64(14695981039346656037)
	for _, op := range ops {
		h = (h ^ op.Data) * 1099511628211
		h = (h ^ (uint64(uint32(op.Addr)) | uint64(op.Kind)<<32 | uint64(op.Port)<<40)) * 1099511628211
	}
	return h
}
