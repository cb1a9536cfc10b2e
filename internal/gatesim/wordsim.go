package gatesim

import (
	"context"
	"math/bits"

	"repro/internal/netlist"
	"repro/internal/obs"
)

// Lanes is the machine-word parallelism of the WordSimulator: one
// settle pass evaluates this many independent copies of the netlist.
const Lanes = 64

// WordSimulator is the bit-parallel counterpart of Simulator: every net
// holds one uint64 whose bit L is the net's value in lane L, so one
// settle pass evaluates 64 independent copies of the netlist. The
// intended use is PPSFP-style fault simulation — lane 0 carries the
// good machine and the remaining lanes faulty machines distinguished
// only by per-lane forced nets — but nothing in the simulator itself
// assumes that layout.
//
// Evaluation semantics match Simulator exactly, lane by lane: the same
// levelised two-phase model (settle combinational logic, clock
// flip-flops), the same forced-net override order, the same reset
// behaviour. A lane with no forces always computes the same values the
// scalar Simulator would.
type WordSimulator struct {
	nl     *netlist.Netlist
	values []uint64 // indexed by NetID; bit L = value in lane L
	order  []int    // combinational instance indices in topological order
	cyclic []int    // combinational instances on loops, in index order
	ffs    []int    // sequential instance indices
	next   []uint64 // Step scratch, one word per flip-flop
	const1 netlist.NetID
	cycles int
	ctx    context.Context // optional cancellation, checked periodically
	err    error           // sticky: ErrUnsettled or ctx.Err()
	// Per-net force masks: where forceMask has a bit set, the net is
	// pinned to the corresponding forceVal bit during settling — the
	// per-lane stuck-at injection mechanism. Nets with a zero mask are
	// unforced; forcedNets lists the nets with a non-zero mask so
	// ClearForces is O(active forces).
	forceMask  []uint64
	forceVal   []uint64
	forcedNets []netlist.NetID
	// Metrics are bound once at construction from the registry active
	// at that time; nil (the no-op instrument) when metrics are off.
	// mLanes samples the forced-lane occupancy at every settle — how
	// full the PPSFP batches keep the lanes.
	mSettles   *obs.Counter
	mGates     *obs.Counter
	mUnsettled *obs.Counter
	mLanes     *obs.Span
}

// NewWord levelises the netlist and returns a 64-lane word simulator in
// the post-reset state. It fails on structural errors; combinational
// loops are settled by bounded relaxation exactly like the scalar
// Simulator, with oscillation surfacing through Err as ErrUnsettled.
func NewWord(nl *netlist.Netlist) (*WordSimulator, error) {
	order, cyclic, ffs, err := levelise(nl)
	if err != nil {
		return nil, err
	}
	reg := obs.Active()
	n := nl.NumNets() + 1
	s := &WordSimulator{
		nl:         nl,
		values:     make([]uint64, n),
		order:      order,
		cyclic:     cyclic,
		ffs:        ffs,
		next:       make([]uint64, len(ffs)),
		forceMask:  make([]uint64, n),
		forceVal:   make([]uint64, n),
		mSettles:   reg.Counter("gatesim.word.settles"),
		mGates:     reg.Counter("gatesim.word.gates_evaluated"),
		mUnsettled: reg.Counter("gatesim.word.unsettled"),
		mLanes:     reg.Span("gatesim.word.forced_lanes"),
	}
	for id := netlist.NetID(1); id <= netlist.NetID(nl.NumNets()); id++ {
		if c, v := nl.IsConst(id); c && v {
			s.const1 = id
			break
		}
	}
	s.Reset()
	return s, nil
}

// Reset applies the asynchronous reset in every lane: each flip-flop
// takes its Init value and the combinational logic settles. Primary
// inputs keep their current values. The cycle counter restarts at zero.
func (s *WordSimulator) Reset() {
	insts := s.nl.Instances()
	for _, i := range s.ffs {
		var v uint64
		if insts[i].Init {
			v = ^uint64(0)
		}
		s.values[insts[i].Out] = v
	}
	s.err = nil
	s.settle()
	s.cycles = 0
}

// SetContext arms periodic cancellation checks: once ctx is cancelled
// or past its deadline, Step becomes a no-op within ctxCheckInterval
// cycles and Err returns the context's error. A nil ctx disarms.
func (s *WordSimulator) SetContext(ctx context.Context) { s.ctx = ctx }

// Err returns the sticky failure state: an *UnsettledError once a
// settle trips the oscillation watchdog, or the context error once a
// SetContext context is cancelled. Reset clears it.
func (s *WordSimulator) Err() error { return s.err }

//mbist:hotpath
func (s *WordSimulator) settle() {
	if s.const1 != netlist.Invalid {
		s.values[s.const1] = ^uint64(0)
	}
	for _, id := range s.forcedNets {
		m := s.forceMask[id]
		s.values[id] = s.values[id]&^m | s.forceVal[id]&m
	}
	passes := 1
	if s.settlePass1() && len(s.cyclic) > 0 {
		// Values on loops moved: relax to a fixpoint under the watchdog.
		budget := settleBudget(len(s.cyclic))
		for changed := true; changed; passes++ {
			if passes >= budget {
				s.err = &UnsettledError{Netlist: s.nl.Name, Iters: passes}
				s.mUnsettled.Add(1)
				break
			}
			changed = s.settlePass1()
		}
	}
	s.mSettles.Add(1)
	s.mGates.Add(int64(passes * (len(s.order) + len(s.cyclic))))
	if s.mLanes != nil { // skip the popcount walk when metrics are off
		s.mLanes.Observe(int64(s.ForcedLanes()))
	}
}

// settlePass1 evaluates every combinational instance once in all 64
// lanes — topological order first, loop members last — and reports
// whether any loop member's output word changed (the fixpoint test).
//
//mbist:hotpath
func (s *WordSimulator) settlePass1() bool {
	insts := s.nl.Instances()
	eval := func(i int) bool { //mbist:exempt hotpathalloc non-escaping closure, stack-allocated; pinned at 0 allocs/op by the gatesim alloc tests
		inst := &insts[i]
		var v uint64
		switch inst.Kind {
		case netlist.CellInv:
			v = ^s.values[inst.In[0]]
		case netlist.CellBuf:
			v = s.values[inst.In[0]]
		case netlist.CellNand2:
			v = ^(s.values[inst.In[0]] & s.values[inst.In[1]])
		case netlist.CellNor2:
			v = ^(s.values[inst.In[0]] | s.values[inst.In[1]])
		case netlist.CellAnd2:
			v = s.values[inst.In[0]] & s.values[inst.In[1]]
		case netlist.CellOr2:
			v = s.values[inst.In[0]] | s.values[inst.In[1]]
		case netlist.CellXor2:
			v = s.values[inst.In[0]] ^ s.values[inst.In[1]]
		case netlist.CellXnor2:
			v = ^(s.values[inst.In[0]] ^ s.values[inst.In[1]])
		case netlist.CellMux2:
			sel := s.values[inst.In[0]]
			v = sel&s.values[inst.In[2]] | ^sel&s.values[inst.In[1]]
		default:
			panic("gatesim: word eval on sequential cell " + inst.Kind.String())
		}
		if m := s.forceMask[inst.Out]; m != 0 {
			v = v&^m | s.forceVal[inst.Out]&m
		}
		changed := s.values[inst.Out] != v
		s.values[inst.Out] = v
		return changed
	}
	for _, i := range s.order {
		eval(i)
	}
	changed := false
	for _, i := range s.cyclic {
		if eval(i) {
			changed = true
		}
	}
	return changed
}

// ForceLane pins a net to a value in one lane during settling
// regardless of its driver — per-lane stuck-at fault injection. Forcing
// also applies to primary inputs and flip-flop outputs. Lane 0 is
// conventionally kept unforced as the good machine, but the simulator
// does not enforce that.
func (s *WordSimulator) ForceLane(id netlist.NetID, lane int, v bool) {
	if lane < 0 || lane >= Lanes {
		panic("gatesim: force lane out of range")
	}
	if s.forceMask[id] == 0 {
		s.forcedNets = append(s.forcedNets, id)
	}
	bit := uint64(1) << uint(lane)
	s.forceMask[id] |= bit
	if v {
		s.forceVal[id] |= bit
	} else {
		s.forceVal[id] &^= bit
	}
	s.values[id] = s.values[id]&^bit | s.forceVal[id]&bit
}

// Unforce releases every forced lane of a net. Like the scalar
// simulator's Unforce, it does not restore the net's pre-force value:
// driven nets recover on the next settle, while primary inputs and
// flip-flop outputs keep the forced bits until re-Set.
func (s *WordSimulator) Unforce(id netlist.NetID) {
	if s.forceMask[id] == 0 {
		return
	}
	s.forceMask[id], s.forceVal[id] = 0, 0
	for i, fid := range s.forcedNets {
		if fid == id {
			s.forcedNets = append(s.forcedNets[:i], s.forcedNets[i+1:]...)
			break
		}
	}
}

// ClearForces releases every forced net in O(active forces).
func (s *WordSimulator) ClearForces() {
	for _, id := range s.forcedNets {
		s.forceMask[id], s.forceVal[id] = 0, 0
	}
	s.forcedNets = s.forcedNets[:0]
}

// ForcedLanes returns the number of distinct lanes with at least one
// active force — a sanity probe for batching layers.
func (s *WordSimulator) ForcedLanes() int {
	var m uint64
	for _, id := range s.forcedNets {
		m |= s.forceMask[id]
	}
	return bits.OnesCount64(m)
}

// Set drives a primary input net to the same value in every lane.
func (s *WordSimulator) Set(id netlist.NetID, v bool) {
	var w uint64
	if v {
		w = ^uint64(0)
	}
	s.values[id] = w
}

// SetWord drives a primary input net with an arbitrary per-lane word.
func (s *WordSimulator) SetWord(id netlist.NetID, w uint64) { s.values[id] = w }

// Get returns the settled word of a net (lanes 0..63).
func (s *WordSimulator) Get(id netlist.NetID) uint64 { return s.values[id] }

// GetLane returns the settled value of a net in one lane.
func (s *WordSimulator) GetLane(id netlist.NetID, lane int) bool {
	return s.values[id]>>uint(lane)&1 == 1
}

// Eval settles combinational logic in every lane without clocking.
func (s *WordSimulator) Eval() { s.settle() }

// Step advances one clock cycle in every lane: settle, capture every
// flip-flop's D word, update Qs, settle again. Once Err is non-nil —
// oscillation watchdog or cancelled context — Step is a no-op.
func (s *WordSimulator) Step() {
	if s.err != nil {
		return
	}
	if s.ctx != nil && s.cycles%ctxCheckInterval == 0 {
		if err := s.ctx.Err(); err != nil {
			s.err = err
			return
		}
	}
	s.settle()
	insts := s.nl.Instances()
	for k, i := range s.ffs {
		s.next[k] = s.values[insts[i].In[0]]
	}
	for k, i := range s.ffs {
		s.values[insts[i].Out] = s.next[k]
	}
	s.settle()
	s.cycles++
}

// StepN advances n clock cycles, stopping early once Err is non-nil.
func (s *WordSimulator) StepN(n int) {
	for i := 0; i < n && s.err == nil; i++ {
		s.Step()
	}
}

// Cycles returns the number of Step calls since the last Reset.
func (s *WordSimulator) Cycles() int { return s.cycles }
