package faults

import "fmt"

// MaxLanes is the number of fault lanes a single-plane LaneInjected
// carries: 64 uint64 bit-positions minus lane 0, which is reserved for
// the fault-free (good) machine. Multi-plane memories carry
// BatchLimit(planes) faults.
const MaxLanes = 63

// MaxPlanes bounds the plane count of NewLaneInjectedPlanes (8 planes =
// 512 logical lanes).
const MaxPlanes = 8

// BatchLimit returns the fault capacity of a memory with the given
// plane count: planes×64 logical lanes minus the good-machine lane 0.
func BatchLimit(planes int) int { return planes*64 - 1 }

// LaneInjected packs one good machine and up to BatchLimit(P)
// single-fault machines into P uint64 bit-planes per bit cell: bit b of
// plane p of a cell is the cell value of logical lane p*64+b. Lane 0
// carries no fault; lane k (k >= 1) carries exactly faults[k-1] of the
// batch. All fault behaviour of the scalar Injected model — stuck-at,
// transition, write-disturb, stuck-open, retention, read-disturb,
// incorrect-read, deceptive-read, coupling and address-decoder faults,
// with per-port visibility — becomes lane-masked bitwise operations, so
// one replayed operation stream grades a whole batch at once (the PPSFP
// idea of parallel-pattern single-fault propagation applied to the
// behavioural memory model).
//
// Because every lane holds at most ONE fault, fault interactions within
// a lane cannot occur and the per-kind mask applications are
// order-independent; lane k is bit-identical to a scalar Injected
// carrying only fault k (asserted by TestLaneInjectedMatchesScalar).
//
// A LaneInjected is an arena: Reset re-arms it for a fresh batch
// without allocating, so a grading worker builds one per geometry and
// reuses it for every batch.
type LaneInjected struct {
	size  int
	width int
	ports int
	np    int // P: active uint64 bit-planes per cell
	npCap int // allocated plane capacity; np <= npCap

	planes []uint64 // size*width*np cell planes, [cell*np+p]

	// Victim lane masks, grouped by access path so each hot loop reads
	// one contiguous stripe per (cell, plane) slot instead of chasing a
	// dozen separate arrays (stuck-at masks are written into both blocks
	// because both paths apply them). Per port; AnyPort faults set every
	// port.
	wmask laneBlock // write path: sa0, sa1, tfUp, tfDown, wdf0, wdf1
	rmask laneBlock // read path: sa0, sa1, rdf0, rdf1, irf0, irf1, drdf0, drdf1, sof

	drf []drfEntry // retention leaks, applied on Pause (port-agnostic)

	cfTrig  [][]cfEntry // aggressor cell -> CFin/CFid entries
	cfState []cfEntry   // CFst entries, re-applied after writes/pauses

	// CFst re-application is filtered to entries whose aggressor or
	// victim cell changed since the last application: because every
	// lane carries one fault, entries in untouched cells are exact
	// no-ops, so the filter is equivalence-preserving and turns the
	// per-write cost from O(all CFst entries) into O(entries of touched
	// cells). dirty/dirtyList track touched cells; hasCFst gates the
	// marking so batches without CFst faults pay nothing.
	cfStateByCell [][]int32 // cell -> indices into cfState
	dirty         []bool
	dirtyList     []int32
	hasCFst       bool

	afNone  portAddrMask // lanes whose address selects no cell
	afRedir [][]afEntry  // addr -> AFMap/AFMulti redirections
	hasAF   bool         // any decoder fault in the batch; false keeps defLanes all-ones

	faults []Fault // the batch, logical lane k = faults[k-1]

	senseLatch  [][]uint64 // [port][bit*np+p] previous sensed planes
	consecReads []int32    // per cell: consecutive reads since last write

	defLanes    []uint64 // per-plane default-decode scratch, len npCap
	readVals    []uint64 // per-plane read-result scratch, len npCap
	replayReads []uint64 // replay-loop read scratch, lazily grown
}

// Mask offsets within the write-path block (stride wStride per slot).
const (
	wSA0 = iota
	wSA1
	wTFUp
	wTFDown
	wWDF0
	wWDF1
	wStride
)

// Mask offsets within the read-path block (stride rStride per slot).
const (
	rSA0 = iota
	rSA1
	rRDF0
	rRDF1
	rIRF0
	rIRF1
	rDRDF0
	rDRDF1
	rSOF
	rStride
)

// laneBlock packs a family of per-(port, cell, plane) lane masks into
// one contiguous array, [port][slot*stride+k], so the write and read
// hot loops touch one or two cache lines per slot. Allocated lazily on
// the first fault of the family; the nil block reads as zero.
type laneBlock struct {
	byPort [][]uint64
	stride int
}

// add sets lane bits in mask k at slot idx (= cell*np+plane) of one
// port, or of every port for AnyPort. slots is the slot count
// (cells*np).
func (m *laneBlock) add(ports, slots, port, idx, k int, lane uint64) {
	if m.byPort == nil {
		m.byPort = make([][]uint64, ports)
		for p := range m.byPort {
			m.byPort[p] = make([]uint64, slots*m.stride)
		}
	}
	if port == AnyPort {
		for p := range m.byPort {
			m.byPort[p][idx*m.stride+k] |= lane
		}
		return
	}
	m.byPort[port][idx*m.stride+k] |= lane
}

// at returns the stride-long mask stripe of one slot, or nil when no
// fault of the family is injected.
func (m *laneBlock) at(port, idx int) []uint64 {
	if m.byPort == nil {
		return nil
	}
	o := idx * m.stride
	return m.byPort[port][o : o+m.stride]
}

func (m *laneBlock) reset() {
	for _, s := range m.byPort {
		clear(s)
	}
}

// portAddrMask is portCellMask indexed by addr*np+plane.
type portAddrMask struct {
	byPort [][]uint64
}

func (m *portAddrMask) add(ports, n, port, idx int, lane uint64) {
	if m.byPort == nil {
		m.byPort = make([][]uint64, ports)
		for p := range m.byPort {
			m.byPort[p] = make([]uint64, n)
		}
	}
	if port == AnyPort {
		for p := range m.byPort {
			m.byPort[p][idx] |= lane
		}
		return
	}
	m.byPort[port][idx] |= lane
}

func (m *portAddrMask) at(port, idx int) uint64 {
	if m.byPort == nil {
		return 0
	}
	return m.byPort[port][idx]
}

func (m *portAddrMask) reset() {
	for _, s := range m.byPort {
		clear(s)
	}
}

// cfEntry is one coupling fault: lane is the single bit carrying it
// within plane.
type cfEntry struct {
	agg    int
	victim int
	lane   uint64
	plane  int
	kind   Kind
	aggVal bool
	value  bool
}

// drfEntry is one retention leak.
type drfEntry struct {
	cell  int
	lane  uint64
	plane int
	value bool
}

// afEntry is one AFMap/AFMulti redirection at its faulty address.
type afEntry struct {
	lane    uint64
	plane   int
	aggAddr int
	multi   bool
	port    int
}

func (e afEntry) appliesTo(port int) bool {
	return e.port == AnyPort || e.port == port
}

// NewLaneInjected returns a single-plane (64-lane) lane-parallel memory
// of the given geometry with batch[i] injected into lane i+1 (lane 0
// stays fault-free). The batch holds at most MaxLanes faults; fault
// validation matches the scalar NewInjected. All cells start at zero.
func NewLaneInjected(size, width, ports int, batch []Fault) *LaneInjected {
	return NewLaneInjectedPlanes(size, width, ports, 1, batch)
}

// NewLaneInjectedPlanes is NewLaneInjected with planes uint64
// bit-planes per cell, giving a batch capacity of BatchLimit(planes)
// faults: batch[i] occupies logical lane i+1, which lives in plane
// (i+1)/64, bit (i+1)%64.
func NewLaneInjectedPlanes(size, width, ports, planes int, batch []Fault) *LaneInjected {
	if size <= 0 || width < 1 || width > 64 || ports <= 0 {
		panic(fmt.Sprintf("faults: bad geometry %dx%d, %d ports", size, width, ports))
	}
	if planes < 1 || planes > MaxPlanes {
		panic(fmt.Sprintf("faults: %d planes outside [1,%d]", planes, MaxPlanes))
	}
	if len(batch) > BatchLimit(planes) {
		panic(fmt.Sprintf("faults: batch of %d exceeds %d lanes", len(batch), BatchLimit(planes)))
	}
	m := &LaneInjected{
		size:          size,
		width:         width,
		ports:         ports,
		np:            planes,
		npCap:         planes,
		wmask:         laneBlock{stride: wStride},
		rmask:         laneBlock{stride: rStride},
		planes:        make([]uint64, size*width*planes),
		cfTrig:        make([][]cfEntry, size*width),
		cfStateByCell: make([][]int32, size*width),
		dirty:         make([]bool, size*width),
		afRedir:       make([][]afEntry, size),
		faults:        batch,
		consecReads:   make([]int32, size*width),
		defLanes:      make([]uint64, planes),
		readVals:      make([]uint64, planes),
	}
	for p := range m.defLanes {
		m.defLanes[p] = ^uint64(0)
	}
	m.senseLatch = make([][]uint64, ports)
	for p := range m.senseLatch {
		m.senseLatch[p] = make([]uint64, width*planes)
	}
	for i, f := range batch {
		m.inject(f, i+1)
	}
	return m
}

// Reset clears every cell, latch and injected fault and re-arms the
// memory with a fresh batch — the arena path of the grading engine.
// After the first few batches have touched every fault kind it
// allocates nothing (mask arrays are retained and zeroed in place).
func (m *LaneInjected) Reset(batch []Fault) { m.ResetPlanes(batch, m.np) }

// SameBatch reports whether the memory's current batch is the exact
// slice passed (same backing array, length and offset) — the identity
// the ResetPlanes re-injection skip keys on. Grading arenas use it to
// route a cached batch slice back to the arena already armed with it.
func (m *LaneInjected) SameBatch(batch []Fault) bool {
	return len(batch) == len(m.faults) && len(batch) > 0 && &batch[0] == &m.faults[0]
}

// ResetPlanes is Reset with an explicit active plane count in
// [1, PlaneCap()]: a 40-fault batch replayed on an 8-plane arena only
// needs 1 plane's worth of mask and cell traffic, so shrinking np per
// batch makes small batches proportionally cheaper without
// reallocating the arena.
//
// When batch is the exact slice the arena is already armed with (same
// backing array — see SameBatch) at the same plane count, the fault
// masks and entry tables are provably identical, so only the mutable
// machine state (cells, latches, read counters, CFst dirty seeds) is
// cleared and the O(batch) re-injection is skipped entirely.
func (m *LaneInjected) ResetPlanes(batch []Fault, planes int) {
	if planes < 1 || planes > m.npCap {
		panic(fmt.Sprintf("faults: %d planes outside [1,%d]", planes, m.npCap))
	}
	if len(batch) > BatchLimit(planes) {
		panic(fmt.Sprintf("faults: batch of %d exceeds %d lanes", len(batch), BatchLimit(planes)))
	}
	same := planes == m.np && m.SameBatch(batch)
	m.np = planes
	clear(m.planes)
	clear(m.consecReads)
	for p := range m.senseLatch {
		clear(m.senseLatch[p])
	}
	for _, c := range m.dirtyList {
		m.dirty[c] = false
	}
	m.dirtyList = m.dirtyList[:0]
	if same {
		m.seedDirty()
		return
	}
	m.wmask.reset()
	m.rmask.reset()
	m.afNone.reset()
	m.drf = m.drf[:0]
	m.cfState = m.cfState[:0]
	for i := range m.cfTrig {
		if m.cfTrig[i] != nil {
			m.cfTrig[i] = m.cfTrig[i][:0]
		}
	}
	for i := range m.cfStateByCell {
		if m.cfStateByCell[i] != nil {
			m.cfStateByCell[i] = m.cfStateByCell[i][:0]
		}
	}
	m.hasCFst = false
	m.hasAF = false
	for p := range m.defLanes {
		m.defLanes[p] = ^uint64(0)
	}
	for i := range m.afRedir {
		if m.afRedir[i] != nil {
			m.afRedir[i] = m.afRedir[i][:0]
		}
	}
	m.faults = batch
	for i, f := range batch {
		m.inject(f, i+1)
	}
}

// seedDirty re-seeds the CFst first-application marks that inject
// plants — the only inject side effect the same-batch Reset fast path
// must reproduce (everything else inject writes is immutable across
// replays of the same batch).
//
//mbist:hotpath
func (m *LaneInjected) seedDirty() {
	for i := range m.cfState {
		e := &m.cfState[i]
		m.markDirty(e.agg)
		m.markDirty(e.victim)
	}
}

// inject adds fault f on logical lane l (plane l/64, bit l%64).
func (m *LaneInjected) inject(f Fault, l int) {
	plane := l >> 6
	lane := uint64(1) << uint(l&63)
	np := m.np
	cells := m.size * m.width
	// Mask blocks are sized at full plane capacity so ResetPlanes can
	// grow np back without reallocating; indexing always uses the
	// active np.
	n := cells * m.npCap
	checkCell := func(c int) {
		if c < 0 || c >= cells {
			panic(fmt.Sprintf("faults: victim cell %d out of range", c))
		}
	}
	idx := func(c int) int { return c*np + plane }
	switch f.Kind {
	case SA:
		checkCell(f.Cell)
		// Stuck-at masks feed both access paths.
		k, rk := wSA0, rSA0
		if f.Value {
			k, rk = wSA1, rSA1
		}
		m.wmask.add(m.ports, n, f.Port, idx(f.Cell), k, lane)
		m.rmask.add(m.ports, n, f.Port, idx(f.Cell), rk, lane)
	case TF:
		checkCell(f.Cell)
		k := wTFDown
		if f.Value {
			k = wTFUp
		}
		m.wmask.add(m.ports, n, f.Port, idx(f.Cell), k, lane)
	case WDF:
		checkCell(f.Cell)
		k := wWDF0
		if f.Value {
			k = wWDF1
		}
		m.wmask.add(m.ports, n, f.Port, idx(f.Cell), k, lane)
	case SOF:
		checkCell(f.Cell)
		m.rmask.add(m.ports, n, f.Port, idx(f.Cell), rSOF, lane)
	case RDF:
		checkCell(f.Cell)
		k := rRDF0
		if f.Value {
			k = rRDF1
		}
		m.rmask.add(m.ports, n, f.Port, idx(f.Cell), k, lane)
	case IRF:
		checkCell(f.Cell)
		k := rIRF0
		if f.Value {
			k = rIRF1
		}
		m.rmask.add(m.ports, n, f.Port, idx(f.Cell), k, lane)
	case DRDF:
		checkCell(f.Cell)
		k := rDRDF0
		if f.Value {
			k = rDRDF1
		}
		m.rmask.add(m.ports, n, f.Port, idx(f.Cell), k, lane)
	case DRF:
		checkCell(f.Cell)
		m.drf = append(m.drf, drfEntry{cell: f.Cell, lane: lane, plane: plane, value: f.Value})
	case CFin, CFid:
		if f.Cell < 0 || f.Cell >= cells || f.Aggressor < 0 || f.Aggressor >= cells {
			panic("faults: coupling fault cell out of range")
		}
		if f.Cell == f.Aggressor {
			panic("faults: coupling fault victim == aggressor")
		}
		m.cfTrig[f.Aggressor] = append(m.cfTrig[f.Aggressor], cfEntry{
			agg: f.Aggressor, victim: f.Cell, lane: lane, plane: plane,
			kind: f.Kind, aggVal: f.AggVal, value: f.Value,
		})
	case CFst:
		if f.Cell < 0 || f.Cell >= cells || f.Aggressor < 0 || f.Aggressor >= cells {
			panic("faults: coupling fault cell out of range")
		}
		if f.Cell == f.Aggressor {
			panic("faults: coupling fault victim == aggressor")
		}
		ei := int32(len(m.cfState))
		m.cfState = append(m.cfState, cfEntry{
			agg: f.Aggressor, victim: f.Cell, lane: lane, plane: plane,
			kind: f.Kind, aggVal: f.AggVal, value: f.Value,
		})
		// Re-application triggers on changes to either endpoint: the
		// aggressor (condition flips) or the victim (overwritten value
		// must snap back while the condition holds).
		m.cfStateByCell[f.Aggressor] = append(m.cfStateByCell[f.Aggressor], ei)
		m.cfStateByCell[f.Cell] = append(m.cfStateByCell[f.Cell], ei)
		m.hasCFst = true
		// Seed the first application: the scalar model applies every
		// entry at the first write/pause, touched or not (an all-zero
		// memory can already satisfy an aggVal=false condition).
		m.markDirty(f.Aggressor)
		m.markDirty(f.Cell)
	case AFNone, AFMap, AFMulti:
		if f.Addr < 0 || f.Addr >= m.size {
			panic("faults: AF address out of range")
		}
		if f.Kind == AFNone {
			m.afNone.add(m.ports, m.size*m.npCap, f.Port, f.Addr*np+plane, lane)
		} else {
			m.afRedir[f.Addr] = append(m.afRedir[f.Addr], afEntry{
				lane: lane, plane: plane, aggAddr: f.AggAddr, multi: f.Kind == AFMulti, port: f.Port,
			})
		}
		m.hasAF = true
	default:
		panic("faults: unknown fault kind")
	}
}

// Size returns the number of word addresses.
func (m *LaneInjected) Size() int { return m.size }

// Width returns the bits per word.
func (m *LaneInjected) Width() int { return m.width }

// Ports returns the number of access ports.
func (m *LaneInjected) Ports() int { return m.ports }

// Planes returns the number of active uint64 bit-planes per cell.
func (m *LaneInjected) Planes() int { return m.np }

// PlaneCap returns the allocated plane capacity — the largest active
// plane count ResetPlanes accepts.
func (m *LaneInjected) PlaneCap() int { return m.npCap }

// Lanes returns the number of occupied fault lanes (the batch size).
func (m *LaneInjected) Lanes() int { return len(m.faults) }

// FaultMask returns the plane-0 occupied-lane mask (bits 1..63 for the
// first 63 faults of the batch); see FaultMaskPlane for the rest.
func (m *LaneInjected) FaultMask() uint64 { return m.FaultMaskPlane(0) }

// FaultMaskPlane returns the lane mask covering the occupied fault
// lanes of plane p: logical lanes 1..Lanes() fill plane 0 bits 1..63
// first, then plane 1 bits 0..63, and so on.
func (m *LaneInjected) FaultMaskPlane(p int) uint64 {
	n := len(m.faults)
	if p == 0 {
		k := n
		if k >= 63 {
			return ^uint64(0) &^ 1
		}
		return (uint64(1)<<uint(k+1) - 1) &^ 1
	}
	k := n - p*64 + 1 // occupied bits 0..k-1 of this plane
	if k <= 0 {
		return 0
	}
	if k >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(k) - 1
}

//mbist:hotpath
func (m *LaneInjected) checkAccess(port, addr int) {
	if port < 0 || port >= m.ports {
		panic(fmt.Sprintf("faults: port %d out of [0,%d)", port, m.ports))
	}
	if addr < 0 || addr >= m.size {
		panic(fmt.Sprintf("faults: address %d out of [0,%d)", addr, m.size))
	}
}

// defaultDecode fills m.defLanes with the per-plane lane sets that see
// the normally decoded cells of addr: decoder faults drop (AFNone) or
// redirect (AFMap) their lanes away from the default cells. Batches
// without decoder faults keep defLanes pinned all-ones and skip the
// recomputation entirely.
//
//mbist:hotpath
func (m *LaneInjected) defaultDecode(port, addr int, redir []afEntry) {
	if !m.hasAF {
		return
	}
	np := m.np
	for p := 0; p < np; p++ {
		m.defLanes[p] = ^uint64(0) &^ m.afNone.at(port, addr*np+p)
	}
	for _, e := range redir {
		if !e.multi && e.appliesTo(port) {
			m.defLanes[e.plane] &^= e.lane
		}
	}
}

// markDirty queues a cell for CFst re-application. Callers gate on
// hasCFst so fault-free-of-CFst batches never take the branch.
//
//mbist:hotpath
func (m *LaneInjected) markDirty(cell int) {
	if !m.dirty[cell] {
		m.dirty[cell] = true
		m.dirtyList = append(m.dirtyList, int32(cell))
	}
}

// Write stores data at addr through port in every lane at once,
// applying each lane's fault behaviour.
//
//mbist:hotpath
func (m *LaneInjected) Write(port, addr int, data uint64) {
	m.checkAccess(port, addr)
	redir := m.afRedir[addr]
	// Lanes whose decoder drops the write (AFNone) or redirects it
	// entirely (AFMap) skip the normal cells; AFMulti lanes write both.
	m.defaultDecode(port, addr, redir)
	np := m.np
	for bit := 0; bit < m.width; bit++ {
		cell := addr*m.width + bit
		var vplane uint64
		if data>>uint(bit)&1 == 1 {
			vplane = ^uint64(0)
		}
		for p := 0; p < np; p++ {
			m.writeCell(port, cell, p, vplane, m.defLanes[p])
		}
		// Writes reset read-disturb accumulation. The shared counter
		// tracks the default-decode access sequence, which is exact for
		// every lane that can carry an RDF fault (an RDF lane never has
		// a decoder fault of its own).
		m.consecReads[cell] = 0
		for _, e := range redir {
			if !e.appliesTo(port) {
				continue
			}
			m.writeCell(port, e.aggAddr*m.width+bit, e.plane, vplane, e.lane)
		}
	}
	m.applyStateCFs()
}

// writeCell updates one plane of one cell within laneMask, applying
// write-path faults and firing coupling triggers for lanes whose cell
// transitioned.
//
//mbist:hotpath
func (m *LaneInjected) writeCell(port, cell, plane int, vplane, laneMask uint64) {
	i := cell*m.np + plane
	old := m.planes[i]
	eff := vplane
	if w := m.wmask.at(port, i); w != nil {
		// Stuck-at lanes hold their value regardless of the write.
		eff = (eff &^ w[wSA0]) | w[wSA1]
		// Transition faults: ⟨↑⟩ lanes cannot rise, ⟨↓⟩ lanes cannot fall.
		eff &^= w[wTFUp] & ^old
		eff |= w[wTFDown] & old
		// Write-disturb: a non-transition write flips the cell.
		eff |= w[wWDF0] & ^old & ^vplane
		eff &^= w[wWDF1] & old & vplane
	}

	next := (old &^ laneMask) | (eff & laneMask)
	m.planes[i] = next

	changed := old ^ next
	if changed == 0 {
		return
	}
	if m.hasCFst {
		m.markDirty(cell)
	}
	if trig := m.cfTrig[cell]; len(trig) > 0 {
		rose := changed & next
		fell := changed & old
		for _, e := range trig {
			if e.plane != plane {
				continue
			}
			var fire uint64
			if e.aggVal {
				fire = rose & e.lane
			} else {
				fire = fell & e.lane
			}
			if fire == 0 {
				continue
			}
			// Victim updates are direct (non-cascading), the standard
			// single-fault simulation semantics.
			vi := e.victim*m.np + plane
			if e.kind == CFin {
				m.planes[vi] ^= fire
			} else if e.value {
				m.planes[vi] |= fire
			} else {
				m.planes[vi] &^= fire
			}
			if m.hasCFst {
				m.markDirty(e.victim)
			}
		}
	}
}

// applyStateCFs re-applies CFst entries whose aggressor or victim cell
// changed since the last application. Entries of untouched cells are
// exact no-ops (their condition and victim bits are unchanged, and
// entries live in disjoint lanes so applications cannot interact), so
// the dirty filter preserves the re-apply-after-every-write semantics
// of the scalar model. Applying an entry twice (its cells both dirty)
// is idempotent.
//
//mbist:hotpath
func (m *LaneInjected) applyStateCFs() {
	if len(m.dirtyList) == 0 {
		return
	}
	for _, c := range m.dirtyList {
		m.dirty[c] = false
		for _, ei := range m.cfStateByCell[c] {
			e := &m.cfState[ei]
			cond := m.planes[e.agg*m.np+e.plane]
			if !e.aggVal {
				cond = ^cond
			}
			cond &= e.lane
			vi := e.victim*m.np + e.plane
			if e.value {
				m.planes[vi] |= cond
			} else {
				m.planes[vi] &^= cond
			}
		}
	}
	m.dirtyList = m.dirtyList[:0]
}

// ReadLanes reads the word at addr through port in every lane at once
// and appends width×Planes() per-bit result planes to dst: bit b of
// dst[bit*Planes()+p] is logical lane p*64+b's read value of word bit
// `bit`. It applies read-path fault behaviour — including its side
// effects on cell state, sense latches and read-disturb counters —
// lane-exactly.
//
//mbist:hotpath
func (m *LaneInjected) ReadLanes(port, addr int, dst []uint64) []uint64 {
	m.checkAccess(port, addr)
	redir := m.afRedir[addr]
	m.defaultDecode(port, addr, redir)
	np := m.np
	for bit := 0; bit < m.width; bit++ {
		cell := addr*m.width + bit
		// One architectural read of the default-decoded cell, however
		// many planes carry it.
		m.consecReads[cell]++
		for p := 0; p < np; p++ {
			v := m.readCell(port, cell, bit, p, m.defLanes[p])
			if noneLanes := m.afNone.at(port, addr*np+p); noneLanes != 0 {
				// No cell selected: the data bus floats; model as
				// all-zeros and reset the sense latch on those lanes.
				v &^= noneLanes
				m.senseLatch[port][bit*np+p] &^= noneLanes
			}
			m.readVals[p] = v
		}
		for _, e := range redir {
			if !e.appliesTo(port) {
				continue
			}
			av := m.readCell(port, e.aggAddr*m.width+bit, bit, e.plane, e.lane)
			if e.multi {
				// Multi-select reads see the wired-AND of both cells.
				m.readVals[e.plane] &^= e.lane &^ av
			} else {
				m.readVals[e.plane] = (m.readVals[e.plane] &^ e.lane) | (av & e.lane)
			}
		}
		// readVals is sized for the plane capacity; only the active
		// planes carry lanes when a batch narrower than capacity is
		// resident (ResetPlanes with planes < cap), so append exactly
		// np entries per bit as documented.
		dst = append(dst, m.readVals[:np]...)
	}
	return dst
}

// readCell senses one plane of one cell within laneMask, applying
// read-path faults. The consecutive-read counter is maintained by the
// caller, once per architectural read of the default-decoded cell
// (redirected aggressor reads never count — exact for RDF lanes, which
// never carry a decoder fault of their own; see Write).
//
//mbist:hotpath
func (m *LaneInjected) readCell(port, cell, bit, plane int, laneMask uint64) uint64 {
	i := cell*m.np + plane
	raw := m.planes[i]
	v := raw
	var sofLanes uint64
	if r := m.rmask.at(port, i); r != nil {
		v = (v &^ r[rSA0]) | r[rSA1]
		if m.consecReads[cell] >= 3 {
			// Disconnected pull-up/down: the 3rd+ consecutive read decays
			// to the fault value.
			v = (v &^ r[rRDF0]) | r[rRDF1]
		}
		// Incorrect-read: the complement is returned, the cell unchanged.
		v |= r[rIRF0] & ^raw
		v &^= r[rIRF1] & raw
		// Deceptive read-destructive: the read returns the correct value
		// but flips the cell.
		set := r[rDRDF0] & ^raw & laneMask
		clr := r[rDRDF1] & raw & laneMask
		if set|clr != 0 {
			m.planes[i] = (raw | set) &^ clr
			if m.hasCFst {
				// The flip must reach any CFst watching this cell at the
				// next write/pause application point.
				m.markDirty(cell)
			}
		}
		sofLanes = r[rSOF] & laneMask
	}
	// Stuck-open lanes re-deliver the sense amplifier's previous value
	// and do not refresh it; every other lane latches what it sensed.
	li := bit*m.np + plane
	latch := m.senseLatch[port][li]
	out := (v &^ sofLanes) | (latch & sofLanes)
	update := laneMask &^ sofLanes
	m.senseLatch[port][li] = (latch &^ update) | (v & update)
	return out
}

// Pause models a retention delay: every DRF victim leaks to its value
// in its lane.
//
//mbist:hotpath
func (m *LaneInjected) Pause() {
	for _, e := range m.drf {
		i := e.cell*m.np + e.plane
		if e.value {
			m.planes[i] |= e.lane
		} else {
			m.planes[i] &^= e.lane
		}
		if m.hasCFst {
			m.markDirty(e.cell)
		}
	}
	m.applyStateCFs()
}

// loadLatch sets port's sense latch to data in every lane: what a read
// of fault-free cells holding data leaves behind (see UOpSense).
//
//mbist:hotpath
func (m *LaneInjected) loadLatch(port int, data uint64) {
	sl := m.senseLatch[port]
	np := m.np
	for bit := 0; bit < m.width; bit++ {
		v := -(data >> uint(bit) & 1)
		for p := 0; p < np; p++ {
			sl[bit*np+p] = v
		}
	}
}

// CellPlane returns the raw stored plane-0 lane word of a cell (test
// introspection).
func (m *LaneInjected) CellPlane(cell int) uint64 { return m.planes[cell*m.np] }

// LaneCellState returns logical lane k's stored value of a cell (test
// introspection; lane 0 is the good machine).
func (m *LaneInjected) LaneCellState(lane, cell int) bool {
	return m.planes[cell*m.np+lane>>6]>>uint(lane&63)&1 == 1
}
