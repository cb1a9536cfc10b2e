package faults

import "fmt"

// Caps is the bitset of fault-mechanism capabilities a batch needs
// from the replay engine. Each injected fault contributes the
// machinery its kind requires; the union selects the cheapest replay
// kernel that is exact for the whole batch (see Kernel).
type Caps uint8

const (
	// CapAF: address-decoder faults — redirect decode on every access.
	CapAF Caps = 1 << iota
	// CapCoupling: aggressor-triggered coupling (CFin/CFid/CFst) —
	// transition detection and trigger firing on every write.
	CapCoupling
	// CapState: state coupling (CFst) — dirty tracking plus condition
	// re-application after every write and pause.
	CapState
	// CapLatch: read-path state — SOF sense latches, RDF consecutive-
	// read counters, DRDF cell flips.
	CapLatch
	// CapPause: retention leaks (DRF) applied on Pause.
	CapPause
)

// capsOf maps a fault kind to the replay capabilities it requires.
// SA/TF/WDF/IRF are pure mask applications and require none.
func capsOf(k Kind) Caps {
	switch k {
	case SOF, RDF, DRDF:
		return CapLatch
	case DRF:
		return CapPause
	case CFin, CFid:
		return CapCoupling
	case CFst:
		return CapCoupling | CapState
	case AFNone, AFMap, AFMulti:
		return CapAF
	default:
		return 0
	}
}

// Caps returns the union of the current batch's capabilities.
func (m *LaneInjected) Caps() Caps { return m.caps }

// Kernel identifies which specialized replay loop a batch's
// capabilities admit. Kernels are exact, not approximate: each one is
// the general machine with the code paths its excluded capabilities
// would exercise provably dead, so every kernel produces bit-identical
// lane verdicts to the general path (asserted by TestReplayKernels*).
type Kernel uint8

const (
	// KernelGeneral is the catch-all: full Write/ReadLanes semantics.
	KernelGeneral Kernel = iota
	// KernelMask handles pure mask faults (SA/TF/WDF/IRF, plus DRF
	// pause leaks): no redirect decode, no triggers, no dirty tracking,
	// no read-path state.
	KernelMask
	// KernelLatch adds read-path state (SOF/RDF/DRDF) to KernelMask.
	KernelLatch
	// KernelCoupling adds write triggers and CFst re-application to
	// KernelMask.
	KernelCoupling
	// KernelAF handles decoder-fault-only batches: redirect decode
	// without any mask, trigger or read-path machinery.
	KernelAF
)

// String names the kernel as reported in obs metrics and test output.
func (k Kernel) String() string {
	switch k {
	case KernelMask:
		return "mask"
	case KernelLatch:
		return "latch"
	case KernelCoupling:
		return "coupling"
	case KernelAF:
		return "af"
	default:
		return "general"
	}
}

// Kernel selects the cheapest exact kernel for the current batch.
func (m *LaneInjected) Kernel() Kernel {
	switch {
	case m.caps&^CapPause == 0:
		return KernelMask
	case m.caps&^(CapLatch|CapPause) == 0:
		return KernelLatch
	case m.caps&^(CapCoupling|CapState|CapPause) == 0:
		return KernelCoupling
	case m.caps == CapAF:
		return KernelAF
	default:
		return KernelGeneral
	}
}

// µop opcodes.
const (
	// UOpWrite stores Data at Addr through Port.
	UOpWrite uint8 = iota
	// UOpRead reads Addr through Port and compares against Data, the
	// expected fault-free value.
	UOpRead
	// UOpPause models a retention delay (march "Del" element).
	UOpPause
	// UOpSense loads Data into Port's sense latch in every lane. Only
	// projected streams carry it (see ReplayProjected): it stands for a
	// read of a word outside the projection, which senses fault-free
	// cells in every lane. Captured streams never contain it, so
	// NewCompiledStream rejects it.
	UOpSense
)

// UOp is one compiled micro-operation of a march stream: the port,
// address and data of a march primitive with the first cell index
// (Addr×width) pre-resolved, so replay kernels index cell planes with
// one multiply per op instead of one per bit.
type UOp struct {
	// Data is the written word (UOpWrite) or the expected fault-free
	// read value (UOpRead).
	Data uint64
	// Cell is Addr*width, the plane-array row of the word's first bit.
	Cell int32
	// Addr is the word address.
	Addr int32
	// Kind is the opcode (UOpWrite/UOpRead/UOpPause).
	Kind uint8
	// Port is the access port.
	Port uint8
	// prevRead is, on a compiled read, the µop index of the previous
	// read on the same port (-1 for none). NewCompiledStream sets it;
	// it sits in what would be padding, so µops stay 24 bytes.
	prevRead int32
}

// CompiledStream is a validated, immutable µop program for one
// (algorithm, geometry): every port and address is bounds-checked at
// compile time, so replay kernels run without per-op access checks.
// Compile once (it is content-addressed by the coverage layer), replay
// per batch.
//
// The stream also carries a per-word µop index for support-sliced
// replay (ReplayProjected), in CSR layout (4 B per µop):
// byWord[wordStart[a]:wordStart[a+1]] lists, in stream order, the µops
// that access word a. pauses lists the pause µops. With each read's
// link to the previous read on its port (UOp.prevRead), that is all a
// projection needs to stand in for the reads it drops.
type CompiledStream struct {
	size  int
	width int
	ports int
	ops   []UOp

	wordStart []int32
	byWord    []int32
	pauses    []int32

	// goodErr is the first misread of a fault-free machine running the
	// whole stream, nil when every expected read value is right.
	goodErr error
}

// NewCompiledStream validates ops against the geometry and returns the
// compiled program. The op slice is copied: a CompiledStream never
// aliases caller memory, so cached streams are safe to share across
// grading workers.
//
// It also runs the stream once on a fault-free machine and keeps the
// outcome (GoodMachineErr): a projected replay only checks the good
// machine on its own words, so this one pass is what checks the rest.
func NewCompiledStream(size, width, ports int, ops []UOp) (*CompiledStream, error) {
	if size <= 0 || width < 1 || width > 64 || ports <= 0 {
		return nil, fmt.Errorf("faults: bad geometry %dx%d, %d ports", size, width, ports)
	}
	var wordMask uint64 = ^uint64(0)
	if width < 64 {
		wordMask = uint64(1)<<uint(width) - 1
	}
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case UOpPause:
			continue
		case UOpWrite, UOpRead:
		default:
			return nil, fmt.Errorf("faults: µop %d has unknown opcode %d", i, op.Kind)
		}
		if int(op.Port) >= ports {
			return nil, fmt.Errorf("faults: µop %d port %d out of [0,%d)", i, op.Port, ports)
		}
		if op.Addr < 0 || int(op.Addr) >= size {
			return nil, fmt.Errorf("faults: µop %d address %d out of [0,%d)", i, op.Addr, size)
		}
		if int(op.Cell) != int(op.Addr)*width {
			return nil, fmt.Errorf("faults: µop %d cell %d != addr %d × width %d", i, op.Cell, op.Addr, width)
		}
		if op.Data&^wordMask != 0 {
			return nil, fmt.Errorf("faults: µop %d data %#x exceeds %d-bit word", i, op.Data, width)
		}
	}
	cs := &CompiledStream{size: size, width: width, ports: ports, ops: make([]UOp, len(ops))}
	copy(cs.ops, ops)
	cs.index()
	return cs, nil
}

// index builds the per-word µop index, the pause list and the
// previous-read links, and runs the fault-free machine.
func (cs *CompiledStream) index() {
	cs.wordStart = make([]int32, cs.size+1)
	lastRead := make([]int32, cs.ports)
	for p := range lastRead {
		lastRead[p] = -1
	}
	good := make([]uint64, cs.size)
	for i := range cs.ops {
		op := &cs.ops[i]
		op.prevRead = -1
		if op.Kind == UOpPause {
			cs.pauses = append(cs.pauses, int32(i))
			continue
		}
		cs.wordStart[op.Addr+1]++
		if op.Kind == UOpWrite {
			good[op.Addr] = op.Data
			continue
		}
		op.prevRead = lastRead[op.Port]
		lastRead[op.Port] = int32(i)
		if good[op.Addr] != op.Data && cs.goodErr == nil {
			cs.goodErr = fmt.Errorf("faults: fault-free machine reads %#x at port %d addr %d (µop %d), stream expects %#x",
				good[op.Addr], op.Port, op.Addr, i, op.Data)
		}
	}
	for a := 0; a < cs.size; a++ {
		cs.wordStart[a+1] += cs.wordStart[a]
	}
	cs.byWord = make([]int32, cs.wordStart[cs.size])
	fill := append([]int32(nil), cs.wordStart[:cs.size]...)
	for i := range cs.ops {
		if op := &cs.ops[i]; op.Kind != UOpPause {
			cs.byWord[fill[op.Addr]] = int32(i)
			fill[op.Addr]++
		}
	}
}

// Len returns the µop count.
func (cs *CompiledStream) Len() int { return len(cs.ops) }

// GoodMachineErr reports the first read whose expected value a
// fault-free machine running the whole stream does not return, or nil.
// Whole-stream replay finds such a read on its own (lane 0 misreads);
// a projected replay only sees reads of its own words, so a grader
// that replays projections must check this first.
func (cs *CompiledStream) GoodMachineErr() error { return cs.goodErr }

// Project appends to dst the stream restricted to the µops that access
// words, plus every pause, in stream order, with word words[k]
// renumbered to local address k. A projected read whose previous read
// on the same port hit a word outside the projection is preceded by a
// UOpSense carrying that read's expected word: that read sensed
// fault-free cells in every lane, which is what the sense latch then
// holds. words holds one or two distinct in-range addresses.
//
// The result is exactly what ReplayProjected replays for words, so a
// fault localised onto two supports with equal projections gets the
// same verdict on either.
//
//mbist:hotpath
func (cs *CompiledStream) Project(words []int32, dst []UOp) []UOp {
	w0, w1 := words[0], int32(-1)
	a := cs.byWord[cs.wordStart[w0]:cs.wordStart[w0+1]]
	var b []int32
	if len(words) > 1 {
		w1 = words[1]
		b = cs.byWord[cs.wordStart[w1]:cs.wordStart[w1+1]]
	}
	ps := cs.pauses
	for len(a)+len(b) > 0 {
		var i int32
		if len(b) == 0 || len(a) > 0 && a[0] < b[0] {
			i, a = a[0], a[1:]
		} else {
			i, b = b[0], b[1:]
		}
		for len(ps) > 0 && ps[0] < i {
			ps = ps[1:]
			dst = append(dst, UOp{Kind: UOpPause})
		}
		op := cs.ops[i]
		if op.Kind == UOpRead {
			if j := op.prevRead; j >= 0 {
				if pa := cs.ops[j].Addr; pa != w0 && pa != w1 {
					dst = append(dst, UOp{Kind: UOpSense, Port: op.Port, Data: cs.ops[j].Data})
				}
			}
		}
		local := int32(0)
		if op.Addr != w0 {
			local = 1
		}
		op.Addr, op.Cell, op.prevRead = local, local*int32(cs.width), -1
		dst = append(dst, op)
	}
	for range ps {
		dst = append(dst, UOp{Kind: UOpPause})
	}
	return dst
}

// ReplayProjected replays the stream projected onto one or two words
// (see Project) on a local memory whose address k stands for words[k],
// with the batch's faults injected in those local coordinates. Faults
// of the batch must touch no word outside words; then every other word
// holds fault-free values in every lane and dropping its µops changes
// no verdict. buf is scratch for the projection, returned for reuse.
// Lane 0 is checked only on the projected reads: callers check the
// whole stream with GoodMachineErr.
//
//mbist:hotpath
func (m *LaneInjected) ReplayProjected(cs *CompiledStream, words []int32, buf []UOp, fail *[MaxPlanes]uint64) (Kernel, []UOp, error) {
	if cs.width != m.width || cs.ports != m.ports {
		return 0, buf, fmt.Errorf("faults: stream compiled for width %d/%d ports replayed on %d/%d",
			cs.width, cs.ports, m.width, m.ports)
	}
	if len(words) < 1 || len(words) > 2 || len(words) > m.size {
		return 0, buf, fmt.Errorf("faults: projection onto %d words on a %d-word memory", len(words), m.size)
	}
	for k, a := range words {
		if a < 0 || int(a) >= cs.size || (k == 1 && a == words[0]) {
			return 0, buf, fmt.Errorf("faults: bad projection words %v for %d-word stream", words, cs.size)
		}
	}
	buf = cs.Project(words, buf[:0])
	kern, err := m.replayOps(buf, fail)
	return kern, buf, err
}

// Geometry returns the memory geometry the stream was compiled for.
func (cs *CompiledStream) Geometry() (size, width, ports int) {
	return cs.size, cs.width, cs.ports
}

// Replay runs the compiled stream through every lane at once and
// accumulates per-plane fail masks into fail: bit b of fail[p] is set
// iff logical lane p*64+b returned a wrong value on some read. It
// dispatches to the cheapest kernel the batch's capabilities admit and
// returns which one ran.
//
// Replay early-exits once every occupied fault lane has failed (the
// verdict can no longer change), and errors out if the good machine
// (lane 0) ever misreads — the signal that the stream does not match
// this geometry's fault-free behaviour.
//
//mbist:hotpath
func (m *LaneInjected) Replay(cs *CompiledStream, fail *[MaxPlanes]uint64) (Kernel, error) {
	if cs.size != m.size || cs.width != m.width || cs.ports != m.ports {
		return 0, fmt.Errorf("faults: stream compiled for %dx%d/%d replayed on %dx%d/%d",
			cs.size, cs.width, cs.ports, m.size, m.width, m.ports)
	}
	return m.replayOps(cs.ops, fail)
}

// replayOps runs validated µops through the cheapest kernel the batch
// admits.
//
//mbist:hotpath
func (m *LaneInjected) replayOps(ops []UOp, fail *[MaxPlanes]uint64) (Kernel, error) {
	*fail = [MaxPlanes]uint64{}
	var occ [MaxPlanes]uint64
	for p := 0; p < m.np; p++ {
		occ[p] = m.FaultMaskPlane(p)
	}
	kern := m.Kernel()
	var err error
	switch kern {
	case KernelMask:
		err = m.replayMask(ops, fail, &occ)
	case KernelLatch:
		err = m.replayLatch(ops, fail, &occ)
	case KernelCoupling:
		err = m.replayCoupling(ops, fail, &occ)
	case KernelAF:
		err = m.replayAF(ops, fail, &occ)
	default:
		err = m.replayGeneral(ops, fail, &occ)
	}
	return kern, err
}

// goodLaneErr reports a good-machine misread: the stream does not
// match the fault-free behaviour of the geometry it was compiled for.
func goodLaneErr(op *UOp) error {
	return fmt.Errorf("faults: good machine failed reading port %d addr %d", op.Port, op.Addr)
}

// replayDone reports whether every occupied lane has already failed.
//
//mbist:hotpath
func replayDone(fail, occ *[MaxPlanes]uint64, np int) bool {
	for p := 0; p < np; p++ {
		if fail[p]&occ[p] != occ[p] {
			return false
		}
	}
	return true
}

// replayMask is the pure-mask kernel: writes apply the write-path mask
// stripe, reads apply the SA/IRF read masks and compare. No decoder
// redirects, no triggers, no dirty tracking, no latch or counter
// state exist in the batch, so none are maintained.
//
//mbist:hotpath
func (m *LaneInjected) replayMask(ops []UOp, fail, occ *[MaxPlanes]uint64) error {
	np, width, planes := m.np, m.width, m.planes
	wb, rb := m.wmask.byPort, m.rmask.byPort
	for oi := range ops {
		op := &ops[oi]
		switch op.Kind {
		case UOpWrite:
			s := int(op.Cell) * np
			var wp []uint64
			if wb != nil {
				wp = wb[op.Port]
			}
			if wp == nil {
				for bit := 0; bit < width; bit++ {
					v := -(op.Data >> uint(bit) & 1)
					for p := 0; p < np; p++ {
						planes[s] = v
						s++
					}
				}
				continue
			}
			for bit := 0; bit < width; bit++ {
				v := -(op.Data >> uint(bit) & 1)
				for p := 0; p < np; p++ {
					old := planes[s]
					o := s * wStride
					eff := (v &^ wp[o+wSA0]) | wp[o+wSA1]
					eff &^= wp[o+wTFUp] &^ old
					eff |= wp[o+wTFDown] & old
					eff |= wp[o+wWDF0] &^ old &^ v
					eff &^= wp[o+wWDF1] & old & v
					planes[s] = eff
					s++
				}
			}
		case UOpRead:
			s := int(op.Cell) * np
			var rp []uint64
			if rb != nil {
				rp = rb[op.Port]
			}
			for bit := 0; bit < width; bit++ {
				exp := -(op.Data >> uint(bit) & 1)
				if rp == nil {
					for p := 0; p < np; p++ {
						fail[p] |= planes[s] ^ exp
						s++
					}
					continue
				}
				for p := 0; p < np; p++ {
					raw := planes[s]
					o := s * rStride
					v := (raw &^ rp[o+rSA0]) | rp[o+rSA1]
					v |= rp[o+rIRF0] &^ raw
					v &^= rp[o+rIRF1] & raw
					fail[p] |= v ^ exp
					s++
				}
			}
			if fail[0]&1 != 0 {
				return goodLaneErr(op)
			}
			if replayDone(fail, occ, np) {
				return nil
			}
		case UOpSense:
			// No sense-latch state in a mask batch.
		default: // UOpPause
			for _, e := range m.drf {
				i := e.cell*np + e.plane
				if e.value {
					planes[i] |= e.lane
				} else {
					planes[i] &^= e.lane
				}
			}
		}
	}
	return nil
}

// replayLatch extends replayMask with read-path state: RDF
// consecutive-read counters, DRDF destructive flips and SOF sense
// latches. Still no decoder or coupling machinery.
//
//mbist:hotpath
func (m *LaneInjected) replayLatch(ops []UOp, fail, occ *[MaxPlanes]uint64) error {
	np, width, planes := m.np, m.width, m.planes
	wb, rb := m.wmask.byPort, m.rmask.byPort
	for oi := range ops {
		op := &ops[oi]
		switch op.Kind {
		case UOpWrite:
			cell0 := int(op.Cell)
			s := cell0 * np
			var wp []uint64
			if wb != nil {
				wp = wb[op.Port]
			}
			for bit := 0; bit < width; bit++ {
				m.consecReads[cell0+bit] = 0
				v := -(op.Data >> uint(bit) & 1)
				if wp == nil {
					for p := 0; p < np; p++ {
						planes[s] = v
						s++
					}
					continue
				}
				for p := 0; p < np; p++ {
					old := planes[s]
					o := s * wStride
					eff := (v &^ wp[o+wSA0]) | wp[o+wSA1]
					eff &^= wp[o+wTFUp] &^ old
					eff |= wp[o+wTFDown] & old
					eff |= wp[o+wWDF0] &^ old &^ v
					eff &^= wp[o+wWDF1] & old & v
					planes[s] = eff
					s++
				}
			}
		case UOpRead:
			cell0 := int(op.Cell)
			s := cell0 * np
			var rp []uint64
			if rb != nil {
				rp = rb[op.Port]
			}
			sl := m.senseLatch[op.Port]
			li := 0
			for bit := 0; bit < width; bit++ {
				cell := cell0 + bit
				m.consecReads[cell]++
				decayed := m.consecReads[cell] >= 3
				exp := -(op.Data >> uint(bit) & 1)
				for p := 0; p < np; p++ {
					raw := planes[s]
					v := raw
					var sof uint64
					if rp != nil {
						o := s * rStride
						v = (raw &^ rp[o+rSA0]) | rp[o+rSA1]
						if decayed {
							v = (v &^ rp[o+rRDF0]) | rp[o+rRDF1]
						}
						v |= rp[o+rIRF0] &^ raw
						v &^= rp[o+rIRF1] & raw
						set := rp[o+rDRDF0] &^ raw
						clr := rp[o+rDRDF1] & raw
						if set|clr != 0 {
							planes[s] = (raw | set) &^ clr
						}
						sof = rp[o+rSOF]
					}
					latch := sl[li]
					fail[p] |= ((v &^ sof) | (latch & sof)) ^ exp
					sl[li] = (latch & sof) | (v &^ sof)
					s++
					li++
				}
			}
			if fail[0]&1 != 0 {
				return goodLaneErr(op)
			}
			if replayDone(fail, occ, np) {
				return nil
			}
		case UOpSense:
			m.loadLatch(int(op.Port), op.Data)
		default: // UOpPause
			for _, e := range m.drf {
				i := e.cell*np + e.plane
				if e.value {
					planes[i] |= e.lane
				} else {
					planes[i] &^= e.lane
				}
			}
		}
	}
	return nil
}

// replayCoupling extends replayMask with write-transition triggers
// (CFin/CFid) and CFst dirty tracking + re-application. Reads stay on
// the mask fast path: coupling batches carry no read-path state.
//
//mbist:hotpath
func (m *LaneInjected) replayCoupling(ops []UOp, fail, occ *[MaxPlanes]uint64) error {
	np, width, planes := m.np, m.width, m.planes
	wb, rb := m.wmask.byPort, m.rmask.byPort
	hasCFst := m.hasCFst
	for oi := range ops {
		op := &ops[oi]
		switch op.Kind {
		case UOpWrite:
			cell0 := int(op.Cell)
			s := cell0 * np
			var wp []uint64
			if wb != nil {
				wp = wb[op.Port]
			}
			for bit := 0; bit < width; bit++ {
				cell := cell0 + bit
				v := -(op.Data >> uint(bit) & 1)
				trig := m.cfTrig[cell]
				for p := 0; p < np; p++ {
					old := planes[s]
					eff := v
					if wp != nil {
						o := s * wStride
						eff = (v &^ wp[o+wSA0]) | wp[o+wSA1]
						eff &^= wp[o+wTFUp] &^ old
						eff |= wp[o+wTFDown] & old
						eff |= wp[o+wWDF0] &^ old &^ v
						eff &^= wp[o+wWDF1] & old & v
					}
					planes[s] = eff
					if changed := old ^ eff; changed != 0 {
						if hasCFst {
							m.markDirty(cell)
						}
						if len(trig) > 0 {
							rose := changed & eff
							fell := changed & old
							for ei := range trig {
								e := &trig[ei]
								if e.plane != p {
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
								vi := e.victim*np + p
								if e.kind == CFin {
									planes[vi] ^= fire
								} else if e.value {
									planes[vi] |= fire
								} else {
									planes[vi] &^= fire
								}
								if hasCFst {
									m.markDirty(e.victim)
								}
							}
						}
					}
					s++
				}
			}
			m.applyStateCFs()
		case UOpRead:
			s := int(op.Cell) * np
			var rp []uint64
			if rb != nil {
				rp = rb[op.Port]
			}
			for bit := 0; bit < width; bit++ {
				exp := -(op.Data >> uint(bit) & 1)
				if rp == nil {
					for p := 0; p < np; p++ {
						fail[p] |= planes[s] ^ exp
						s++
					}
					continue
				}
				for p := 0; p < np; p++ {
					raw := planes[s]
					o := s * rStride
					v := (raw &^ rp[o+rSA0]) | rp[o+rSA1]
					v |= rp[o+rIRF0] &^ raw
					v &^= rp[o+rIRF1] & raw
					fail[p] |= v ^ exp
					s++
				}
			}
			if fail[0]&1 != 0 {
				return goodLaneErr(op)
			}
			if replayDone(fail, occ, np) {
				return nil
			}
		case UOpSense:
			// No sense-latch state in a coupling batch.
		default: // UOpPause
			for _, e := range m.drf {
				i := e.cell*np + e.plane
				if e.value {
					planes[i] |= e.lane
				} else {
					planes[i] &^= e.lane
				}
				if hasCFst {
					m.markDirty(e.cell)
				}
			}
			m.applyStateCFs()
		}
	}
	return nil
}

// replayAF is the decoder-fault-only kernel: accesses apply AFNone
// drops and AFMap/AFMulti redirections over raw cells, with no mask,
// trigger, latch or counter machinery (an AF-only batch has none).
//
//mbist:hotpath
func (m *LaneInjected) replayAF(ops []UOp, fail, occ *[MaxPlanes]uint64) error {
	np, width, planes := m.np, m.width, m.planes
	rv := m.readVals
	for oi := range ops {
		op := &ops[oi]
		switch op.Kind {
		case UOpWrite:
			port, addr := int(op.Port), int(op.Addr)
			redir := m.afRedir[addr]
			m.defaultDecode(port, addr, redir)
			s := int(op.Cell) * np
			for bit := 0; bit < width; bit++ {
				v := -(op.Data >> uint(bit) & 1)
				for p := 0; p < np; p++ {
					lm := m.defLanes[p]
					planes[s] = (planes[s] &^ lm) | (v & lm)
					s++
				}
				for _, e := range redir {
					if !e.appliesTo(port) {
						continue
					}
					i := (e.aggAddr*width+bit)*np + e.plane
					planes[i] = (planes[i] &^ e.lane) | (v & e.lane)
				}
			}
		case UOpRead:
			port, addr := int(op.Port), int(op.Addr)
			redir := m.afRedir[addr]
			m.defaultDecode(port, addr, redir)
			s := int(op.Cell) * np
			for bit := 0; bit < width; bit++ {
				exp := -(op.Data >> uint(bit) & 1)
				for p := 0; p < np; p++ {
					rv[p] = planes[s] &^ m.afNone.at(port, addr*np+p)
					s++
				}
				for _, e := range redir {
					if !e.appliesTo(port) {
						continue
					}
					av := planes[(e.aggAddr*width+bit)*np+e.plane]
					if e.multi {
						rv[e.plane] &^= e.lane &^ av
					} else {
						rv[e.plane] = (rv[e.plane] &^ e.lane) | (av & e.lane)
					}
				}
				for p := 0; p < np; p++ {
					fail[p] |= rv[p] ^ exp
				}
			}
			if fail[0]&1 != 0 {
				return goodLaneErr(op)
			}
			if replayDone(fail, occ, np) {
				return nil
			}
		case UOpSense, UOpPause:
			// No sense-latch, retention or state-coupling faults in an
			// AF batch.
		}
	}
	return nil
}

// replayGeneral is the catch-all: full Write/ReadLanes/Pause semantics
// driven by the µop buffer, with the read fused against the expected
// values (no caller-side result buffer). Its Write/ReadLanes calls
// re-check every access, which NewCompiledStream has already proved.
//
//mbist:hotpath
func (m *LaneInjected) replayGeneral(ops []UOp, fail, occ *[MaxPlanes]uint64) error {
	np, width := m.np, m.width
	for oi := range ops {
		op := &ops[oi]
		switch op.Kind {
		case UOpWrite:
			m.Write(int(op.Port), int(op.Addr), op.Data)
		case UOpRead:
			m.replayReads = m.ReadLanes(int(op.Port), int(op.Addr), m.replayReads[:0])
			s := 0
			for bit := 0; bit < width; bit++ {
				exp := -(op.Data >> uint(bit) & 1)
				for p := 0; p < np; p++ {
					fail[p] |= m.replayReads[s] ^ exp
					s++
				}
			}
			if fail[0]&1 != 0 {
				return goodLaneErr(op)
			}
			if replayDone(fail, occ, np) {
				return nil
			}
		case UOpSense:
			m.loadLatch(int(op.Port), op.Data)
		default:
			m.Pause()
		}
	}
	return nil
}
