// Package fsmbist implements the paper's programmable FSM-based memory
// BIST architecture (§2.2, Figs 3-5): a parameter-driven 7-state lower
// controller realising the eight standard march components SM0-SM7 of
// Eq. 2, under an upper controller built from a two-dimensional circular
// buffer of 8-bit instructions.
//
// A march algorithm is compiled to a sequence of SM components. Elements
// that are not one of the eight patterns are decomposed into several
// consecutive SM sweeps when possible — the architecture's flexibility
// limit (the paper rates it MEDIUM against the microcode architecture's
// HIGH): decomposition multiplies address sweeps and therefore test
// time.
package fsmbist

import (
	"fmt"

	"repro/internal/march"
)

// SM identifies one of the eight standard march components of Eq. 2.
type SM uint8

// The component patterns, written relative to the instruction's base
// data polarity d ("0" = d, "1" = d̄):
//
//	SM0 ⇕(w d)              SM4 ⇕(r d, r d, r d)
//	SM1 ⇕(r d, w d̄)         SM5 ⇕(r d)
//	SM2 ⇕(r d, w d̄, r d̄, w d)  SM6 ⇕(r d, w d̄, w d, w d̄)
//	SM3 ⇕(r d, w d̄, w d)     SM7 ⇕(r d, w d̄, r d̄)
const (
	SM0 SM = iota
	SM1
	SM2
	SM3
	SM4
	SM5
	SM6
	SM7
)

// relOp is an op with polarity relative to the base data d.
type relOp struct {
	kind march.OpKind
	inv  bool // true = complement of d
}

var smPatterns = [8][]relOp{
	SM0: {{march.Write, false}},
	SM1: {{march.Read, false}, {march.Write, true}},
	SM2: {{march.Read, false}, {march.Write, true}, {march.Read, true}, {march.Write, false}},
	SM3: {{march.Read, false}, {march.Write, true}, {march.Write, false}},
	SM4: {{march.Read, false}, {march.Read, false}, {march.Read, false}},
	SM5: {{march.Read, false}},
	SM6: {{march.Read, false}, {march.Write, true}, {march.Write, false}, {march.Write, true}},
	SM7: {{march.Read, false}, {march.Write, true}, {march.Read, true}},
}

// Ops returns the component's op sequence for base polarity d.
func (s SM) Ops(d bool) []march.Op {
	pat := smPatterns[s]
	ops := make([]march.Op, len(pat))
	for i, p := range pat {
		ops[i] = march.Op{Kind: p.kind, Data: p.inv != d}
	}
	return ops
}

// NumOps returns the op count of the component.
func (s SM) NumOps() int { return len(smPatterns[s]) }

func (s SM) String() string { return fmt.Sprintf("SM%d", int(s)) }

// Instruction is one 8-bit word of the upper controller's circular
// buffer (Fig. 5). Field layout (LSB first):
//
//	bit 0   Hold     — hold the lower controller in Done after this
//	                   component (the retention-delay phase)
//	bit 1   AddrDown — reference address order
//	bit 2   DataInc  — step the data-background generator (loop-back
//	                   instruction; no memory sweep)
//	bit 3   DataInv  — base data polarity d
//	bit 4   PortInc  — activate the next port (loop-back path B; no
//	                   memory sweep; terminates the test after the last
//	                   port)
//	bits 5-7 SM      — march component selector
type Instruction struct {
	Hold     bool
	AddrDown bool
	DataInc  bool
	DataInv  bool
	PortInc  bool
	SM       SM
}

// WordBits is the instruction width of the upper controller.
const WordBits = 8

// Encode packs the instruction into its 8-bit binary form.
func (in Instruction) Encode() uint8 {
	var w uint8
	set := func(bit int, v bool) {
		if v {
			w |= 1 << uint(bit)
		}
	}
	set(0, in.Hold)
	set(1, in.AddrDown)
	set(2, in.DataInc)
	set(3, in.DataInv)
	set(4, in.PortInc)
	w |= uint8(in.SM&7) << 5
	return w
}

// Decode unpacks an 8-bit word.
func Decode(w uint8) Instruction {
	get := func(bit int) bool { return w>>uint(bit)&1 == 1 }
	return Instruction{
		Hold:     get(0),
		AddrDown: get(1),
		DataInc:  get(2),
		DataInv:  get(3),
		PortInc:  get(4),
		SM:       SM(w >> 5 & 7),
	}
}

// IsFlow reports whether the instruction is a loop-back word (data
// background or port advance) that performs no memory sweep; its SM
// field is a don't-care, like the "xxx" rows of Fig. 5.
func (in Instruction) IsFlow() bool { return in.DataInc || in.PortInc }

func (in Instruction) String() string {
	if in.DataInc {
		return "loopdata"
	}
	if in.PortInc {
		return "loopport"
	}
	s := in.SM.String()
	if in.AddrDown {
		s += " down"
	} else {
		s += " up"
	}
	s += " d=" + map[bool]string{false: "0", true: "1"}[in.DataInv]
	if in.Hold {
		s += " hold"
	}
	return s
}
