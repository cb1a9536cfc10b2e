package fsmbist

import (
	"fmt"

	"repro/internal/bist"
	"repro/internal/fsm"
	"repro/internal/logic"
	"repro/internal/march"
	"repro/internal/netlist"
)

// Lower-controller state indices (Fig. 4(a)): Idle, Reset, four R/W
// operation states and Done.
const (
	stIdle = iota
	stReset
	stOp1
	stOp2
	stOp3
	stOp4
	stDone
)

// LowerSpec builds the parameter-driven 7-state lower controller of
// Fig. 4(a). Inputs: start, last_addr, hold, and the 3-bit SM selector
// (sm0..sm2). The number of R/W states visited per address is the op
// count of the selected component.
func LowerSpec() *fsm.Spec {
	in := fsm.NewInputSet("start", "last_addr", "hold", "sm0", "sm1", "sm2")
	smIs := func(s SM) fsm.Guard {
		g := in.If("sm0", s&1 != 0)
		g = g.And(in.If("sm1", s&2 != 0))
		return g.And(in.If("sm2", s&4 != 0))
	}

	// lastOpState returns the operation state in which the component's
	// final op executes.
	lastOpState := func(s SM) int { return stOp1 + s.NumOps() - 1 }

	states := make([]fsm.State, 7)
	states[stIdle] = fsm.State{Name: "Idle", Transitions: []fsm.Transition{
		{Guard: in.If("start", true), Next: stReset},
	}}
	states[stReset] = fsm.State{
		Name:        "Reset",
		Outputs:     map[string]bool{"addr_rst": true},
		Transitions: []fsm.Transition{{Guard: fsm.Always, Next: stOp1}},
	}
	for op := stOp1; op <= stOp4; op++ {
		st := fsm.State{
			Name:    fmt.Sprintf("Op%d", op-stOp1+1),
			Outputs: map[string]bool{"active": true, opBitName(0): (op-stOp1)&1 != 0, opBitName(1): (op-stOp1)&2 != 0},
		}
		for s := SM0; s <= SM7; s++ {
			if lastOpState(s) == op {
				// Final op of the component: loop per address or finish.
				st.Transitions = append(st.Transitions,
					fsm.Transition{Guard: smIs(s).And(in.If("last_addr", true)), Next: stDone},
					fsm.Transition{Guard: smIs(s), Next: stOp1},
				)
			} else if lastOpState(s) > op {
				st.Transitions = append(st.Transitions,
					fsm.Transition{Guard: smIs(s), Next: op + 1},
				)
			}
			// Components with fewer ops never reach this state.
		}
		states[op] = st
	}
	states[stDone] = fsm.State{
		Name:    "Done",
		Outputs: map[string]bool{"done": true},
		Transitions: []fsm.Transition{
			{Guard: in.If("hold", true), Next: stDone},
			{Guard: fsm.Always, Next: stIdle},
		},
	}

	return &fsm.Spec{
		Name:    "fsmbist-lower",
		Inputs:  in,
		Outputs: []string{"active", "done", "addr_rst", opBitName(0), opBitName(1)},
		States:  states,
		Reset:   stIdle,
	}
}

func opBitName(i int) string { return fmt.Sprintf("op_b%d", i) }

// opDecode computes the read/write/data-polarity/address-increment
// controls for a component's op index — the combinational decode beside
// the lower FSM. It is the shared truth between the netlist generator
// and its test.
func opDecode(s SM, opIdx int) (read, write, dataInv, addrInc bool) {
	pat := smPatterns[s]
	if opIdx >= len(pat) {
		return false, false, false, false
	}
	p := pat[opIdx]
	return p.kind == march.Read, p.kind == march.Write, p.inv, opIdx == len(pat)-1
}

// HWConfig sizes the structural model of the programmable FSM-based
// BIST unit.
type HWConfig struct {
	// Slots is the circular-buffer capacity in instructions.
	Slots int
	// AddrBits, Width, Ports describe the memory geometry.
	AddrBits int
	Width    int
	Ports    int
	// IncludeDatapath adds the shared datapath to the netlist.
	IncludeDatapath bool
	// DelayTimerBits adds a retention delay timer. With none, a program
	// that holds releases its hold from a delay_done primary input.
	DelayTimerBits int
}

// DefaultHWConfig matches the paper's first experiment.
func DefaultHWConfig() HWConfig {
	return HWConfig{Slots: 8, AddrBits: 10, Width: 1, Ports: 1}
}

// Hardware couples the generated netlist with its interface nets.
type Hardware struct {
	Netlist *netlist.Netlist
	Config  HWConfig

	Head                     []netlist.NetID // instruction at the buffer head
	ReadEn, WriteEn, DataInv netlist.NetID
	AddrInc, AddrDown        netlist.NetID
	Done                     netlist.NetID
}

// BuildHardware generates the structural netlist of the programmable
// FSM-based BIST unit (Fig. 3): the 2-D circular buffer (full-scan
// registers — they shift at functional clock for every march component,
// which is why the Table 3 scan-only re-design does not apply here), the
// synthesised 7-state lower controller, the op-decode logic and the
// upper-controller loop-back decode.
func BuildHardware(p *Program, cfg HWConfig) (*Hardware, error) {
	if cfg.Slots <= 0 {
		cfg.Slots = 8
	}
	if p != nil && p.Len() > cfg.Slots {
		cfg.Slots = p.Len()
	}
	if cfg.AddrBits <= 0 {
		return nil, fmt.Errorf("fsmbist: AddrBits must be positive")
	}
	n := cfg.Slots

	nl := netlist.New("prog-fsm-bist")
	hw := &Hardware{Netlist: nl, Config: cfg}

	start := nl.AddInput("start")
	lastAddr := nl.AddInput("last_address")
	lastData := nl.AddInput("last_data")
	lastPort := nl.AddInput("last_port")

	// Circular buffer: n words of 8 bits. The head word drives the
	// lower controller; on "next instruction" every word shifts one
	// position with wrap-around (loop-back path A of Fig. 4(b)).
	rows := make([][]netlist.NetID, n)
	for i := range rows {
		var init []bool
		if p != nil && i < p.Len() {
			enc := p.Instructions[i].Encode()
			init = make([]bool, WordBits)
			for b := 0; b < WordBits; b++ {
				init[b] = enc>>uint(b)&1 == 1
			}
		}
		rows[i] = make([]netlist.NetID, WordBits)
		for b := 0; b < WordBits; b++ {
			iv := false
			if init != nil {
				iv = init[b]
			}
			rows[i][b] = nl.AddFF(netlist.CellSDFF, nl.Const0(), iv)
			nl.SetNetName(rows[i][b], fmt.Sprintf("buf%d[%d]", i, b))
		}
	}
	head := rows[0]
	hw.Head = head

	// Head word field split.
	holdBit, addrDown := head[0], head[1]
	dataInc, dataInv, portInc := head[2], head[3], head[4]
	sm := []netlist.NetID{head[5], head[6], head[7]}

	// Delay timer gates the hold release when configured. Without one, a
	// holding program releases its hold from a delay_done primary input
	// (as hardbist's pause states do); a raw head-bit hold would keep the
	// lower controller in Done forever.
	holdCond := holdBit
	if cfg.DelayTimerBits > 0 {
		timer := nl.BuildCounter("delay", cfg.DelayTimerBits, nl.Const1(), netlist.Invalid, netlist.Invalid)
		holdCond = nl.And2(holdBit, nl.Inv(timer.Terminal))
	} else if p != nil && p.Realized.Pauses() > 0 {
		holdCond = nl.And2(holdBit, nl.Inv(nl.AddInput("delay_done")))
	}

	// Lower controller.
	lower, err := fsm.SynthesiseIntoWith(LowerSpec(), nl, "lfsm_", map[string]netlist.NetID{
		"start":     start,
		"last_addr": lastAddr,
		"hold":      holdCond,
		"sm0":       sm[0],
		"sm1":       sm[1],
		"sm2":       sm[2],
	})
	if err != nil {
		return nil, err
	}
	active := lower.OutputNet["active"]
	done := lower.OutputNet["done"]
	opb := []netlist.NetID{lower.OutputNet[opBitName(0)], lower.OutputNet[opBitName(1)]}

	// Op decode: (SM, op index) -> read/write/relative polarity/addrInc.
	vars := []netlist.NetID{sm[0], sm[1], sm[2], opb[0], opb[1]}
	mk := func(which int) netlist.NetID {
		tt := logic.NewTruthTable(5)
		for row := 0; row < tt.NumRows(); row++ {
			s := SM(row & 7)
			oi := row >> 3 & 3
			r, w, d, inc := opDecode(s, oi)
			v := [4]bool{r, w, d, inc}[which]
			tt.SetBool(row, v)
		}
		return nl.FromTruthTable(tt, vars)
	}
	readRel, writeRel, dataRel, incRel := mk(0), mk(1), mk(2), mk(3)

	hw.ReadEn = nl.And2(active, readRel)
	hw.WriteEn = nl.And2(active, writeRel)
	hw.DataInv = nl.Xor2(dataRel, dataInv) // relative polarity XOR base d
	hw.AddrInc = nl.And2(active, incRel)
	hw.AddrDown = addrDown
	hw.Done = done

	// Upper-controller loop-back decode. The buffer always rotates
	// through all words (loop-back path A of Fig. 4(b)); the paper's
	// "Checking Condition" register gates the port word: while the
	// background loop is still cycling (checking = 0) the port word is
	// a plain rotation, and only once the last background completed
	// (checking = 1) does it take path B — advance the port or, at the
	// last port, raise the termination condition.
	checking := nl.AddFF(netlist.CellDFF, nl.Const0(), true)
	nl.SetNetName(checking, "checking")
	nl.SetFFInput(checking, nl.Mux2(dataInc, checking, lastData))

	isFlow := nl.Or2(dataInc, portInc)
	shift := nl.Or2(nl.And2(done, nl.Inv(holdCond)), isFlow)
	stepData := nl.And2(dataInc, nl.Inv(lastData))
	portActive := nl.And2(portInc, checking)
	stepPort := nl.And2(portActive, nl.Inv(lastPort))
	testEnd := nl.And2(portActive, lastPort)
	for i := 0; i < n; i++ {
		next := rows[(i+1)%n]
		for b := 0; b < WordBits; b++ {
			nl.SetFFInput(rows[i][b], nl.Mux2(shift, rows[i][b], next[b]))
		}
	}

	nl.AddOutput("read_en", hw.ReadEn)
	nl.AddOutput("write_en", hw.WriteEn)
	nl.AddOutput("data_inv", hw.DataInv)
	nl.AddOutput("addr_inc", hw.AddrInc)
	nl.AddOutput("addr_down", hw.AddrDown)
	nl.AddOutput("addr_rst", lower.OutputNet["addr_rst"])
	nl.AddOutput("done", done)
	nl.AddOutput("step_data", stepData)
	nl.AddOutput("step_port", stepPort)
	nl.AddOutput("test_end", testEnd)

	if cfg.IncludeDatapath {
		ag := bist.BuildAddressGen(nl, cfg.AddrBits, hw.AddrInc, hw.AddrDown, lower.OutputNet["addr_rst"])
		// The port loop restarts the background sequence (loop-back
		// path B of Fig. 4(b)).
		dg := bist.BuildDataGen(nl, cfg.Width, stepData, stepPort, hw.DataInv)
		read := make([]netlist.NetID, cfg.Width)
		for i := range read {
			read[i] = nl.AddInput(fmt.Sprintf("mem_q[%d]", i))
		}
		mismatch := bist.BuildComparator(nl, read, dg.Pattern, hw.ReadEn)
		nl.AddOutput("mismatch", mismatch)
		for i, q := range ag.Q {
			nl.AddOutput(fmt.Sprintf("mem_addr[%d]", i), q)
		}
		for i, d := range dg.Pattern {
			nl.AddOutput(fmt.Sprintf("mem_d[%d]", i), d)
		}
		nl.AddOutput("dp_last_address", ag.Last)
		nl.AddOutput("dp_last_data", dg.Last)
		if cfg.Ports > 1 {
			pq, plast := bist.BuildPortCounter(nl, cfg.Ports, stepPort, netlist.Invalid)
			for i, q := range pq {
				nl.AddOutput(fmt.Sprintf("mem_port[%d]", i), q)
			}
			nl.AddOutput("dp_last_port", plast)
		}
	}

	nl.SweepDead()
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	return hw, nil
}
