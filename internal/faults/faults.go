// Package faults implements the classical functional fault models of
// semiconductor memories (van de Goor, "Testing Semiconductor Memories")
// and a fault-injecting memory that the BIST architectures are evaluated
// against: stuck-at, transition, coupling (inversion, idempotent, state),
// stuck-open, data-retention, read-disturb (disconnected pull-up/down
// devices) and address-decoder faults, with optional port-specific
// visibility for multiport memories.
//
// # Panic contract
//
// Validate is the error-returning check for a geometry plus fault
// list; callers holding unvalidated user input (the mbist facade,
// mbistsim's -fault flags) run it first and surface the error. The
// NewInjected/NewLaneInjected constructors and the per-operation
// bounds checks panic on the same conditions: they run in the grading
// hot loop — one constructor call per fault (or per lane batch) of
// a universe enumerated by this package, millions per matrix sweep —
// so a violation there is a programming error in fault enumeration or
// stream replay, not an input error. The grading pipeline's worker
// isolation (internal/resilience.Capture) converts such panics into
// quarantined verdicts rather than crashed sweeps.
package faults

import "fmt"

// Validate checks a geometry and fault list the way the injecting
// constructors do, returning the first problem as an error instead of
// panicking: geometry bounds, victim/aggressor cell ranges, aggressor
// distinctness for coupling faults, decoder-fault address ranges and
// port visibility. A nil return guarantees NewInjected (and, for lists
// of at most MaxLanes faults, NewLaneInjected) will not panic on the
// same input.
func Validate(size, width, ports int, faultList ...Fault) error {
	if size <= 0 || width < 1 || width > 64 || ports <= 0 {
		return fmt.Errorf("faults: bad geometry %dx%d, %d ports", size, width, ports)
	}
	cells := size * width
	for i, f := range faultList {
		if f.Port != AnyPort && (f.Port < 0 || f.Port >= ports) {
			return fmt.Errorf("faults: fault %d (%v): port %d out of [0,%d)", i, f, f.Port, ports)
		}
		switch f.Kind {
		case SA, TF, SOF, DRF, RDF, WDF, IRF, DRDF:
			if f.Cell < 0 || f.Cell >= cells {
				return fmt.Errorf("faults: fault %d (%v): victim cell %d out of [0,%d)", i, f, f.Cell, cells)
			}
		case CFin, CFid, CFst:
			if f.Cell < 0 || f.Cell >= cells || f.Aggressor < 0 || f.Aggressor >= cells {
				return fmt.Errorf("faults: fault %d (%v): coupling cells (%d,%d) out of [0,%d)",
					i, f, f.Aggressor, f.Cell, cells)
			}
			if f.Cell == f.Aggressor {
				return fmt.Errorf("faults: fault %d (%v): coupling victim == aggressor", i, f)
			}
		case AFNone, AFMap, AFMulti:
			if f.Addr < 0 || f.Addr >= size {
				return fmt.Errorf("faults: fault %d (%v): address %d out of [0,%d)", i, f, f.Addr, size)
			}
			if (f.Kind == AFMap || f.Kind == AFMulti) && (f.AggAddr < 0 || f.AggAddr >= size) {
				return fmt.Errorf("faults: fault %d (%v): aggressor address %d out of [0,%d)", i, f, f.AggAddr, size)
			}
		default:
			return fmt.Errorf("faults: fault %d: unknown kind %d", i, int(f.Kind))
		}
	}
	return nil
}

// Kind classifies a functional fault.
type Kind uint8

const (
	// SA is a stuck-at fault: the cell always holds Value.
	SA Kind = iota
	// TF is a transition fault: the cell cannot transition *to* Value
	// (TF with Value=1 is an "up" transition fault, ⟨↑/0⟩).
	TF
	// CFin is an inversion coupling fault: an aggressor transition
	// (rising when AggVal, falling otherwise) inverts the victim.
	CFin
	// CFid is an idempotent coupling fault: an aggressor transition
	// (direction AggVal) forces the victim to Value.
	CFid
	// CFst is a state coupling fault: while the aggressor holds AggVal,
	// the victim is forced to Value.
	CFst
	// SOF is a stuck-open fault: reading the cell returns the sense
	// amplifier's previous value instead of the cell content.
	SOF
	// DRF is a data-retention fault: after a pause (delay phase) the
	// cell leaks to Value.
	DRF
	// RDF is a read-disturb fault modelling a disconnected pull-up or
	// pull-down device: the first two consecutive reads of the cell
	// return the stored value, but the third and subsequent consecutive
	// reads return Value. A write restores normal behaviour. Detecting
	// it requires march elements with three reads per cell (the March
	// C++/A++ enhancement of the paper).
	RDF
	// AFNone is an address-decoder fault: Addr selects no cell; writes
	// are lost and reads return all-zeros.
	AFNone
	// AFMap is an address-decoder fault: Addr selects the cells of
	// AggAddr instead of its own (its own cells become unreachable).
	AFMap
	// AFMulti is an address-decoder fault: Addr selects both its own
	// cells and those of AggAddr; reads see the wired-AND of the two.
	AFMulti
	// WDF is a write-disturb fault: a non-transition write of Value
	// (writing Value into a cell already holding it) flips the cell.
	// Only march tests with non-transition writes (e.g. March SS)
	// sensitise it.
	WDF
	// IRF is an incorrect-read fault: reading the cell while it holds
	// Value returns the complement; the cell content is unchanged.
	IRF
	// DRDF is a deceptive read-destructive fault: reading the cell
	// while it holds Value returns the correct value but flips the
	// cell. Detection needs back-to-back reads (March SS, the "++"
	// triple-read variants).
	DRDF
	numKinds
)

// NumKinds is the number of defined fault kinds — the bound for flat
// per-kind tally arrays.
const NumKinds = int(numKinds)

var kindNames = [numKinds]string{
	"SA", "TF", "CFin", "CFid", "CFst", "SOF", "DRF", "RDF",
	"AFnone", "AFmap", "AFmulti", "WDF", "IRF", "DRDF",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// AnyPort marks a fault visible through every port.
const AnyPort = -1

// Fault is one injected functional fault. Cell indices address single
// bits: cell = address*width + bit.
type Fault struct {
	Kind Kind

	// Cell is the victim cell for cell faults, unused for AF kinds.
	Cell int
	// Aggressor is the aggressor cell for coupling faults.
	Aggressor int

	// Addr and AggAddr are word addresses for the AF kinds.
	Addr    int
	AggAddr int

	// Value is the forced/coupled/leak value, per Kind documentation.
	Value bool
	// AggVal is the aggressor condition: transition direction for
	// CFin/CFid (true = rising), aggressor state for CFst.
	AggVal bool

	// Port restricts fault visibility to one port (AnyPort = all).
	// Port-specific faults model per-port read-circuit defects in
	// multiport memories; they are why a BIST unit must repeat the test
	// algorithm on every port.
	Port int
}

// String renders the fault in van-de-Goor-like notation.
func (f Fault) String() string {
	b01 := func(v bool) string {
		if v {
			return "1"
		}
		return "0"
	}
	arrow := func(v bool) string {
		if v {
			return "↑"
		}
		return "↓"
	}
	port := ""
	if f.Port != AnyPort {
		port = fmt.Sprintf("@p%d", f.Port)
	}
	switch f.Kind {
	case SA:
		return fmt.Sprintf("SA%s(c%d)%s", b01(f.Value), f.Cell, port)
	case TF:
		return fmt.Sprintf("TF<%s>(c%d)%s", arrow(f.Value), f.Cell, port)
	case CFin:
		return fmt.Sprintf("CFin<%s;↕>(a%d,v%d)%s", arrow(f.AggVal), f.Aggressor, f.Cell, port)
	case CFid:
		return fmt.Sprintf("CFid<%s;%s>(a%d,v%d)%s", arrow(f.AggVal), b01(f.Value), f.Aggressor, f.Cell, port)
	case CFst:
		return fmt.Sprintf("CFst<%s;%s>(a%d,v%d)%s", b01(f.AggVal), b01(f.Value), f.Aggressor, f.Cell, port)
	case SOF:
		return fmt.Sprintf("SOF(c%d)%s", f.Cell, port)
	case DRF:
		return fmt.Sprintf("DRF%s(c%d)%s", b01(f.Value), f.Cell, port)
	case RDF:
		return fmt.Sprintf("RDF%s(c%d)%s", b01(f.Value), f.Cell, port)
	case WDF:
		return fmt.Sprintf("WDF<%sw%s>(c%d)%s", b01(f.Value), b01(f.Value), f.Cell, port)
	case IRF:
		return fmt.Sprintf("IRF<r%s>(c%d)%s", b01(f.Value), f.Cell, port)
	case DRDF:
		return fmt.Sprintf("DRDF<r%s>(c%d)%s", b01(f.Value), f.Cell, port)
	case AFNone:
		return fmt.Sprintf("AFnone(a%d)%s", f.Addr, port)
	case AFMap:
		return fmt.Sprintf("AFmap(a%d->a%d)%s", f.Addr, f.AggAddr, port)
	case AFMulti:
		return fmt.Sprintf("AFmulti(a%d+a%d)%s", f.Addr, f.AggAddr, port)
	default:
		return fmt.Sprintf("fault(%d)", int(f.Kind))
	}
}

// appliesTo reports whether the fault is visible through the port.
func (f Fault) appliesTo(port int) bool {
	return f.Port == AnyPort || f.Port == port
}
