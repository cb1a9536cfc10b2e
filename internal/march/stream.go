package march

import "repro/internal/memory"

// StreamOp is one entry of the canonical memory-operation stream of a
// march test on a fault-free memory: reads carry the value a clean
// memory returns (the expected pattern), writes the written word.
// Pause entries (Pause true, every other field zero) mark retention
// delay phases; OpStream/OpStreamPorts omit them, FullStream and
// Recorder include them.
type StreamOp struct {
	Write bool
	Pause bool
	Port  int
	Addr  int
	Data  uint64
}

// OpStream expands the algorithm into its full operation stream for a
// memory of the given geometry through one port, all data backgrounds
// included. It is the golden sequence the gate-level BIST harness runs
// are compared against. Pause phases are not included; see FullStream.
func OpStream(a Algorithm, size, width int) []StreamOp {
	return OpStreamPorts(a, size, width, 1)
}

// OpStreamPorts is OpStream with the outer port loop included: the
// whole test repeats per port (the Fig. 2 instruction-9 nesting).
func OpStreamPorts(a Algorithm, size, width, ports int) []StreamOp {
	return expandStream(a, size, width, ports, false, false)
}

// FullStream is the canonical stream including Pause entries, with the
// same loop structure as the reference runner (ports outer, data
// backgrounds inner, a Pause entry before each PauseBefore element on
// every pass). singleBackground restricts the expansion to the solid
// background, matching RunOpts.SingleBackground. A fault-free memory
// driven by this stream behaves exactly as under march.Run, so it is
// the reference the lane-parallel grading engine validates captured
// controller streams against.
func FullStream(a Algorithm, size, width, ports int, singleBackground bool) []StreamOp {
	return expandStream(a, size, width, ports, singleBackground, true)
}

func expandStream(a Algorithm, size, width, ports int, singleBackground, pauses bool) []StreamOp {
	mask := wordMask(width)
	bgs := Backgrounds(width)
	if singleBackground {
		bgs = bgs[:1]
	}
	n := 0
	for _, e := range a.Elements {
		n += size * len(e.Ops)
		if pauses && e.PauseBefore {
			n++
		}
	}
	ops := make([]StreamOp, 0, ports*len(bgs)*n)
	for port := 0; port < ports; port++ {
		for _, bg := range bgs {
			for _, e := range a.Elements {
				ops = appendElement(ops, e, size, port, bg, mask, pauses)
			}
		}
	}
	return ops
}

// appendElement expands one march element over the address range into
// ops.
func appendElement(ops []StreamOp, e Element, size, port int, bg, mask uint64, pauses bool) []StreamOp {
	if pauses && e.PauseBefore {
		ops = append(ops, StreamOp{Pause: true})
	}
	for k := 0; k < size; k++ {
		addr := k
		if e.Order == Down {
			addr = size - 1 - k
		}
		for _, op := range e.Ops {
			data := bg
			if op.Data {
				data = ^bg & mask
			}
			ops = append(ops, StreamOp{
				Write: op.Kind == Write,
				Port:  port,
				Addr:  addr,
				Data:  data,
			})
		}
	}
	return ops
}

// Recorder wraps a memory and records every operation issued to it as
// a StreamOp, reads carrying the value the inner memory returned.
// Running a BIST controller over a Recorder around a fault-free memory
// captures the controller's canonical operation stream — the input the
// lane-parallel grading engine replays against fault batches.
type Recorder struct {
	Mem memory.Memory
	Ops []StreamOp
}

// Size returns the inner memory's address count.
func (r *Recorder) Size() int { return r.Mem.Size() }

// Width returns the inner memory's word width.
func (r *Recorder) Width() int { return r.Mem.Width() }

// Ports returns the inner memory's port count.
func (r *Recorder) Ports() int { return r.Mem.Ports() }

// Read forwards to the inner memory and records the returned value.
func (r *Recorder) Read(port, addr int) uint64 {
	v := r.Mem.Read(port, addr)
	r.Ops = append(r.Ops, StreamOp{Port: port, Addr: addr, Data: v})
	return v
}

// Write forwards to the inner memory and records the written value.
func (r *Recorder) Write(port, addr int, data uint64) {
	r.Mem.Write(port, addr, data)
	r.Ops = append(r.Ops, StreamOp{Write: true, Port: port, Addr: addr, Data: data})
}

// Pause forwards to the inner memory and records a pause entry.
func (r *Recorder) Pause() {
	r.Mem.Pause()
	r.Ops = append(r.Ops, StreamOp{Pause: true})
}

var _ memory.Memory = (*Recorder)(nil)
