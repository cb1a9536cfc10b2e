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
	c := NewStreamCursor(a, size, width, ports, singleBackground)
	n := 0
	for _, e := range a.Elements {
		n += size * len(e.Ops)
		if pauses && e.PauseBefore {
			n++
		}
	}
	ops := make([]StreamOp, 0, ports*len(c.bgs)*n)
	for op, ok := c.Next(); ok; op, ok = c.Next() {
		if pauses || !op.Pause {
			ops = append(ops, op)
		}
	}
	return ops
}

// StreamCursor yields FullStream one op at a time without expanding it,
// so a controller's operations can be checked against the reference as
// they are issued. It is also the one expansion of a march into ops:
// FullStream and OpStreamPorts collect what it yields.
type StreamCursor struct {
	alg          Algorithm
	size, ports  int
	bgs          []uint64
	mask         uint64
	port, bg, el int
	k, op        int
	paused       bool
}

// NewStreamCursor returns a cursor over FullStream(a, size, width,
// ports, singleBackground).
func NewStreamCursor(a Algorithm, size, width, ports int, singleBackground bool) *StreamCursor {
	bgs := Backgrounds(width)
	if singleBackground {
		bgs = bgs[:1]
	}
	c := &StreamCursor{alg: a, size: size, ports: ports, bgs: bgs, mask: wordMask(width)}
	if len(a.Elements) == 0 {
		c.port = ports
	}
	return c
}

// Next returns the next op of the stream, or ok false once the stream
// is exhausted.
func (c *StreamCursor) Next() (op StreamOp, ok bool) {
	for c.port < c.ports {
		e := &c.alg.Elements[c.el]
		if e.PauseBefore && !c.paused {
			c.paused = true
			return StreamOp{Pause: true}, true
		}
		if c.k < c.size && len(e.Ops) > 0 {
			addr := c.k
			if e.Order == Down {
				addr = c.size - 1 - c.k
			}
			o := e.Ops[c.op]
			data := c.bgs[c.bg]
			if o.Data {
				data = ^data & c.mask
			}
			if c.op++; c.op == len(e.Ops) {
				c.op, c.k = 0, c.k+1
			}
			return StreamOp{Write: o.Kind == Write, Port: c.port, Addr: addr, Data: data}, true
		}
		c.k, c.paused = 0, false
		if c.el++; c.el == len(c.alg.Elements) {
			c.el = 0
			if c.bg++; c.bg == len(c.bgs) {
				c.bg, c.port = 0, c.port+1
			}
		}
	}
	return StreamOp{}, false
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
