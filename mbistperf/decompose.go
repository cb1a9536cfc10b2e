package main

import (
	"fmt"
	"slices"

	"repro/internal/coverage"
	"repro/internal/faults"
	"repro/internal/fsmbist"
	"repro/internal/hardbist"
	"repro/internal/march"
	"repro/internal/memory"
	"repro/internal/microbist"
)

// The decomposed pipeline grades an op stage by stage through each
// layer's public functions, so the tracer can time every layer on its
// own. It mirrors what coverage.Grade does inside, minus the artifact
// caches: every stage runs cold on every op. Its reports, built by
// coverage.ReportFromState, must be byte-identical to the production
// call's.

// Span names, one per layer boundary.
const (
	spanOp        = "op"
	spanGrade     = "coverage.grade"
	spanUniverse  = "faults.universe"
	spanSynth     = "ctrl.synth"
	spanCapture   = "march.capture"
	spanRefStream = "march.refstream"
	spanCompile   = "faults.compile"
	spanInject    = "faults.inject"
	spanScalar    = "coverage.scalar"
	spanReport    = "coverage.report"
	spanRender    = "sweep.render"
)

// kernels lists every replay kernel; replaySpan names each one's span.
var (
	kernels = []faults.Kernel{
		faults.KernelMask, faults.KernelLatch, faults.KernelCoupling, faults.KernelAF, faults.KernelGeneral,
	}
	replaySpan = func() map[faults.Kernel]string {
		m := make(map[faults.Kernel]string, len(kernels))
		for _, k := range kernels {
			m[k] = "faults.replay." + k.String()
		}
		return m
	}()
)

// batchPlanes is the plane count of the production default lane width
// (coverage.DefaultLanes / 64).
const batchPlanes = coverage.DefaultLanes / 64

// testRunner executes one test on a memory and reports detection, as the
// coverage engines run a controller.
type testRunner func(mem memory.Memory) (bool, error)

// decomposeOp grades g under tr's current span and renders the text, as
// gradeOp.produce does in one call.
func decomposeOp(tr *tracer, g *gradeOp) ([]*coverage.Report, error) {
	w, err := g.workload()
	if err != nil {
		return nil, err
	}
	opts := w.Opts
	uopts := opts.Universe
	uopts.Ports = opts.Ports
	tr.begin(spanUniverse)
	universe := faults.Universe(opts.Size, opts.Width, uopts)
	tr.end()
	var arena *faults.LaneInjected
	reps := make([]*coverage.Report, 0, len(w.Algs))
	for _, alg := range w.Algs {
		tr.begin(spanGrade)
		rep, err := decomposeGrade(tr, alg, w.Arch, opts, universe, &arena)
		tr.end()
		if err != nil {
			return nil, fmt.Errorf("%s on %v: %w", alg.Name, w.Arch, err)
		}
		reps = append(reps, rep)
	}
	tr.begin(spanRender)
	w.RenderText(reps)
	tr.end()
	return reps, nil
}

// decomposeGrade grades one algorithm: synthesise the controller,
// capture its stream, verify it against the reference stream, then
// replay lane batches (or, for a diverging stream, run the scalar
// oracle fault by fault) and build the report from the verdicts.
func decomposeGrade(tr *tracer, alg march.Algorithm, arch coverage.Architecture, opts coverage.Options,
	universe []faults.Fault, arena **faults.LaneInjected) (*coverage.Report, error) {
	size, width, ports := opts.Size, opts.Width, opts.Ports
	tr.begin(spanSynth)
	run, err := synthRunner(alg, arch, opts)
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin(spanCapture)
	rec := &march.Recorder{Mem: memory.NewSRAM(size, width, ports)}
	detected, err := run(rec)
	tr.end()
	if err != nil {
		return nil, err
	}
	if detected {
		return nil, fmt.Errorf("fail detected on a fault-free memory")
	}
	tr.begin(spanRefStream)
	verified := slices.Equal(rec.Ops, march.FullStream(alg, size, width, ports, width == 1))
	tr.end()

	state := &coverage.State{Graded: make([]bool, len(universe)), Detected: make([]bool, len(universe))}
	for i := range state.Graded {
		state.Graded[i] = true
	}
	if verified {
		err = replayBatches(tr, rec.Ops, opts, universe, arena, state.Detected)
	} else {
		err = gradeScalar(tr, run, opts, universe, state.Detected)
	}
	if err != nil {
		return nil, err
	}
	tr.begin(spanReport)
	rep, err := coverage.ReportFromState(alg, arch, opts, state)
	tr.end()
	return rep, err
}

// replayClass mirrors coverage's kernel classes: the fault kinds
// production packs into one batch because they need the same replay
// machinery. Batches of one class run that class's kernel. Batching
// by class, not kind, also matters for time: a replay stops once every
// lane has failed, so batch composition moves replay cost by tens of
// percent either way.
func replayClass(k faults.Kind) int {
	switch k {
	case faults.SOF, faults.RDF, faults.DRDF:
		return 1
	case faults.CFin, faults.CFid:
		return 2
	case faults.CFst:
		return 3
	case faults.AFNone, faults.AFMap, faults.AFMulti:
		return 4
	}
	return 0
}

const replayClasses = 5

// replayBatches lowers the stream to µops and replays it over batches
// of one replay class each, at most faults.BatchLimit(batchPlanes)
// faults per batch in universe order, as production plans them.
func replayBatches(tr *tracer, stream []march.StreamOp, opts coverage.Options, universe []faults.Fault,
	arena **faults.LaneInjected, detected []bool) error {
	tr.begin(spanCompile)
	uops := make([]faults.UOp, len(stream))
	for i, s := range stream {
		u := faults.UOp{Kind: faults.UOpRead, Port: uint8(s.Port), Addr: int32(s.Addr), Cell: int32(s.Addr * opts.Width), Data: s.Data}
		switch {
		case s.Pause:
			u = faults.UOp{Kind: faults.UOpPause}
		case s.Write:
			u.Kind = faults.UOpWrite
		}
		uops[i] = u
	}
	cs, err := faults.NewCompiledStream(opts.Size, opts.Width, opts.Ports, uops)
	tr.end()
	if err != nil {
		return err
	}

	var byClass [replayClasses][]int
	for i, f := range universe {
		c := replayClass(f.Kind)
		byClass[c] = append(byClass[c], i)
	}
	limit := faults.BatchLimit(batchPlanes)
	for _, idx := range byClass {
		for start := 0; start < len(idx); start += limit {
			chunk := idx[start:min(start+limit, len(idx))]
			// A fresh slice per batch: an arena skips re-injection when it
			// is handed the backing array it is already armed with.
			batch := make([]faults.Fault, len(chunk))
			for k, i := range chunk {
				batch[k] = universe[i]
			}
			tr.begin(spanInject)
			if *arena == nil {
				*arena = faults.NewLaneInjectedPlanes(opts.Size, opts.Width, opts.Ports, batchPlanes, nil)
			}
			(*arena).ResetPlanes(batch, min((len(batch)+64)/64, batchPlanes))
			tr.end()
			var fail [faults.MaxPlanes]uint64
			tr.begin(replaySpan[(*arena).Kernel()])
			_, err := (*arena).Replay(cs, &fail)
			tr.endWork(int64(len(batch)) * int64(cs.Len()))
			if err != nil {
				return err
			}
			for k, i := range chunk {
				lane := k + 1
				detected[i] = fail[lane>>6]>>uint(lane&63)&1 == 1
			}
		}
	}
	return nil
}

// gradeScalar is the scalar oracle: a fresh injected memory and one
// complete test run per fault.
func gradeScalar(tr *tracer, run testRunner, opts coverage.Options, universe []faults.Fault, detected []bool) error {
	tr.begin(spanScalar)
	defer tr.endWork(int64(len(universe)))
	for i, f := range universe {
		d, err := run(faults.NewInjected(opts.Size, opts.Width, opts.Ports, f))
		if err != nil {
			return fmt.Errorf("scalar %v: %w", f, err)
		}
		detected[i] = d
	}
	return nil
}

// synthRunner synthesises the architecture's controller with the
// options the coverage engines use and wraps it as a runner.
func synthRunner(alg march.Algorithm, arch coverage.Architecture, opts coverage.Options) (testRunner, error) {
	word, multi := opts.Width > 1, opts.Ports > 1
	switch arch {
	case coverage.Reference:
		ro := march.RunOpts{MaxFails: 1, SinglePort: !multi, SingleBackground: !word}
		return func(mem memory.Memory) (bool, error) {
			res, err := march.Run(alg, mem, ro)
			if err != nil {
				return false, err
			}
			return res.Detected(), nil
		}, nil
	case coverage.Microcode:
		p, err := microbist.Assemble(alg, microbist.AssembleOpts{WordOriented: word, Multiport: multi})
		if err != nil {
			return nil, err
		}
		return func(mem memory.Memory) (bool, error) {
			res, err := p.Run(mem, microbist.ExecOpts{MaxFails: 1})
			if err != nil {
				return false, err
			}
			return res.Detected(), nil
		}, nil
	case coverage.ProgFSM:
		p, err := fsmbist.Compile(alg, fsmbist.CompileOpts{WordOriented: word, Multiport: multi})
		if err != nil {
			return nil, err
		}
		return func(mem memory.Memory) (bool, error) {
			res, err := p.Run(mem, fsmbist.ExecOpts{MaxFails: 1})
			if err != nil {
				return false, err
			}
			return res.Detected(), nil
		}, nil
	case coverage.Hardwired:
		c, err := hardbist.Generate(alg, hardbist.Config{
			WordOriented: word, Multiport: multi, Width: opts.Width, Ports: opts.Ports, AddrBits: 10,
		})
		if err != nil {
			return nil, err
		}
		return func(mem memory.Memory) (bool, error) {
			res, err := c.Run(mem, hardbist.ExecOpts{MaxFails: 1})
			if err != nil {
				return false, err
			}
			return res.Detected(), nil
		}, nil
	}
	return nil, fmt.Errorf("unknown architecture %v", arch)
}
