package coverage

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/march"
	"repro/internal/obs"
)

// Sharded sweeps split one grading workload into independent slices
// that can run on separate workers, processes or machines, then merge
// back into a report byte-identical to the unsharded sweep:
//
//	states := make([]*State, n)
//	for s := range states {
//		states[s], _ = GradeShard(alg, arch, opts, s, n)  // anywhere
//	}
//	merged, _ := MergeStates(states...)
//	rep, _ := ReportFromState(alg, arch, opts, merged)
//
// Each shard grades a contiguous slice of the deterministic fault
// universe and returns a State — the same type Options.Checkpoint
// hands out — so a shard is persisted, shipped and validated with the
// exact machinery mbistcov already uses for interrupt/resume
// (internal/resilience envelopes keyed by Fingerprint). Per-fault
// verdicts are deterministic and independent, so the merged report
// cannot depend on the shard count.

// ShardRange returns the half-open universe slice [lo, hi) that shard
// s of n grades. Slices are contiguous, disjoint, cover the whole
// universe and differ in size by at most one fault.
func ShardRange(universeSize, shard, of int) (lo, hi int) {
	return shard * universeSize / of, (shard + 1) * universeSize / of
}

// GradeShard grades shard `shard` of `of` and returns its State.
func GradeShard(alg march.Algorithm, arch Architecture, opts Options, shard, of int) (*State, error) {
	//mbist:exempt ctxflow compatibility wrapper over GradeShardContext
	return GradeShardContext(context.Background(), alg, arch, opts, shard, of)
}

// GradeShardContext grades one contiguous universe slice under a
// context. The returned State has a verdict for exactly the faults in
// ShardRange(universe, shard, of) — merge all `of` shard states with
// MergeStates and render with ReportFromState. Options.Checkpoint and
// Options.Resume work per shard: a resumed state must cover only
// in-shard faults. On cancellation the partial shard State is returned
// alongside the context error, resumable like any checkpoint.
func GradeShardContext(ctx context.Context, alg march.Algorithm, arch Architecture, opts Options, shard, of int) (*State, error) {
	if of <= 0 {
		return nil, fmt.Errorf("coverage: shard count %d, want at least 1", of)
	}
	if shard < 0 || shard >= of {
		return nil, fmt.Errorf("coverage: shard %d of %d out of range", shard, of)
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts.normalise()
	u := cachedUniverse(opts)
	universe := u.faults
	lo, hi := ShardRange(len(universe), shard, of)
	if s := opts.Resume; s != nil {
		if len(s.Graded) != len(universe) {
			return nil, fmt.Errorf("coverage: shard resume state covers %d faults, universe has %d",
				len(s.Graded), len(universe))
		}
		for i, g := range s.Graded {
			if g && (i < lo || i >= hi) {
				return nil, fmt.Errorf("coverage: shard %d/%d resume state grades fault %d outside its slice [%d,%d)",
					shard, of, i, lo, hi)
			}
		}
	}
	r, err := newGradeRun(ctx, alg, arch, opts, u)
	if err != nil {
		return nil, err
	}
	// Out-of-shard faults are marked resumed but not graded: every
	// engine skips them exactly as it skips checkpoint-settled faults,
	// and the snapshot records verdicts only for this shard's slice.
	r.perFaultLocked(true)
	for i := range r.resumed {
		if i < lo || i >= hi {
			r.resumed[i] = true
		}
	}
	obs.Active().Counter("coverage.shards_graded").Add(1)
	if err := r.runEngine(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	if r.opts.Checkpoint != nil {
		r.checkpointLocked()
	}
	s := r.snapshotLocked()
	r.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return s, fmt.Errorf("coverage: shard %d/%d of %s on %s cancelled after %d/%d faults: %w",
			shard, of, alg.Name, arch, s.GradedCount(), hi-lo, err)
	}
	return s, nil
}

// MergeStates combines disjoint shard states into one State covering
// their union. All states must span the same universe, and no fault
// may be graded by more than one state — overlap means two shards
// graded the same slice, which is a sharding-plan error, not something
// to paper over by picking a winner.
func MergeStates(states ...*State) (*State, error) {
	if len(states) == 0 {
		return nil, fmt.Errorf("coverage: merge of zero shard states")
	}
	n := len(states[0].Graded)
	merged := &State{
		Graded:   make([]bool, n),
		Detected: make([]bool, n),
	}
	for si, s := range states {
		if s == nil {
			return nil, fmt.Errorf("coverage: merge: shard state %d is nil", si)
		}
		if len(s.Graded) != n || len(s.Detected) != len(s.Graded) {
			return nil, fmt.Errorf("coverage: merge: shard state %d covers %d faults, shard state 0 covers %d",
				si, len(s.Graded), n)
		}
		for i, g := range s.Graded {
			if !g {
				continue
			}
			if merged.Graded[i] {
				return nil, fmt.Errorf("coverage: merge: fault %d graded by two shard states (overlapping shards?)", i)
			}
			merged.Graded[i] = true
			merged.Detected[i] = s.Detected[i]
		}
		for _, q := range s.Quarantined {
			if q.Index < 0 || q.Index >= n || !s.Graded[q.Index] {
				return nil, fmt.Errorf("coverage: merge: shard state %d quarantines fault %d outside its graded set",
					si, q.Index)
			}
			merged.Quarantined = append(merged.Quarantined, q)
		}
	}
	sort.Slice(merged.Quarantined, func(a, b int) bool {
		return merged.Quarantined[a].Index < merged.Quarantined[b].Index
	})
	return merged, nil
}

// ReportFromState renders the final report of a completed sweep from
// its merged State without grading anything. The state must be
// complete — for a partial state, resume the sweep with Options.Resume
// instead. The report is byte-identical to the one an unsharded
// Grade of the same workload returns.
func ReportFromState(alg march.Algorithm, arch Architecture, opts Options, s *State) (*Report, error) {
	if s == nil {
		return nil, fmt.Errorf("coverage: report from nil state")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts.normalise()
	if !s.Complete() {
		return nil, fmt.Errorf("coverage: state grades %d/%d faults; a report needs a complete sweep (missing shards, or resume with Options.Resume)",
			s.GradedCount(), len(s.Graded))
	}
	opts.Resume = s
	opts.Checkpoint = nil
	//mbist:exempt ctxflow merge is pure in-memory bookkeeping; the run never starts workers
	r, err := newGradeRun(context.Background(), alg, arch, opts, cachedUniverse(opts))
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	rep := r.buildReportLocked()
	r.mu.Unlock()
	return rep, nil
}
