package coverage

import (
	"encoding/json"
	"fmt"

	"repro/internal/march"
	"repro/internal/resilience"
)

// FaultVerdict records one quarantined fault: grading it panicked on
// the primary engine and panicked again on the scalar retry, so the
// fault has no detected/missed verdict.
type FaultVerdict struct {
	// Index is the fault's position in the deterministic universe
	// ordering (faults.Universe on the run geometry).
	Index int `json:"index"`
	// Fault is the fault's van-de-Goor notation, for diagnostics.
	Fault string `json:"fault"`
	// Err is the captured panic message. It carries no stack trace —
	// stacks embed goroutine ids and argument addresses, which would
	// break byte-identical reports across runs and worker counts.
	Err string `json:"err"`
}

// State is the resumable progress of one grading run: a verdict bit
// per universe fault plus the quarantine list. It is what
// Options.Checkpoint hands out and Options.Resume takes back, and what
// mbistcov persists through internal/resilience. Per-fault verdicts
// are deterministic, so a run resumed from any State prefix produces a
// report byte-identical to an uninterrupted run.
type State struct {
	// Graded[i] is true once universe fault i has a verdict (detected,
	// missed or quarantined). Detected[i] is meaningful only when
	// Graded[i] is set.
	Graded   []bool
	Detected []bool
	// Quarantined lists the graded-by-quarantine faults, sorted by
	// Index.
	Quarantined []FaultVerdict
}

// Complete reports whether every fault has a verdict.
func (s *State) Complete() bool {
	for _, g := range s.Graded {
		if !g {
			return false
		}
	}
	return true
}

// GradedCount returns the number of faults with a verdict.
func (s *State) GradedCount() int {
	n := 0
	for _, g := range s.Graded {
		if g {
			n++
		}
	}
	return n
}

// stateJSON is the wire form: the bool slices travel as hex bitsets
// (2 digits per 8 faults instead of ~6 bytes per fault of JSON bools),
// keeping matrix-scale checkpoints compact and cheap to checksum.
type stateJSON struct {
	Faults      int            `json:"faults"`
	Graded      string         `json:"graded"`
	Detected    string         `json:"detected"`
	Quarantined []FaultVerdict `json:"quarantined,omitempty"`
}

// MarshalJSON encodes the state with hex-packed verdict bitsets.
func (s *State) MarshalJSON() ([]byte, error) {
	if len(s.Detected) != len(s.Graded) {
		return nil, fmt.Errorf("coverage: state bitsets disagree: %d graded, %d detected",
			len(s.Graded), len(s.Detected))
	}
	return json.Marshal(stateJSON{
		Faults:      len(s.Graded),
		Graded:      resilience.MarshalBits(s.Graded),
		Detected:    resilience.MarshalBits(s.Detected),
		Quarantined: s.Quarantined,
	})
}

// UnmarshalJSON decodes and validates the wire form: bitset lengths
// must match the declared fault count and quarantine indices must be
// in range, so a tampered or truncated payload surfaces here rather
// than as a silent mis-resume.
func (s *State) UnmarshalJSON(data []byte) error {
	var w stateJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	graded, err := resilience.UnmarshalBits(w.Graded, w.Faults)
	if err != nil {
		return fmt.Errorf("coverage: state graded bitset: %w", err)
	}
	detected, err := resilience.UnmarshalBits(w.Detected, w.Faults)
	if err != nil {
		return fmt.Errorf("coverage: state detected bitset: %w", err)
	}
	for _, q := range w.Quarantined {
		if q.Index < 0 || q.Index >= w.Faults {
			return fmt.Errorf("coverage: state quarantines fault %d of a %d-fault universe", q.Index, w.Faults)
		}
	}
	s.Graded, s.Detected, s.Quarantined = graded, detected, w.Quarantined
	return nil
}

// Fingerprint identifies the workload a State belongs to: the
// algorithm (name and march notation), architecture, geometry and
// universe options — everything that determines the fault universe and
// the per-fault verdicts. Worker count and engine are deliberately
// excluded: reports are byte-identical across both, so a checkpoint
// taken with 8 workers on the lane engine resumes correctly with one
// worker on the scalar oracle (and any combination in between).
func Fingerprint(alg march.Algorithm, arch Architecture, opts Options) string {
	opts.normalise()
	u := opts.Universe
	return fmt.Sprintf("%s|%s|%dx%d/%d|pairs=%d cells=%d addrs=%d seed=%d|%s",
		arch, alg.Name, opts.Size, opts.Width, opts.Ports,
		u.CouplingPairs, u.CellSample, u.AddrSample, u.Seed, alg)
}
