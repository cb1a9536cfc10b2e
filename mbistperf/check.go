package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/coverage"
	"repro/internal/faults"
)

// goldenJSON holds the digests of every op the seed-1 runs can reach,
// at both scales; -update-golden regenerates it.
//
//go:embed testdata/golden.json
var goldenJSON []byte

type goldenFile struct {
	Seed    int64             `json:"seed"`
	Digests map[string]string `json:"digests"`
}

func loadGolden() (map[string]string, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("testdata/golden.json: %w", err)
	}
	return g.Digests, nil
}

// digestReports is an op's output digest: SHA-256 over each report's
// text followed by its missed faults, one per line.
func digestReports(reps []*coverage.Report) string {
	h := sha256.New()
	for _, r := range reps {
		io.WriteString(h, r.String())
		for _, f := range r.Missed {
			io.WriteString(h, f.String())
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digestText(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// spotFaults bounds how many faults the scalar spot check re-grades
// per algorithm, so the check stays a small fraction of a run. The
// slice moves with the seed and op index, so runs together cover the
// whole universe.
const spotFaults = 48

// spotCheck re-grades one contiguous slice of each algorithm's universe
// with the scalar oracle after the window and compares the verdicts
// with the production reports. The slice is drawn from the seed and the
// op index, so each run checks different faults. newSpotCheck keeps
// only the slices' verdicts, so the reports need not stay live.
type spotCheck struct {
	g      *gradeOp
	of     int
	shards []int    // per algorithm
	missed [][]bool // per algorithm, the report's verdicts on its slice
}

func newSpotCheck(g *gradeOp, reps []*coverage.Report, seed int64, index int) (*spotCheck, error) {
	w, err := g.workload()
	if err != nil {
		return nil, err
	}
	if len(reps) != len(w.Algs) {
		return nil, fmt.Errorf("%d reports for %d algorithms", len(reps), len(w.Algs))
	}
	uopts := w.Opts.Universe
	uopts.Ports = w.Opts.Ports
	universe := faults.Universe(w.Opts.Size, w.Opts.Width, uopts)
	s := &spotCheck{g: g, of: max(1, len(universe)/spotFaults)}
	for a, alg := range w.Algs {
		missed, err := missedFlags(universe, reps[a])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", alg.Name, err)
		}
		shard := int((uint64(seed)*2_654_435_761 + uint64(index)*40_503 + uint64(a)) % uint64(s.of))
		lo, hi := coverage.ShardRange(len(universe), shard, s.of)
		s.shards = append(s.shards, shard)
		s.missed = append(s.missed, append([]bool(nil), missed[lo:hi]...))
	}
	return s, nil
}

func (s *spotCheck) run(ctx context.Context) error {
	w, err := s.g.workload()
	if err != nil {
		return err
	}
	opts := w.Opts
	opts.Engine = coverage.EngineScalar
	for a, alg := range w.Algs {
		st, err := coverage.GradeShardContext(ctx, alg, w.Arch, opts, s.shards[a], s.of)
		if err != nil {
			return fmt.Errorf("%s scalar shard %d/%d: %w", alg.Name, s.shards[a], s.of, err)
		}
		lo, _ := coverage.ShardRange(len(st.Graded), s.shards[a], s.of)
		for k, missed := range s.missed[a] {
			if st.Detected[lo+k] == missed {
				return fmt.Errorf("%s: universe fault %d is %s by the scalar oracle but %s in the report",
					alg.Name, lo+k, verdict(st.Detected[lo+k]), verdict(!missed))
			}
		}
	}
	return nil
}

// missedFlags marks the universe faults a report lists as missed.
// Missed is in universe order, so one merge walk finds them all.
func missedFlags(universe []faults.Fault, rep *coverage.Report) ([]bool, error) {
	flags := make([]bool, len(universe))
	j := 0
	for i, f := range universe {
		if j < len(rep.Missed) && rep.Missed[j] == f {
			flags[i] = true
			j++
		}
	}
	if j != len(rep.Missed) {
		return nil, fmt.Errorf("missed fault %v is not in the universe, or out of order", rep.Missed[j])
	}
	return flags, nil
}

func verdict(detected bool) string {
	if detected {
		return "detected"
	}
	return "missed"
}
