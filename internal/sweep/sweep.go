// Package sweep is the shared workload plumbing of the coverage
// drivers. cmd/mbistcov (flags) and cmd/mbistd (JSON requests) resolve
// the same Spec into the same Workload — one place owns the algorithm
// list, architecture, engine and lane defaults, so the CLI and the
// service cannot drift, and a service-graded report diffs
// byte-identical against the CLI's stdout.
//
// It also owns the shard file format: one workload slice graded into
// per-algorithm coverage.States, persisted through the same
// internal/resilience envelope (versioned, checksummed, bound to the
// workload fingerprint) that mbistcov checkpoints use. Shards graded
// anywhere merge into reports byte-identical to an unsharded sweep.
package sweep

import (
	"context"
	"flag"
	"fmt"
	"hash/crc32"
	"strings"
	"time"

	"repro/internal/coverage"
	"repro/internal/march"
	"repro/internal/resilience"
)

// Shared workload defaults. Register and Spec.Workload apply them, so
// every driver resolves an empty field the same way.
const (
	DefaultAlgs    = "mats+,marchx,marchy,marchc,marchc+,marchc++,marcha,marchb"
	DefaultArch    = "reference"
	DefaultSize    = 16
	DefaultWidth   = 1
	DefaultPorts   = 1
	DefaultWorkers = 0
	DefaultEngine  = "auto"
	DefaultLanes   = "auto"
)

// Spec is the wire/flag form of one coverage workload. The zero value
// of any field means "default" — a JSON request body of {} and a flag
// set with no arguments resolve to the same workload.
//
// Every field must be threaded through the Workload resolver (and from
// there into the workload fingerprint) or carry an explicit
// //mbist:fingerprint-exclude annotation; the fingerprint analyzer in
// internal/vet enforces this, so a new wire knob cannot silently skip
// shard-compatibility checking.
//
//mbist:fingerprint-source Workload
type Spec struct {
	// Algs is the comma-separated algorithm list.
	Algs string `json:"algs,omitempty"`
	// Arch names the architecture: reference, microcode, fsm, hardwired.
	Arch string `json:"arch,omitempty"`
	// Size, Width and Ports are the memory geometry.
	Size  int `json:"size,omitempty"`
	Width int `json:"width,omitempty"`
	Ports int `json:"ports,omitempty"`
	// Workers is the grading worker count (0 = all CPUs, 1 = serial).
	Workers int `json:"workers,omitempty"`
	// Engine selects the fault-simulation engine: auto or scalar.
	Engine string `json:"engine,omitempty"`
	// Lanes is the lane-engine batch width: auto, 64, 128, 256 or 512.
	Lanes string `json:"lanes,omitempty"`
	// Timeout is the per-run deadline as a Go duration string ("90s",
	// "5m"); empty means no deadline. A run that hits its deadline stops
	// at the last graded fault and reports Partial results.
	//mbist:fingerprint-exclude execution policy: a deadline truncates a run, it never changes any verdict
	Timeout string `json:"timeout,omitempty"`
	// Retries bounds how many times a transiently failing job is re-run
	// after its first attempt: 0 means the executing driver's default,
	// negative means never retry. Only mbistd acts on it.
	//mbist:fingerprint-exclude execution policy: re-running a deterministic workload cannot change its identity
	Retries int `json:"retries,omitempty"`
}

// Register binds the shared workload flags onto fs, with the shared
// defaults, writing into s.
func (s *Spec) Register(fs *flag.FlagSet) {
	fs.StringVar(&s.Algs, "algs", DefaultAlgs, "comma-separated library algorithms")
	fs.StringVar(&s.Arch, "arch", DefaultArch, "architecture: reference, microcode, fsm, hardwired")
	fs.IntVar(&s.Size, "size", DefaultSize, "memory addresses")
	fs.IntVar(&s.Width, "width", DefaultWidth, "word width in bits")
	fs.IntVar(&s.Ports, "ports", DefaultPorts, "memory ports")
	fs.IntVar(&s.Workers, "workers", DefaultWorkers, "concurrent grading workers (0 = all CPUs, 1 = serial)")
	fs.StringVar(&s.Engine, "engine", DefaultEngine, "fault-simulation engine: auto (lane-parallel stream replay with scalar fallback) or scalar (one fault at a time)")
	fs.StringVar(&s.Lanes, "lanes", DefaultLanes, "lane-engine batch width: auto, 64, 128, 256 or 512 logical fault lanes (ignored by -engine scalar; reports are byte-identical at every width)")
	fs.StringVar(&s.Timeout, "timeout", "", "per-run deadline as a Go duration (e.g. 90s, 5m); empty = none; an expired run reports Partial results (execution policy — excluded from the workload fingerprint)")
	fs.IntVar(&s.Retries, "retries", 0, "transient-failure retry budget for service jobs: 0 = service default, negative = never retry (execution policy — excluded from the workload fingerprint)")
}

// TimeoutDuration parses the spec's per-run deadline. Zero means no
// deadline. Negative or unparsable durations are rejected — a deadline
// typo must fail the request, not silently grade forever.
func (s Spec) TimeoutDuration() (time.Duration, error) {
	if s.Timeout == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(s.Timeout)
	if err != nil {
		return 0, fmt.Errorf("invalid timeout %q: %v", s.Timeout, err)
	}
	if d < 0 {
		return 0, fmt.Errorf("invalid timeout %q: must not be negative", s.Timeout)
	}
	return d, nil
}

// RetryBudget resolves the spec's retry budget against the executing
// driver's default: 0 defers to def, negative means never retry.
func (s Spec) RetryBudget(def int) int {
	switch {
	case s.Retries < 0:
		return 0
	case s.Retries == 0:
		return def
	default:
		return s.Retries
	}
}

// Workload is a resolved Spec: parsed algorithms, architecture and
// grading options, ready to grade.
//
//mbist:fingerprint-source
type Workload struct {
	Algs []march.Algorithm
	Arch coverage.Architecture
	Opts coverage.Options
}

// Workload resolves the spec, applying the shared defaults to zero
// fields and rejecting unknown names.
func (s Spec) Workload() (*Workload, error) {
	if s.Algs == "" {
		s.Algs = DefaultAlgs
	}
	if s.Arch == "" {
		s.Arch = DefaultArch
	}
	if s.Size == 0 {
		s.Size = DefaultSize
	}
	if s.Width == 0 {
		s.Width = DefaultWidth
	}
	if s.Ports == 0 {
		s.Ports = DefaultPorts
	}
	if s.Engine == "" {
		s.Engine = DefaultEngine
	}
	if s.Lanes == "" {
		s.Lanes = DefaultLanes
	}
	arch, err := ParseArch(s.Arch)
	if err != nil {
		return nil, err
	}
	engine, err := ParseEngine(s.Engine)
	if err != nil {
		return nil, err
	}
	lanes, err := ParseLanes(s.Lanes)
	if err != nil {
		return nil, err
	}
	w := &Workload{
		Arch: arch,
		Opts: coverage.Options{
			Size: s.Size, Width: s.Width, Ports: s.Ports,
			Workers: s.Workers, Engine: engine, Lanes: lanes,
		},
	}
	if err := w.Opts.Validate(); err != nil {
		return nil, err
	}
	for _, name := range strings.Split(s.Algs, ",") {
		alg, ok := march.ByName(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown algorithm %q", name)
		}
		w.Algs = append(w.Algs, alg)
	}
	return w, nil
}

// Names returns the workload's algorithm names in grading order.
func (w *Workload) Names() []string {
	names := make([]string, len(w.Algs))
	for i, alg := range w.Algs {
		names[i] = alg.Name
	}
	return names
}

// Fingerprint binds persisted state (checkpoints, shard files) to this
// exact workload: a readable architecture/geometry/algorithm summary
// plus a checksum of the per-algorithm coverage fingerprints (which
// fold in the universe options and each algorithm's march notation) in
// grading order. Worker count, engine and lanes are excluded —
// verdicts are byte-identical across all three, so state
// persisted under one configuration resumes under any other.
func (w *Workload) Fingerprint() string {
	names := w.Names()
	fps := make([]string, len(w.Algs))
	for i, alg := range w.Algs {
		fps[i] = coverage.Fingerprint(alg, w.Arch, w.Opts)
	}
	return fmt.Sprintf("%v %dx%d/%d algs[%s] %08x",
		w.Arch, w.Opts.Size, w.Opts.Width, w.Opts.Ports,
		strings.Join(names, ","),
		crc32.ChecksumIEEE([]byte(strings.Join(fps, ";"))))
}

// Grade grades every workload algorithm in order and returns the
// reports. On error (including cancellation) the reports graded so far
// are returned alongside it.
func (w *Workload) Grade(ctx context.Context) ([]*coverage.Report, error) {
	reports := make([]*coverage.Report, 0, len(w.Algs))
	for _, alg := range w.Algs {
		rep, err := coverage.GradeContext(ctx, alg, w.Arch, w.Opts)
		if err != nil {
			return reports, err
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// RenderText renders reports exactly as mbistcov prints an unsharded
// matrix run, so service responses and merged shard sweeps diff
// byte-identical against the CLI.
func (w *Workload) RenderText(reports []*coverage.Report) string {
	return fmt.Sprintf("fault coverage on %v (%d x %d bits, %d ports):\n\n%s",
		w.Arch, w.Opts.Size, w.Opts.Width, w.Opts.Ports, coverage.RenderMatrix(reports))
}

// ParseArch maps an architecture name to its coverage constant.
func ParseArch(s string) (coverage.Architecture, error) {
	switch s {
	case "reference":
		return coverage.Reference, nil
	case "microcode":
		return coverage.Microcode, nil
	case "fsm":
		return coverage.ProgFSM, nil
	case "hardwired":
		return coverage.Hardwired, nil
	}
	return 0, fmt.Errorf("unknown architecture %q", s)
}

// ParseEngine maps an engine name to its coverage constant.
func ParseEngine(s string) (coverage.Engine, error) {
	switch s {
	case "auto":
		return coverage.EngineAuto, nil
	case "scalar":
		return coverage.EngineScalar, nil
	}
	return 0, fmt.Errorf("unknown engine %q", s)
}

// ParseLanes maps a lane-width name to Options.Lanes: "auto" (or
// empty) defers to the library default, otherwise the value must be a
// supported logical lane width.
func ParseLanes(s string) (int, error) {
	switch s {
	case "auto", "":
		return 0, nil
	case "64":
		return 64, nil
	case "128":
		return 128, nil
	case "256":
		return 256, nil
	case "512":
		return 512, nil
	}
	return 0, fmt.Errorf("unknown lane width %q (want auto, 64, 128, 256 or 512)", s)
}

// Shard is one graded workload slice: shard Shard of Of, with one
// coverage.State per algorithm. It is the payload of a shard file.
type Shard struct {
	Algs   []string                   `json:"algs"`
	Shard  int                        `json:"shard"`
	Of     int                        `json:"of"`
	States map[string]*coverage.State `json:"states"`
}

// GradeShard grades slice shard of `of` for every workload algorithm.
func (w *Workload) GradeShard(ctx context.Context, shard, of int) (*Shard, error) {
	s := &Shard{
		Algs:   w.Names(),
		Shard:  shard,
		Of:     of,
		States: make(map[string]*coverage.State, len(w.Algs)),
	}
	for _, alg := range w.Algs {
		st, err := coverage.GradeShardContext(ctx, alg, w.Arch, w.Opts, shard, of)
		if err != nil {
			return nil, err
		}
		s.States[alg.Name] = st
	}
	return s, nil
}

// SaveShard persists a shard file: a resilience envelope bound to the
// workload fingerprint, so a shard graded against different flags (or
// a corrupted file) is rejected at load instead of silently merged.
func (w *Workload) SaveShard(path string, s *Shard) error {
	return resilience.Save(path, w.Fingerprint(), s)
}

// LoadShard loads and validates one shard file for this workload.
func (w *Workload) LoadShard(path string) (*Shard, error) {
	var s Shard
	if err := resilience.Load(path, w.Fingerprint(), &s); err != nil {
		return nil, err
	}
	if s.Of <= 0 || s.Shard < 0 || s.Shard >= s.Of {
		return nil, fmt.Errorf("%s: %w: shard %d of %d out of range", path, resilience.ErrCorrupt, s.Shard, s.Of)
	}
	return &s, nil
}

// Merge combines a full shard set into final reports, byte-identical
// to an unsharded sweep of the same workload. Every shard 0..of-1 must
// appear exactly once and carry a state for every workload algorithm.
func (w *Workload) Merge(shards ...*Shard) ([]*coverage.Report, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("merge of zero shards")
	}
	of := shards[0].Of
	seen := make([]bool, of)
	for _, s := range shards {
		if s.Of != of {
			return nil, fmt.Errorf("shard %d/%d mixed into a %d-shard sweep", s.Shard, s.Of, of)
		}
		if seen[s.Shard] {
			return nil, fmt.Errorf("shard %d/%d appears twice", s.Shard, s.Of)
		}
		seen[s.Shard] = true
	}
	for i, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("shard %d/%d missing from merge", i, of)
		}
	}
	reports := make([]*coverage.Report, 0, len(w.Algs))
	for _, alg := range w.Algs {
		states := make([]*coverage.State, 0, len(shards))
		for _, s := range shards {
			st := s.States[alg.Name]
			if st == nil {
				return nil, fmt.Errorf("shard %d/%d has no state for algorithm %q", s.Shard, s.Of, alg.Name)
			}
			states = append(states, st)
		}
		merged, err := coverage.MergeStates(states...)
		if err != nil {
			return nil, fmt.Errorf("merge %s: %w", alg.Name, err)
		}
		rep, err := coverage.ReportFromState(alg, w.Arch, w.Opts, merged)
		if err != nil {
			return nil, fmt.Errorf("report %s: %w", alg.Name, err)
		}
		reports = append(reports, rep)
	}
	return reports, nil
}
