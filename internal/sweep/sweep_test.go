package sweep

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/resilience"
)

func TestSpecDefaults(t *testing.T) {
	// An empty Spec (a JSON body of {}) and a flag set parsed with no
	// arguments must resolve to the same workload.
	var flagged Spec
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	flagged.Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	fw, err := flagged.Workload()
	if err != nil {
		t.Fatal(err)
	}
	zw, err := Spec{}.Workload()
	if err != nil {
		t.Fatal(err)
	}
	if fw.Fingerprint() != zw.Fingerprint() {
		t.Fatalf("flag defaults and zero-Spec defaults diverge:\n%s\n%s", fw.Fingerprint(), zw.Fingerprint())
	}
	if len(zw.Algs) != 8 {
		t.Fatalf("default workload has %d algorithms, want 8", len(zw.Algs))
	}
	if zw.Opts.Size != DefaultSize || zw.Opts.Width != DefaultWidth || zw.Opts.Ports != DefaultPorts {
		t.Fatalf("default geometry %dx%d/%d", zw.Opts.Size, zw.Opts.Width, zw.Opts.Ports)
	}
}

func TestSpecRejectsUnknownNames(t *testing.T) {
	for _, s := range []Spec{
		{Algs: "nosuch"},
		{Arch: "quantum"},
		{Engine: "warp"},
		{Lanes: "96"},
		// Geometry outside the engines' bounds (coverage.Options.Validate).
		{Width: 65},
		{Width: -1},
		{Ports: 257},
		{Ports: -2},
	} {
		if _, err := s.Workload(); err == nil {
			t.Errorf("Spec %+v resolved, want error", s)
		}
	}
}

func TestFingerprintExcludesExecutionKnobs(t *testing.T) {
	base := Spec{Algs: "marchc", Size: 8}
	w0, err := base.Workload()
	if err != nil {
		t.Fatal(err)
	}
	// Workers, engine and lanes must not move the fingerprint: state
	// persisted under one configuration resumes under any other.
	for _, s := range []Spec{
		{Algs: "marchc", Size: 8, Workers: 7},
		{Algs: "marchc", Size: 8, Engine: "scalar"},
		{Algs: "marchc", Size: 8, Lanes: "512"},
		{Algs: "marchc", Size: 8, Timeout: "90s", Retries: 3},
	} {
		w, err := s.Workload()
		if err != nil {
			t.Fatal(err)
		}
		if w.Fingerprint() != w0.Fingerprint() {
			t.Errorf("Spec %+v shifted the fingerprint", s)
		}
	}
	// Geometry and algorithm list must.
	for _, s := range []Spec{
		{Algs: "marchc", Size: 16},
		{Algs: "marchc,mats+", Size: 8},
		{Algs: "marchc", Size: 8, Arch: "microcode"},
	} {
		w, err := s.Workload()
		if err != nil {
			t.Fatal(err)
		}
		if w.Fingerprint() == w0.Fingerprint() {
			t.Errorf("Spec %+v did not shift the fingerprint", s)
		}
	}
}

// TestShardFilesMergeByteIdentical pins the driver-level sharding
// round trip: grade N shards, persist each through the resilience
// envelope, load them back, merge, and render text byte-identical to
// the unsharded sweep.
func TestShardFilesMergeByteIdentical(t *testing.T) {
	spec := Spec{Algs: "mats+,marchc", Size: 8, Workers: 2}
	w, err := spec.Workload()
	if err != nil {
		t.Fatal(err)
	}
	full, err := w.Grade(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := w.RenderText(full)

	const n = 3
	dir := t.TempDir()
	paths := make([]string, n)
	for i := 0; i < n; i++ {
		s, err := w.GradeShard(context.Background(), i, n)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		paths[i] = filepath.Join(dir, fmt.Sprintf("shard%d.json", i))
		if err := w.SaveShard(paths[i], s); err != nil {
			t.Fatalf("save shard %d: %v", i, err)
		}
	}
	shards := make([]*Shard, n)
	for i, p := range paths {
		if shards[i], err = w.LoadShard(p); err != nil {
			t.Fatalf("load shard %d: %v", i, err)
		}
	}
	merged, err := w.Merge(shards...)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.RenderText(merged); got != want {
		t.Fatalf("merged shard sweep diverges from unsharded:\n--- merged\n%s\n--- unsharded\n%s", got, want)
	}
}

func TestLoadShardRejectsForeignWorkload(t *testing.T) {
	spec := Spec{Algs: "mats+", Size: 8}
	w, err := spec.Workload()
	if err != nil {
		t.Fatal(err)
	}
	s, err := w.GradeShard(context.Background(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "shard.json")
	if err := w.SaveShard(path, s); err != nil {
		t.Fatal(err)
	}
	other, err := Spec{Algs: "mats+", Size: 16}.Workload()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.LoadShard(path); !errors.Is(err, resilience.ErrMismatch) {
		t.Fatalf("foreign workload loaded shard file, err=%v", err)
	}
}

func TestMergeRejectsBadShardSets(t *testing.T) {
	w, err := Spec{Algs: "mats+", Size: 8}.Workload()
	if err != nil {
		t.Fatal(err)
	}
	s0, err := w.GradeShard(context.Background(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := w.GradeShard(context.Background(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Merge(); err == nil {
		t.Error("merge of zero shards accepted")
	}
	if _, err := w.Merge(s0); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("merge with missing shard accepted, err=%v", err)
	}
	if _, err := w.Merge(s0, s0); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("merge with duplicate shard accepted, err=%v", err)
	}
	odd, err := w.GradeShard(context.Background(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Merge(s0, s1, odd); err == nil || !strings.Contains(err.Error(), "mixed") {
		t.Errorf("merge with mixed shard counts accepted, err=%v", err)
	}
	if _, err := w.Merge(s0, s1); err != nil {
		t.Errorf("valid merge rejected: %v", err)
	}
}

func TestSpecTimeoutDuration(t *testing.T) {
	cases := []struct {
		in      string
		want    time.Duration
		wantErr bool
	}{
		{"", 0, false},
		{"90s", 90 * time.Second, false},
		{"5m", 5 * time.Minute, false},
		{"-1s", 0, true},
		{"ninety", 0, true},
	}
	for _, c := range cases {
		d, err := Spec{Timeout: c.in}.TimeoutDuration()
		if (err != nil) != c.wantErr {
			t.Errorf("TimeoutDuration(%q) error = %v, wantErr %v", c.in, err, c.wantErr)
			continue
		}
		if d != c.want {
			t.Errorf("TimeoutDuration(%q) = %v, want %v", c.in, d, c.want)
		}
	}
}

func TestSpecRetryBudget(t *testing.T) {
	if got := (Spec{}).RetryBudget(2); got != 2 {
		t.Errorf("unset Retries: budget %d, want the driver default 2", got)
	}
	if got := (Spec{Retries: 5}).RetryBudget(2); got != 5 {
		t.Errorf("Retries=5: budget %d, want 5", got)
	}
	if got := (Spec{Retries: -1}).RetryBudget(2); got != 0 {
		t.Errorf("Retries=-1: budget %d, want 0 (never retry)", got)
	}
}
