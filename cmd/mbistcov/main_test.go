package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sweep"
)

// TestRunRejectsIgnoredFlagCombinations pins the usage errors (exit 1)
// for flags a mode would otherwise drop: -checkpoint and -resume never
// reach a -shard or -merge run, and -merge prints a matrix, never a
// -detail report. Each combination must be refused before anything is
// graded or written.
func TestRunRejectsIgnoredFlagCombinations(t *testing.T) {
	dir := t.TempDir()
	spec := sweep.Spec{Algs: "marchc", Size: 8}
	w, err := spec.Workload()
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for i := 0; i < 2; i++ {
		s, err := w.GradeShard(context.Background(), i, 2)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, filepath.Join(dir, fmt.Sprintf("shard%d.json", i)))
		if err := w.SaveShard(files[i], s); err != nil {
			t.Fatal(err)
		}
	}
	merge := strings.Join(files, ",")
	ckpt := filepath.Join(dir, "state.json")
	out := filepath.Join(dir, "out.json")
	for _, tc := range []struct {
		name                       string
		detail, ckpt, shard, merge string
		resume                     bool
	}{
		{name: "shard+merge", shard: "0/2", merge: merge},
		{name: "shard+checkpoint", shard: "0/2", ckpt: ckpt},
		{name: "shard+checkpoint+resume", shard: "0/2", ckpt: ckpt, resume: true},
		{name: "merge+checkpoint", merge: merge, ckpt: ckpt},
		{name: "merge+checkpoint+resume", merge: merge, ckpt: ckpt, resume: true},
		{name: "merge+detail", merge: merge, detail: "marchc"},
		{name: "resume alone", resume: true},
	} {
		var stdout bytes.Buffer
		err := run(&stdout, spec, tc.detail, tc.ckpt, 0, tc.resume, tc.shard, out, tc.merge)
		if code := exitCode(err); code != exitError {
			t.Errorf("%s: exit %d (%v), want %d", tc.name, code, err, exitError)
		}
		if stdout.Len() > 0 {
			t.Errorf("%s: printed %q", tc.name, stdout.String())
		}
		for _, path := range []string{ckpt, out} {
			if _, err := os.Stat(path); err == nil {
				t.Errorf("%s: wrote %s", tc.name, filepath.Base(path))
				os.Remove(path)
			}
		}
	}
}

// TestRunTimeoutCheckpointResume pins the whole-workload checkpoint
// path: a run whose -timeout expires exits 3 with the attribution
// message and its state saved, and -resume from that state prints the
// matrix an uninterrupted run prints.
func TestRunTimeoutCheckpointResume(t *testing.T) {
	spec := sweep.Spec{Algs: "mats+,marchc", Size: 8}
	var want bytes.Buffer
	if err := run(&want, spec, "", "", 0, false, "", "", ""); err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "state.json")
	expired := spec
	expired.Timeout = "1ns"
	err := run(io.Discard, expired, "", ckpt, 0, false, "", "", "")
	if code := exitCode(err); code != exitInterrupted {
		t.Fatalf("expired run: exit %d (%v), want %d", code, err, exitInterrupted)
	}
	msg := fmt.Sprintf("interrupted (-timeout deadline exceeded) after 0/256 faults of MATS+; state saved to %s", ckpt)
	if err.Error() != msg {
		t.Errorf("expired run: %q, want %q", err, msg)
	}

	var got bytes.Buffer
	if err := run(&got, spec, "", ckpt, 0, true, "", "", ""); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("resumed matrix diverges:\n%s\nwant\n%s", got.String(), want.String())
	}
}
