// Command mbistcov grades march algorithms against the functional
// fault universe and prints a coverage matrix (extension experiment X1
// of DESIGN.md).
//
// Usage:
//
//	mbistcov
//	mbistcov -algs marchc,marchc+,marchc++ -arch microcode -size 16
//	mbistcov -detail marchc
//	mbistcov -arch microcode -workers 4 -cpuprofile grade.pprof -metrics
//	mbistcov -size 1024 -width 8 -checkpoint state.json
//	mbistcov -size 1024 -width 8 -checkpoint state.json -resume
//	mbistcov -size 1024 -timeout 5m -checkpoint state.json
//	mbistcov -size 1024 -shard 0/4 -out shard0.json
//	mbistcov -size 1024 -merge shard0.json,shard1.json,shard2.json,shard3.json
//
// The observability flags -cpuprofile, -memprofile, -trace and
// -metrics profile a grading run; -metrics dumps the obs counter
// snapshot (per-worker fault throughput, settle counts, ...) to stderr
// at exit.
//
// Matrix-scale runs are interruptible: with -checkpoint, grading state
// is persisted atomically every -checkpoint-every faults and once more
// on SIGINT/SIGTERM, and -resume continues from the saved state to a
// report byte-identical to an uninterrupted run. The checkpoint file
// is versioned, checksummed and bound to the workload (algorithms,
// architecture, geometry, universe options), so a stale or tampered
// file is rejected instead of silently mis-resumed.
//
// Sweeps also shard: -shard i/N grades only the i-th contiguous slice
// of the fault universe and writes its state to -out; -merge combines
// a full shard set (graded anywhere — goroutines, processes, machines)
// and prints a matrix byte-identical to the unsharded run. Shard files
// reuse the checkpoint envelope, so a shard graded under different
// flags is rejected at merge. -checkpoint and -resume apply only to a
// whole-workload run, and -merge prints no -detail report: those
// combinations are usage errors (exit 1), not silently ignored.
//
// Exit codes:
//
//	0  success
//	1  grading or configuration error, or conflicting flags
//	2  flag parse error
//	3  interrupted by SIGINT/SIGTERM or the -timeout deadline (final
//	   checkpoint written when -checkpoint is set)
//	4  -resume checkpoint or -merge shard file is corrupt or belongs
//	   to a different workload
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/coverage"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/sweep"
)

// Exit codes. 2 is taken by flag parsing.
const (
	exitOK          = 0
	exitError       = 1
	exitInterrupted = 3
	exitBadResume   = 4
)

// errInterrupted marks a run stopped by SIGINT/SIGTERM or the -timeout
// deadline after writing its final checkpoint.
var errInterrupted = errors.New("interrupted")

// cause distinguishes the two interruption sources in the exit-3
// message: a -timeout expiry versus an operator signal.
func cause(ctx context.Context) string {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return " (-timeout deadline exceeded)"
	}
	return ""
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("mbistcov: ")
	var spec sweep.Spec
	spec.Register(flag.CommandLine)
	detail := flag.String("detail", "", "print the full per-kind report and missed faults for one algorithm")
	ckptPath := flag.String("checkpoint", "", "persist grading state to this file (atomic rename-on-write)")
	ckptEvery := flag.Int("checkpoint-every", 0, "checkpoint cadence in graded faults (0 = default)")
	resume := flag.Bool("resume", false, "resume from the -checkpoint file if it exists")
	shardSpec := flag.String("shard", "", "grade one sweep slice i/N (e.g. 0/4) and write its state to -out")
	outPath := flag.String("out", "", "shard state output file for -shard")
	mergeList := flag.String("merge", "", "comma-separated shard files to merge into the final matrix")
	var prof obs.Flags
	prof.Register(flag.CommandLine)
	defaultUsage := flag.Usage
	flag.Usage = func() {
		defaultUsage()
		fmt.Fprint(flag.CommandLine.Output(), `
exit codes:
  0  success
  1  grading or configuration error, or conflicting flags
  2  flag parse error
  3  interrupted by SIGINT/SIGTERM or the -timeout deadline (final checkpoint written when -checkpoint is set)
  4  -resume checkpoint or -merge shard file is corrupt or belongs to a different workload
`)
	}
	flag.Parse()

	stop, err := prof.Start()
	if err != nil {
		log.Fatal(err)
	}
	runErr := run(os.Stdout, spec, *detail, *ckptPath, *ckptEvery, *resume, *shardSpec, *outPath, *mergeList)
	if err := stop(); err != nil {
		log.Print(err)
	}
	if runErr != nil {
		log.Print(runErr)
	}
	os.Exit(exitCode(runErr))
}

// exitCode maps run's error to the documented exit code.
func exitCode(err error) int {
	switch {
	case err == nil:
		return exitOK
	case errors.Is(err, errInterrupted):
		return exitInterrupted
	case errors.Is(err, resilience.ErrCorrupt), errors.Is(err, resilience.ErrMismatch):
		return exitBadResume
	}
	return exitError
}

// checkpointPayload is the mbistcov checkpoint body: one grading State
// per algorithm, keyed by name, in a fixed algorithm order. Algorithms
// graded to completion resume instantly (every fault already settled);
// the in-flight one resumes at its last persisted fault.
type checkpointPayload struct {
	Algs   []string                   `json:"algs"`
	States map[string]*coverage.State `json:"states"`
}

func run(stdout io.Writer, spec sweep.Spec, detail, ckptPath string, ckptEvery int, resume bool, shardSpec, outPath, mergeList string) error {
	switch {
	case shardSpec != "" && mergeList != "":
		return fmt.Errorf("-shard and -merge are mutually exclusive")
	case (shardSpec != "" || mergeList != "") && (ckptPath != "" || resume):
		return fmt.Errorf("-checkpoint and -resume do not combine with -shard or -merge")
	case mergeList != "" && detail != "":
		return fmt.Errorf("-detail does not combine with -merge")
	case resume && ckptPath == "":
		return fmt.Errorf("-resume requires -checkpoint")
	}
	if detail != "" {
		spec.Algs = detail
	}
	spec.Algs = strings.TrimSpace(spec.Algs)
	w, err := spec.Workload()
	if err != nil {
		return err
	}
	w.Opts.CheckpointEvery = ckptEvery

	// Stop at the next batch boundary on SIGINT/SIGTERM; the grade
	// flushes a final checkpoint before returning. A -timeout
	// deadline takes the same path: final checkpoint, exit 3.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if timeout, err := spec.TimeoutDuration(); err != nil {
		return err
	} else if timeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, timeout)
		defer tcancel()
	}

	var reports []*coverage.Report
	switch {
	case shardSpec != "":
		return runShard(ctx, w, shardSpec, outPath)
	case mergeList != "":
		reports, err = mergeShards(w, mergeList)
	default:
		reports, err = gradeAll(ctx, w, ckptPath, resume)
	}
	if err != nil {
		return err
	}

	if detail != "" {
		rep := reports[0]
		fmt.Fprint(stdout, rep)
		if len(rep.Missed) > 0 {
			fmt.Fprintf(stdout, "missed faults (%d):\n", len(rep.Missed))
			for i, f := range rep.Missed {
				if i >= 40 {
					fmt.Fprintf(stdout, "  ... %d more\n", len(rep.Missed)-40)
					break
				}
				fmt.Fprintf(stdout, "  %v\n", f)
			}
		}
		printQuarantine(rep)
		return nil
	}

	fmt.Fprint(stdout, w.RenderText(reports))
	for _, rep := range reports {
		printQuarantine(rep)
	}
	return nil
}

// gradeAll grades the whole workload, persisting every unit's
// checkpoints to ckptPath (when set) and resuming from it.
func gradeAll(ctx context.Context, w *sweep.Workload, ckptPath string, resume bool) ([]*coverage.Report, error) {
	// The workload fingerprint binds a checkpoint to this exact run;
	// the worker count is excluded — verdicts are byte-identical at
	// any count, so a checkpoint resumes under another.
	payload := checkpointPayload{Algs: w.Names(), States: make(map[string]*coverage.State)}
	fingerprint := w.Fingerprint()

	if resume {
		var prior checkpointPayload
		switch err := resilience.Load(ckptPath, fingerprint, &prior); {
		case errors.Is(err, os.ErrNotExist):
			log.Printf("no checkpoint at %s, starting fresh", ckptPath)
		case err != nil:
			return nil, err
		default:
			if prior.States != nil {
				payload.States = prior.States
			}
			done := 0
			for _, st := range payload.States {
				if st.Complete() {
					done++
				}
			}
			log.Printf("resuming from %s: %d/%d algorithms complete", ckptPath, done, len(w.Algs))
		}
	}

	var ckptErr error
	var o sweep.RunOptions
	if ckptPath != "" {
		o.Resume = func(key string) *coverage.State { return payload.States[key] }
		o.Checkpoint = func(key string, st *coverage.State) {
			payload.States[key] = st
			if err := resilience.Save(ckptPath, fingerprint, payload); err != nil {
				ckptErr = err
			}
		}
	}
	reports, _, err := w.Run(ctx, o)
	if err != nil {
		if n := len(reports); ctx.Err() != nil && n > 0 && reports[n-1].Partial {
			saved := ""
			switch {
			case ckptErr != nil:
				saved = fmt.Sprintf("; checkpoint write failed: %v", ckptErr)
			case ckptPath != "":
				saved = "; state saved to " + ckptPath
			}
			rep := reports[n-1]
			return nil, fmt.Errorf("%w%s after %d/%d faults of %s%s",
				errInterrupted, cause(ctx), rep.Graded, rep.Universe, rep.Algorithm, saved)
		}
		return nil, err
	}
	if ckptErr != nil {
		log.Printf("warning: checkpoint write failed: %v", ckptErr)
	}
	return reports, nil
}

// runShard grades one sweep slice and persists it to -out.
func runShard(ctx context.Context, w *sweep.Workload, shardSpec, outPath string) error {
	var shard, of int
	if n, err := fmt.Sscanf(shardSpec, "%d/%d", &shard, &of); n != 2 || err != nil {
		return fmt.Errorf("bad -shard %q, want i/N (e.g. 0/4)", shardSpec)
	}
	if outPath == "" {
		return fmt.Errorf("-shard requires -out")
	}
	s, err := w.GradeShard(ctx, shard, of)
	if err != nil {
		if ctx.Err() != nil {
			return fmt.Errorf("%w%s while grading shard %d/%d", errInterrupted, cause(ctx), shard, of)
		}
		return err
	}
	if err := w.SaveShard(outPath, s); err != nil {
		return err
	}
	log.Printf("shard %d/%d graded, state saved to %s", shard, of, outPath)
	return nil
}

// mergeShards combines a full shard set into the final reports,
// byte-identical to an unsharded run of the same workload.
func mergeShards(w *sweep.Workload, mergeList string) ([]*coverage.Report, error) {
	var shards []*sweep.Shard
	for _, path := range strings.Split(mergeList, ",") {
		s, err := w.LoadShard(strings.TrimSpace(path))
		if err != nil {
			return nil, err
		}
		shards = append(shards, s)
	}
	return w.Merge(shards...)
}

// printQuarantine surfaces quarantined faults so a poisoned workload
// cannot hide inside an otherwise clean matrix.
func printQuarantine(rep *coverage.Report) {
	if len(rep.Quarantined) == 0 {
		return
	}
	log.Printf("%s on %v: %d fault(s) quarantined (excluded from coverage):",
		rep.Algorithm, rep.Architecture, len(rep.Quarantined))
	for _, q := range rep.Quarantined {
		log.Printf("  #%d %s: %s", q.Index, q.Fault, q.Err)
	}
}
