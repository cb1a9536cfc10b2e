package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	mbist "repro"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/sweep"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJournalRecoveryResumesByteIdentical pins the tentpole end to
// end in-process: a grade job interrupted mid-run (server torn down
// between checkpoints) is re-enqueued by a new server on the same
// journal directory, resumes from its last coverage checkpoints —
// keyed "<alg>" unsharded and "<alg>#<shard>/<of>" sharded — and its
// final report is byte-identical to an uninterrupted run.
func TestJournalRecoveryResumesByteIdentical(t *testing.T) {
	// Big enough that the second checkpoint (at CheckpointEvery=64)
	// lands long before the run completes — the teardown below must
	// interrupt the job mid-grade.
	spec := sweep.Spec{Algs: "marchc,marchx", Size: 256, Width: 2}
	w, err := spec.Workload()
	if err != nil {
		t.Fatal(err)
	}
	reports, err := w.Grade(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := w.RenderText(reports)

	for _, shards := range []int{0, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			reg := obs.Enable()
			defer obs.Disable()
			dir := t.TempDir()
			req := Request{Kind: "grade", Key: "recover-1", Grade: &GradeRequest{Spec: spec, Shards: shards}}

			s1, err := New(Options{Workers: 1, JournalDir: dir, CheckpointEvery: 64})
			if err != nil {
				t.Fatal(err)
			}
			job, existing, err := s1.Submit(req)
			if err != nil || existing {
				t.Fatalf("submit: existing=%v err=%v", existing, err)
			}
			// Let it journal a few checkpoints, then tear the server down
			// while the job is mid-flight.
			waitFor(t, "checkpoints", func() bool { return job.status().Checkpoints >= 2 })
			s1.Close()
			if st := job.status(); st.State == StateDone {
				t.Fatalf("job finished before the interruption; raise the workload size")
			}

			s2, err := New(Options{Workers: 1, JournalDir: dir, CheckpointEvery: 64})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if got := reg.Counter("serve.jobs_recovered").Value(); got != 1 {
				t.Errorf("serve.jobs_recovered = %d, want 1", got)
			}
			s2.mu.Lock()
			j2 := s2.jobs[job.ID]
			s2.mu.Unlock()
			if j2 == nil {
				t.Fatalf("job %s not recovered", job.ID)
			}
			j2.mu.Lock()
			var keys []string
			for key := range j2.resume {
				keys = append(keys, key)
			}
			j2.mu.Unlock()
			if len(keys) == 0 {
				t.Error("recovered job carries no checkpoint state to resume from")
			}
			for _, key := range keys {
				if sharded := strings.HasSuffix(key, fmt.Sprintf("/%d", shards)); sharded != (shards > 0) {
					t.Errorf("recovered checkpoint key %q for a %d-shard job", key, shards)
				}
			}
			waitFor(t, "recovered job", func() bool { return j2.status().State.terminal() })
			st := j2.status()
			if st.State != StateDone {
				t.Fatalf("recovered job ended %s: %s", st.State, st.Error)
			}
			j2.mu.Lock()
			got := j2.result
			j2.mu.Unlock()
			if got != want {
				t.Fatalf("resumed report diverges from uninterrupted run:\n--- resumed\n%s\n--- uninterrupted\n%s", got, want)
			}
			j2.mu.Lock()
			held := len(j2.resume)
			j2.mu.Unlock()
			if held != 0 {
				t.Errorf("finished recovered job still holds %d checkpoint states", held)
			}

			// The idempotency key survives the restart: resubmitting
			// returns the completed job instead of grading again.
			j3, existing, err := s2.Submit(req)
			if err != nil || !existing || j3.ID != job.ID {
				t.Fatalf("key replay after restart: job=%v existing=%v err=%v", j3, existing, err)
			}
		})
	}
}

// TestJournalRecoveryKeepsTerminalJobs pins that finished jobs keep
// serving their reports after a restart, and that startup compaction
// shrinks a checkpoint-heavy journal.
func TestJournalRecoveryKeepsTerminalJobs(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Options{Workers: 1, JournalDir: dir, CheckpointEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	job, _, err := s1.Submit(Request{Kind: "grade", Grade: &GradeRequest{Spec: sweep.Spec{Algs: "mats+", Size: 24}}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job done", func() bool { return job.status().State.terminal() })
	if st := job.status(); st.State != StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	job.mu.Lock()
	want := job.result
	job.mu.Unlock()
	s1.Close()

	s2, err := New(Options{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.mu.Lock()
	j2 := s2.jobs[job.ID]
	s2.mu.Unlock()
	if j2 == nil {
		t.Fatalf("done job %s not recovered", job.ID)
	}
	st := j2.status()
	if st.State != StateDone || st.Done != st.Total {
		t.Fatalf("recovered done job status %+v", st)
	}
	j2.mu.Lock()
	got := j2.result
	j2.mu.Unlock()
	if got != want {
		t.Fatalf("recovered report diverges:\n%s\nvs\n%s", got, want)
	}
	// Startup compaction replaced the checkpoint history with the live
	// view: one accepted + one done record.
	s2.journalMu.Lock()
	records := s2.journal.Records()
	s2.journalMu.Unlock()
	if records != 2 {
		t.Errorf("compacted journal holds %d records, want 2 (accepted + done)", records)
	}
}

// TestFinishedJobsReleaseCheckpointStates pins bounded job state: a
// grade job keeps its checkpoint states only while it can still
// resume, so a finished (or failed) job, sharded or not, holds none.
func TestFinishedJobsReleaseCheckpointStates(t *testing.T) {
	s, err := New(Options{Workers: 1, JournalDir: t.TempDir(), CheckpointEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec := sweep.Spec{Algs: "marchc", Size: 64, Width: 2}
	var jobs []*Job
	for _, shards := range []int{0, 4} {
		job, _, err := s.Submit(Request{Kind: "grade", Grade: &GradeRequest{Spec: spec, Shards: shards}})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	failing := &Job{Kind: "test", total: 1, retries: -1, run: func(ctx context.Context) (string, error) {
		return "", errors.New("permanent engine fault")
	}}
	failing.resume = map[string]*mbist.CoverageState{"x": {}}
	if err := s.enqueue(failing); err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs, failing)
	for _, job := range jobs {
		waitFor(t, "job "+job.ID, func() bool { return job.status().State.terminal() })
		job.mu.Lock()
		held, checkpoints := len(job.resume), job.checkpoints
		job.mu.Unlock()
		if held != 0 {
			t.Errorf("%s job %s (%d checkpoints) still holds %d checkpoint states", job.status().State, job.ID, checkpoints, held)
		}
		if job.Kind == "grade" && checkpoints == 0 {
			t.Errorf("grade job %s journaled no checkpoints; the test needs a larger workload", job.ID)
		}
	}
}

// TestJournalWithReplayFieldRecovers pins compatibility with journals
// written before the replay-mode and engine fields were removed from
// sweep.Spec: an accepted request carrying "replay" and "engine" still
// recovers and grades, since journal records decode leniently (only
// POST /v1/jobs rejects unknown fields).
func TestJournalWithReplayFieldRecovers(t *testing.T) {
	dir := t.TempDir()
	j, _, err := resilience.OpenJournal(filepath.Join(dir, jobsJournalName), jobsJournalOwner)
	if err != nil {
		t.Fatal(err)
	}
	rec := json.RawMessage(`{"op":"accepted","id":"job-7","req":{"kind":"grade","grade":{"algs":"mats+","size":8,"replay":"interpreted","engine":"scalar"}}}`)
	if err := j.Append(rec); err != nil {
		t.Fatal(err)
	}
	j.Close()

	s, err := New(Options{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatalf("journal with a replay field refused: %v", err)
	}
	defer s.Close()
	s.mu.Lock()
	job := s.jobs["job-7"]
	s.mu.Unlock()
	if job == nil {
		t.Fatal("job-7 not recovered")
	}
	waitFor(t, "recovered job", func() bool { return job.status().State.terminal() })
	if st := job.status(); st.State != StateDone {
		t.Fatalf("recovered job ended %s: %s", st.State, st.Error)
	}
	w, err := sweep.Spec{Algs: "mats+", Size: 8}.Workload()
	if err != nil {
		t.Fatal(err)
	}
	reports, err := w.Grade(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	job.mu.Lock()
	got := job.result
	job.mu.Unlock()
	if want := w.RenderText(reports); got != want {
		t.Fatalf("recovered report diverges:\n%s\nvs\n%s", got, want)
	}
}

// TestJournalRecoveryRefusesOversizedGrade pins the fault budget and
// the shard bound on recovery, for journals written before either
// existed: an unfinished grade whose universe exceeds maxGradeFaults,
// or whose shard count exceeds maxGradeShards, is failed with the error
// POST /v1/jobs would answer, not run, while a finished one keeps
// serving its report.
func TestJournalRecoveryRefusesOversizedGrade(t *testing.T) {
	dir := t.TempDir()
	j, _, err := resilience.OpenJournal(filepath.Join(dir, jobsJournalName), jobsJournalOwner)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []string{
		`{"op":"accepted","id":"job-3","req":{"kind":"grade","grade":{"algs":"marchc","size":16384,"width":8}}}`,
		`{"op":"accepted","id":"job-4","req":{"kind":"grade","grade":{"algs":"marchc","size":16384,"width":8}}}`,
		`{"op":"done","id":"job-4","result":"a finished report"}`,
		`{"op":"accepted","id":"job-5","req":{"kind":"grade","grade":{"algs":"marchc","size":8,"shards":1099511627776}}}`,
	} {
		if err := j.Append(json.RawMessage(rec)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	s, err := New(Options{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for id, g := range map[string]GradeRequest{
		"job-3": {Spec: sweep.Spec{Algs: "marchc", Size: 16384, Width: 8}},
		"job-5": {Spec: sweep.Spec{Algs: "marchc", Size: 8}, Shards: 1 << 40},
	} {
		s.mu.Lock()
		job := s.jobs[id]
		s.mu.Unlock()
		if job == nil {
			t.Fatalf("%s not recovered", id)
		}
		_, _, submitErr := s.Submit(Request{Kind: "grade", Grade: &g})
		st := job.status()
		if submitErr == nil || st.State != StateFailed || !strings.HasSuffix(st.Error, submitErr.Error()) {
			t.Fatalf("recovered oversized %s: state %s, error %q; submit error %v", id, st.State, st.Error, submitErr)
		}
	}
	s.mu.Lock()
	done := s.jobs["job-4"]
	s.mu.Unlock()
	if done == nil {
		t.Fatal("job-4 not recovered")
	}
	done.mu.Lock()
	state, result := done.state, done.result
	done.mu.Unlock()
	if state != StateDone || result != "a finished report" {
		t.Fatalf("finished oversized job recovered as %s with report %q", state, result)
	}
}

// TestNewRefusesUntrustedJournal pins the corrupt/foreign journal
// contract New exposes (cmd/mbistd maps these to exit code 4).
func TestNewRefusesUntrustedJournal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, jobsJournalName)
	j, _, err := resilience.OpenJournal(path, "some-other-owner/1")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(map[string]string{"op": "accepted"}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := New(Options{JournalDir: dir}); !errors.Is(err, resilience.ErrMismatch) {
		t.Fatalf("foreign journal: New err = %v, want ErrMismatch", err)
	}

	if err := os.WriteFile(path, []byte("complete garbage line\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{JournalDir: dir}); !errors.Is(err, resilience.ErrCorrupt) {
		t.Fatalf("corrupt journal: New err = %v, want ErrCorrupt", err)
	}
}

// TestDeadlineExpiredJobReturnsPartial pins the acceptance criterion:
// a grade job whose sweep.Spec timeout expires still goes to done with
// a valid Partial report and a deadline attribution — a sharded one
// with the attribution alone, as its slices cannot merge. The sweep
// (every library algorithm at 2048x8) takes most of a second on the
// default lane engine, well past the deadline.
func TestDeadlineExpiredJobReturnsPartial(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	for _, tc := range []struct {
		shards int
		tail   string
	}{
		{0, " algorithms\n"},
		{4, "/4 shards; no merged matrix\n"},
	} {
		st := submit(t, ts, fmt.Sprintf(`{"kind":"grade","grade":{"size":2048,"width":8,"timeout":"20ms","shards":%d}}`, tc.shards))
		final := waitDone(t, ts, st.ID)
		if !final.DeadlineExceeded {
			t.Fatalf("%d shards: status %+v: deadline_exceeded not set (did the full sweep finish inside 20ms?)", tc.shards, final)
		}
		text := report(t, ts, st.ID)
		if !strings.Contains(text, "\npartial: deadline 20ms exceeded after ") || !strings.HasSuffix(text, tc.tail) {
			t.Fatalf("%d shards: partial report missing deadline attribution:\n%s", tc.shards, text)
		}
		if !strings.HasPrefix(text, "fault coverage on reference (2048 x 8 bits, 1 ports):\n\n") {
			t.Fatalf("%d shards: partial report lost the CLI header:\n%s", tc.shards, text)
		}
	}
}

// TestRetryBudgetDeterministic pins bounded retry: a transiently
// failing job re-runs at most its budget (with the seeded backoff
// schedule between attempts) and succeeds when the fault clears.
func TestRetryBudgetDeterministic(t *testing.T) {
	reg := obs.Enable()
	defer obs.Disable()
	s, err := New(Options{Workers: 1, RetryBase: time.Millisecond, RetryCap: 2 * time.Millisecond, RetrySeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var runs atomic.Int32
	flaky := &Job{Kind: "test", total: 1, retries: 2, run: func(ctx context.Context) (string, error) {
		if runs.Add(1) < 3 {
			return "", errors.New("transient engine fault")
		}
		return "ok", nil
	}}
	if err := s.enqueue(flaky); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "flaky job", func() bool { return flaky.status().State.terminal() })
	if st := flaky.status(); st.State != StateDone || st.Attempt != 3 {
		t.Fatalf("flaky job: %+v, want done on attempt 3", st)
	}
	if got := runs.Load(); got != 3 {
		t.Fatalf("flaky job ran %d times, want 3", got)
	}
	if got := reg.Counter("serve.jobs_retried").Value(); got != 2 {
		t.Errorf("serve.jobs_retried = %d, want 2", got)
	}

	// Budget exhaustion: a job that never recovers fails after exactly
	// retries+1 attempts.
	var hopelessRuns atomic.Int32
	hopeless := &Job{Kind: "test", total: 1, retries: 2, run: func(ctx context.Context) (string, error) {
		hopelessRuns.Add(1)
		return "", errors.New("permanent engine fault")
	}}
	if err := s.enqueue(hopeless); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "hopeless job", func() bool { return hopeless.status().State.terminal() })
	if st := hopeless.status(); st.State != StateFailed || st.Attempt != 3 {
		t.Fatalf("hopeless job: %+v, want failed on attempt 3", st)
	}
	if got := hopelessRuns.Load(); got != 3 {
		t.Fatalf("hopeless job ran %d times, want 3 (1 + retry budget 2)", got)
	}
}

// TestWatchdogKillsStuckJob pins stuck-job detection: a job making no
// checkpoint progress within the window is cancelled and failed with
// watchdog attribution.
func TestWatchdogKillsStuckJob(t *testing.T) {
	reg := obs.Enable()
	defer obs.Disable()
	s, err := New(Options{Workers: 1, Watchdog: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	stuck := &Job{Kind: "test", total: 1, run: func(ctx context.Context) (string, error) {
		<-ctx.Done()
		return "", ctx.Err()
	}}
	if err := s.enqueue(stuck); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "watchdog kill", func() bool { return stuck.status().State.terminal() })
	st := stuck.status()
	if st.State != StateFailed || !strings.Contains(st.Error, "watchdog: no checkpoint progress within 30ms") {
		t.Fatalf("stuck job: %+v, want watchdog-attributed failure", st)
	}
	if got := reg.Counter("serve.watchdog_kills").Value(); got != 1 {
		t.Errorf("serve.watchdog_kills = %d, want 1", got)
	}
}

// TestPanickingJobQuarantined pins the poisoned-input path: a job
// whose attempts all panic lands in quarantined (visible as 500 on the
// report endpoint), not in an engine crash.
func TestPanickingJobQuarantined(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	poisoned := &Job{Kind: "test", total: 1, run: func(ctx context.Context) (string, error) {
		panic("poisoned work item")
	}}
	if err := s.enqueue(poisoned); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "quarantine", func() bool { return poisoned.status().State.terminal() })
	st := poisoned.status()
	if st.State != StateQuarantined || !strings.Contains(st.Error, "poisoned work item") {
		t.Fatalf("panicking job: %+v, want quarantined", st)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("report of quarantined job: status %d, want 500", resp.StatusCode)
	}
}

// TestIdempotencyKeyNeverGradesTwice pins the duplicate-submission
// contract over HTTP: the duplicate gets 200 with the original job,
// and only one job executes.
func TestIdempotencyKeyNeverGradesTwice(t *testing.T) {
	reg := obs.Enable()
	defer obs.Disable()
	_, ts := newTestServer(t, Options{Workers: 1})
	body := `{"kind":"grade","key":"dup-1","grade":{"algs":"mats+","size":16}}`

	post := func() (int, Status) {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, st
	}
	code1, st1 := post()
	code2, st2 := post()
	if code1 != http.StatusAccepted {
		t.Fatalf("first submit: status %d, want 202", code1)
	}
	if code2 != http.StatusOK || st2.ID != st1.ID {
		t.Fatalf("duplicate submit: status %d id %s, want 200 with id %s", code2, st2.ID, st1.ID)
	}
	waitDone(t, ts, st1.ID)
	if got := reg.Counter("serve.jobs_submitted").Value(); got != 1 {
		t.Errorf("serve.jobs_submitted = %d, want 1 (duplicate must not execute)", got)
	}
}

// TestUnavailableResponsesCarryRetryAfter pins the 503 contract for
// both draining and saturation: Retry-After header plus a
// machine-readable JSON body.
func TestUnavailableResponsesCarryRetryAfter(t *testing.T) {
	// Saturation: one blocked worker + a full queue.
	s, ts := newTestServer(t, Options{Workers: 1, Queue: 1})
	started := make(chan struct{})
	blocker := func(ctx context.Context) (string, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-ctx.Done()
		return "", ctx.Err()
	}
	if err := s.enqueue(&Job{Kind: "test", total: 1, run: blocker}); err != nil {
		t.Fatal(err)
	}
	<-started // the worker is busy
	if err := s.enqueue(&Job{Kind: "test", total: 1, run: blocker}); err != nil {
		t.Fatal(err) // sits in the queue, filling it
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"area"}`))
	if err != nil {
		t.Fatal(err)
	}
	assert503 := func(resp *http.Response, code, retryAfter string) {
		t.Helper()
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503: %s", resp.StatusCode, raw)
		}
		if got := resp.Header.Get("Retry-After"); got != retryAfter {
			t.Errorf("Retry-After = %q, want %q", got, retryAfter)
		}
		var body struct {
			Error             string `json:"error"`
			Code              string `json:"code"`
			RetryAfterSeconds int    `json:"retry_after_seconds"`
		}
		if err := json.Unmarshal(raw, &body); err != nil {
			t.Fatalf("503 body is not machine-readable JSON: %v: %s", err, raw)
		}
		if body.Code != code || body.Error == "" || body.RetryAfterSeconds == 0 {
			t.Errorf("503 body %+v, want code %q with error and retry_after_seconds", body, code)
		}
	}
	assert503(resp, "saturated", "1")

	// Draining beats saturation reporting.
	s.closeQueue()
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"area"}`))
	if err != nil {
		t.Fatal(err)
	}
	assert503(resp, "draining", "10")
}
