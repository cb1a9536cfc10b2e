package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
)

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, body string) Status {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %s: status %d: %s", body, resp.StatusCode, raw)
	}
	var st Status
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("submit response %q: %v", raw, err)
	}
	return st
}

func waitDone(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case StateDone:
			return st
		case StateFailed:
			t.Fatalf("job %s failed: %s", id, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 60s", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func report(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report %s: status %d: %s", id, resp.StatusCode, raw)
	}
	return string(raw)
}

// TestGradeJobMatchesCLIRendering pins the service contract: a grade
// job's report is byte-identical to what mbistcov prints for the same
// flags (both go through sweep.Workload.RenderText).
func TestGradeJobMatchesCLIRendering(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	spec := sweep.Spec{Algs: "mats+,marchc", Size: 32, Workers: 2}
	st := submit(t, ts, `{"kind":"grade","grade":{"algs":"mats+,marchc","size":32,"workers":2}}`)
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("submitted job is %q", st.State)
	}
	waitDone(t, ts, st.ID)

	w, err := spec.Workload()
	if err != nil {
		t.Fatal(err)
	}
	reports, err := w.Grade(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := report(t, ts, st.ID), w.RenderText(reports); got != want {
		t.Fatalf("service report diverges from CLI rendering:\n--- service\n%s\n--- cli\n%s", got, want)
	}
}

// TestShardedGradeByteIdentical pins the acceptance criterion end to
// end over HTTP: an N-shard grade job returns a report byte-identical
// to the unsharded job.
func TestShardedGradeByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	flat := submit(t, ts, `{"kind":"grade","grade":{"algs":"marchc","size":32}}`)
	sharded := submit(t, ts, `{"kind":"grade","grade":{"algs":"marchc","size":32,"shards":3}}`)
	waitDone(t, ts, flat.ID)
	final := waitDone(t, ts, sharded.ID)
	if final.Total != 4 || final.Done != 4 {
		t.Errorf("3-shard job progress %d/%d, want 4/4 (three shards + merge)", final.Done, final.Total)
	}
	if a, b := report(t, ts, flat.ID), report(t, ts, sharded.ID); a != b {
		t.Fatalf("sharded report diverges from unsharded:\n--- unsharded\n%s\n--- 3-shard\n%s", a, b)
	}
}

// TestRepeatGradeServedFromArtifactCache asserts via obs counters that
// a repeated identical grade request re-synthesises nothing: no new
// universe, controller, stream-verdict or class-plan builds on the
// second request.
func TestRepeatGradeServedFromArtifactCache(t *testing.T) {
	reg := obs.Enable()
	defer obs.Disable()
	_, ts := newTestServer(t, Options{Workers: 1})
	caches := []string{"universe", "controller", "stream", "plan"}
	builds := func() string {
		n := make([]int64, len(caches))
		for i, name := range caches {
			n[i] = reg.Counter("artifact." + name + ".builds").Value()
		}
		return fmt.Sprint(n)
	}

	first := submit(t, ts, `{"kind":"grade","grade":{"algs":"marchc","arch":"microcode","size":40}}`)
	waitDone(t, ts, first.ID)
	b1 := builds()

	second := submit(t, ts, `{"kind":"grade","grade":{"algs":"marchc","arch":"microcode","size":40}}`)
	waitDone(t, ts, second.ID)
	if b2 := builds(); b2 != b1 {
		t.Fatalf("repeat request re-synthesised: %v builds %s -> %s", caches, b1, b2)
	}
	if hits := reg.Counter("artifact.universe.hits").Value(); hits == 0 {
		t.Fatal("repeat request did not hit the universe cache")
	}
	if a, b := report(t, ts, first.ID), report(t, ts, second.ID); a != b {
		t.Fatalf("cached request diverged:\n%s\nvs\n%s", a, b)
	}
}

func TestLintAssembleAreaJobs(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	lint := submit(t, ts, `{"kind":"lint","lint":{"algs":"mats+","arch":"microcode"}}`)
	asm := submit(t, ts, `{"kind":"assemble","assemble":{"arch":"fsm","alg":"marcha"}}`)
	area := submit(t, ts, `{"kind":"area","area":{"table":1}}`)

	waitDone(t, ts, lint.ID)
	if text := report(t, ts, lint.ID); !strings.Contains(text, "artifacts") && !strings.Contains(text, "clean") {
		t.Errorf("lint report looks wrong:\n%s", text)
	}
	waitDone(t, ts, asm.ID)
	if text := report(t, ts, asm.ID); !strings.Contains(text, "algorithm: March A") {
		t.Errorf("assemble report looks wrong:\n%s", text)
	}
	waitDone(t, ts, area.ID)
	if text := report(t, ts, area.ID); !strings.Contains(text, "Table 1") {
		t.Errorf("area report looks wrong:\n%s", text)
	}
}

func TestSubmitValidationAndLookupErrors(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"kind":"teleport"}`, http.StatusBadRequest},
		{`{"kind":"grade","grade":{"algs":"nosuch"}}`, http.StatusBadRequest},
		// The engine is no request field: even the old default is
		// an unknown field.
		{`{"kind":"grade","grade":{"engine":"auto"}}`, http.StatusBadRequest},
		{`{"kind":"grade","grade":{"shards":-1}}`, http.StatusBadRequest},
		// Shard and worker counts are bounded before anything is
		// allocated for them.
		{`{"kind":"grade","grade":{"algs":"mats+","size":2,"shards":65}}`, http.StatusBadRequest},
		{`{"kind":"grade","grade":{"algs":"mats+","size":2,"shards":1099511627776}}`, http.StatusBadRequest},
		{`{"kind":"grade","grade":{"algs":"mats+","size":2,"workers":257}}`, http.StatusBadRequest},
		{`{"kind":"grade","grade":{"algs":"mats+","size":2,"workers":1073741824}}`, http.StatusBadRequest},
		{`{"kind":"grade","grade":{"algs":"mats+","size":2,"width":65}}`, http.StatusBadRequest},
		{`{"kind":"grade","grade":{"algs":"mats+","size":2,"ports":257}}`, http.StatusBadRequest},
		{`{"kind":"grade","grade":{"algs":"mats+","size":-5}}`, http.StatusBadRequest},
		// Universes past the fault budget are refused before anything
		// is enumerated.
		{`{"kind":"grade","grade":{"algs":"mats+","size":1099511627776}}`, http.StatusBadRequest},
		{`{"kind":"grade","grade":{"algs":"mats+","size":16384,"width":8}}`, http.StatusBadRequest},
		{`{"kind":"lint","lint":{"arch":"quantum"}}`, http.StatusBadRequest},
		{`{"kind":"assemble","assemble":{"alg":"nosuch"}}`, http.StatusBadRequest},
		{`{"kind":"area","area":{"table":9}}`, http.StatusBadRequest},
		{`{"kind":"grade","unknown_field":1}`, http.StatusBadRequest},
		// The replay-mode and lane-width knobs are gone; a body still
		// carrying one is an unknown field.
		{`{"kind":"grade","grade":{"replay":"interpreted"}}`, http.StatusBadRequest},
		{`{"kind":"grade","grade":{"lanes":"512"}}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("submit %s: status %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
	}
	// The budget admits 4096×8 on two ports, and the bounds admit 64
	// shards and 256 workers. prepJob validates without grading, so the
	// 1.6 M-fault job never runs here.
	for _, g := range []GradeRequest{
		{Spec: sweep.Spec{Size: 4096, Width: 8, Ports: 2}},
		{Spec: sweep.Spec{Size: 16384, Width: 8}},
		{Spec: sweep.Spec{Size: 4096, Width: 8, Ports: 2, Workers: 256}, Shards: 64},
	} {
		_, err := s.prepJob(Request{Kind: "grade", Grade: &g})
		if fits := g.Size == 4096; fits != (err == nil) {
			t.Errorf("%d×%d×%d, %d shards, %d workers: prepJob error %v", g.Size, g.Width, g.Ports, g.Shards, g.Workers, err)
		}
	}
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/report", "/v1/jobs/nope/watch"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestSubmitBodyBounds pins the submission body contract: a body past
// 1 MiB is a 413, whether the excess sits inside the request object or
// after it; anything but whitespace after the object is a 400; and a
// valid object with trailing whitespace is accepted.
func TestSubmitBodyBounds(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	valid := `{"kind":"area","area":{"table":1}}`
	pad := strings.Repeat(" ", maxRequestBody)
	for _, tc := range []struct {
		name string
		body string
		want int
	}{
		{"oversized object", `{"kind":"area","area":{"table":1}` + pad + `}`, http.StatusRequestEntityTooLarge},
		{"oversized trailer", valid + pad + `x`, http.StatusRequestEntityTooLarge},
		{"second object", valid + valid, http.StatusBadRequest},
		{"trailing garbage", valid + ` x`, http.StatusBadRequest},
		{"trailing whitespace", valid + "\n\t ", http.StatusAccepted},
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d: %s", tc.name, resp.StatusCode, tc.want, raw)
		}
	}
}

func TestWatchStreamsToTerminalState(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	st := submit(t, ts, `{"kind":"grade","grade":{"algs":"mats+","size":16}}`)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body) // the stream ends when the job does
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) == 0 {
		t.Fatal("watch streamed nothing")
	}
	if last := lines[len(lines)-1]; !strings.HasPrefix(last, "done ") {
		t.Fatalf("watch ended on %q, want a done line; full stream:\n%s", last, raw)
	}
}

func TestMetricsAndHealthz(t *testing.T) {
	reg := obs.Enable()
	defer obs.Disable()
	reg.Counter("serve.test_marker").Add(7)
	_, ts := newTestServer(t, Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), "serve.test_marker") {
		t.Errorf("metrics text missing counter:\n%s", raw)
	}
	resp, err = http.Get(ts.URL + "/v1/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var ms []obs.Metric
	err = json.NewDecoder(resp.Body).Decode(&ms)
	resp.Body.Close()
	if err != nil || len(ms) == 0 {
		t.Errorf("metrics json: %v (%d metrics)", err, len(ms))
	}

	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" {
		t.Errorf("healthz: %v", health)
	}
}

// TestDrainFinishesQueuedJobsThenRejects pins graceful shutdown: every
// job accepted before drain completes, and submissions during/after
// drain are rejected with 503.
func TestDrainFinishesQueuedJobsThenRejects(t *testing.T) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ids := make([]string, 3)
	for i := range ids {
		st := submit(t, ts, fmt.Sprintf(`{"kind":"grade","grade":{"algs":"mats+","size":%d}}`, 16+8*i))
		ids[i] = st.ID
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Errorf("job %s is %s after drain, want done", id, st.State)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"grade"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain: status %d, want 503", resp.StatusCode)
	}
}
