package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	mbist "repro"
	"repro/internal/coverage"
	"repro/internal/fsmbist"
	"repro/internal/microbist"
	"repro/internal/serve"
)

// job sends one service job through its whole life: submit, watch until
// terminal, fetch the report. A traced run also keeps the job's timings
// and final status for traceJobs.
func (r *runner) job(ctx context.Context, c *client, o op) opRecord {
	jt := jobTrace{op: o}
	t0 := time.Now()
	text, id, err := r.roundTrip(ctx, o.Job, &jt)
	jt.latency = time.Since(t0)
	rec := opRecord{Index: o.Index, Key: o.Key, WallMS: msOf(jt.latency)}
	if err != nil {
		rec.Error = err.Error()
		return rec
	}
	rec.Digest = digestText(text)
	rec.Error = r.checkGolden(o.Key, rec.Digest)
	if _, ok := c.jobs[o.Key]; jobGrade(o.Job) != nil && !ok {
		c.jobs[o.Key] = jobText{req: o.Job, text: text}
	}
	if c.tr == nil {
		return rec
	}
	var st serve.Status
	raw, err := httpDo(ctx, http.MethodGet, r.env.ts.URL+"/v1/jobs/"+id, nil, http.StatusOK)
	if err == nil {
		err = json.Unmarshal(raw, &st)
	}
	if err != nil {
		rec.Error = fmt.Sprintf("status %s: %v", id, err)
		return rec
	}
	jt.checkpoints, jt.attempts = st.Checkpoints, st.Attempt
	c.traces = append(c.traces, jt)
	return rec
}

// traceJobs runs, after a traced window, each job's library call
// standalone and, for grades, the decomposed pipeline. Doing it inline
// would pace the clients differently from an untraced run, and the
// latency split would describe a different job stream.
func (r *runner) traceJobs(ctx context.Context) error {
	for _, c := range r.clients {
		for i := range c.traces {
			jt := &c.traces[i]
			t := time.Now()
			reps, _, err := libraryCall(ctx, jt.op.Job)
			jt.run = time.Since(t)
			g := jobGrade(jt.op.Job)
			switch {
			case err != nil:
				r.refuted[jt.op.Key] = "standalone call: " + err.Error()
			case g != nil:
				c.engineRuns += len(reps) * max(jt.op.Job.Grade.Shards, 1)
				if msg := c.decompose(jt.op.Index, g, digestReports(reps)); msg != "" {
					r.refuted[jt.op.Key] = msg
				}
			}
		}
	}
	return ctx.Err()
}

// roundTrip is one client's closed-loop job: POST /v1/jobs, stream
// /watch until the job is terminal, GET /report. It fills jt's submit
// and report times and returns the report text and the job ID.
func (r *runner) roundTrip(ctx context.Context, req *serve.Request, jt *jobTrace) (string, string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", "", err
	}
	base := r.env.ts.URL + "/v1/jobs"
	t := time.Now()
	raw, err := httpDo(ctx, http.MethodPost, base, body, http.StatusAccepted)
	jt.submit = time.Since(t)
	if err != nil {
		return "", "", fmt.Errorf("submit: %w", err)
	}
	var st serve.Status
	if err := json.Unmarshal(raw, &st); err != nil {
		return "", "", fmt.Errorf("submit response: %w", err)
	}
	watch, err := httpDo(ctx, http.MethodGet, base+"/"+st.ID+"/watch", nil, http.StatusOK)
	if err != nil {
		return "", st.ID, fmt.Errorf("watch %s: %w", st.ID, err)
	}
	if lines := strings.Fields(string(watch)); len(lines) < 2 || lines[len(lines)-2] != string(serve.StateDone) {
		return "", st.ID, fmt.Errorf("job %s ended %q", st.ID, bytes.TrimSpace(watch))
	}
	t = time.Now()
	text, err := httpDo(ctx, http.MethodGet, base+"/"+st.ID+"/report", nil, http.StatusOK)
	jt.report = time.Since(t)
	if err != nil {
		return "", st.ID, fmt.Errorf("report %s: %w", st.ID, err)
	}
	return string(text), st.ID, nil
}

// httpDo sends one request and returns the body of a response with the
// wanted status; any other status (a refused job's 503 included) is an
// error.
func httpDo(ctx context.Context, method, url string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, nil
}

// libraryCall runs a job's library call in-process, as the service's
// worker runs it, for the kinds service-mixed sends. It returns a grade
// job's reports and the call's text; a grade's text must match the
// service's report byte for byte.
func libraryCall(ctx context.Context, req *serve.Request) ([]*coverage.Report, string, error) {
	switch req.Kind {
	case "grade":
		return jobGrade(req).produce(ctx)
	case "lint":
		rep, err := mbist.Lint(mbist.LintOptions{Algorithms: []string{req.Lint.Algs}, Archs: []mbist.LintArch{mbist.LintMicrocode}})
		if err != nil {
			return nil, "", err
		}
		return nil, rep.Text(), nil
	case "assemble":
		text, err := listing(req.Assemble)
		return nil, text, err
	case "area":
		t, err := mbist.Table1()
		if err != nil {
			return nil, "", err
		}
		return nil, t.String(), nil
	}
	return nil, "", fmt.Errorf("unknown job kind %q", req.Kind)
}

// listing assembles a word-oriented multiport program, the service's
// default, and returns its listing.
func listing(req *serve.AssembleRequest) (string, error) {
	alg, ok := mbist.AlgorithmByName(req.Alg)
	if !ok {
		return "", fmt.Errorf("unknown algorithm %q", req.Alg)
	}
	if req.Arch == "fsm" {
		p, err := fsmbist.Compile(alg, fsmbist.CompileOpts{WordOriented: true, Multiport: true})
		if err != nil {
			return "", err
		}
		return p.Listing(), nil
	}
	p, err := microbist.Assemble(alg, microbist.AssembleOpts{WordOriented: true, Multiport: true})
	if err != nil {
		return "", err
	}
	return p.Listing(), nil
}
