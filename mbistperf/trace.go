package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// tracer records spans around the benchmark's calls into each layer.
// Each op's spans share the op index as trace ID and hang under the
// op's root span. A span's self time — its duration minus the time its
// child spans cover — is summed per span name as the span ends, so the
// per-layer metrics need no span kept. Finished spans are kept in
// memory only when they are to be written out (-trace-out). A tracer
// belongs to one goroutine.
type tracer struct {
	epoch time.Time
	keep  bool
	spans []spanRecord
	// dropped counts spans not kept because the buffer was full.
	dropped int

	trace  int
	nextID int
	stack  []openSpan

	self map[string]time.Duration
	// work sums the units of work a span name reports at its end
	// (fault × µop products for replay, faults for the scalar oracle).
	work map[string]int64
}

type openSpan struct {
	id, parent int
	name       string
	start      time.Time
	child      time.Duration
}

// spanRecord is one line of the -trace-out JSONL file. Times are
// nanoseconds since the traced run started; IDs are unique within a
// trace.
type spanRecord struct {
	Workload string `json:"workload"`
	Trace    int    `json:"trace"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// maxKeptSpans bounds the in-memory span buffer (about 100 MB).
const maxKeptSpans = 1 << 20

func newTracer(epoch time.Time, keep bool) *tracer {
	return &tracer{epoch: epoch, keep: keep, self: map[string]time.Duration{}, work: map[string]int64{}}
}

// beginOp opens the root span of op index; spans an earlier op left
// open (it failed mid-way) are discarded.
func (t *tracer) beginOp(index int) {
	t.stack = t.stack[:0]
	t.trace = index
	t.begin(spanOp)
}

func (t *tracer) begin(name string) {
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].id
	}
	t.nextID++
	t.stack = append(t.stack, openSpan{id: t.nextID, parent: parent, name: name, start: time.Now()})
}

func (t *tracer) end() { t.endWork(0) }

// endWork closes the innermost span, crediting it with work units.
func (t *tracer) endWork(work int64) {
	n := len(t.stack)
	if n == 0 {
		return
	}
	s := t.stack[n-1]
	t.stack = t.stack[:n-1]
	now := time.Now()
	dur := now.Sub(s.start)
	t.self[s.name] += dur - s.child
	t.work[s.name] += work
	if n > 1 {
		t.stack[n-2].child += dur
	}
	if !t.keep {
		return
	}
	if len(t.spans) >= maxKeptSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, spanRecord{
		Trace: t.trace, ID: s.id, Parent: s.parent, Name: s.name,
		StartNS: s.start.Sub(t.epoch).Nanoseconds(), EndNS: now.Sub(t.epoch).Nanoseconds(),
	})
}

// merge folds o's totals and kept spans into t.
func (t *tracer) merge(o *tracer) {
	for k, v := range o.self {
		t.self[k] += v
	}
	for k, v := range o.work {
		t.work[k] += v
	}
	t.spans = append(t.spans, o.spans...)
	t.dropped += o.dropped
}

// selfMS is a span name's summed self time in milliseconds.
func (t *tracer) selfMS(name string) float64 {
	return float64(t.self[name]) / float64(time.Millisecond)
}

// appendSpans appends the kept spans to the JSONL file at path.
func (t *tracer) appendSpans(path, workload string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		s.Workload = workload
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if t.dropped > 0 {
		fmt.Fprintf(os.Stderr, "mbistperf: %d spans beyond the first %d were not kept\n", t.dropped, maxKeptSpans)
	}
	return f.Close()
}
