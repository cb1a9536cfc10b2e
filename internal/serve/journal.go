// Job-store durability: every state transition is appended to an
// fsync-per-record JSONL journal (resilience.Journal) and replayed on
// the next start against the same directory.
//
// Journal state machine, one jobEntry per record:
//
//	accepted{id, key, req} ──> running{attempt} ──> checkpointed{n, states}*
//	       │                        │
//	       └────────────────────────┴──> done{result, expired}
//	                                 └─> failed{error} | quarantined{error}
//
// Recovery folds the records per job: a job with a terminal record is
// rebuilt in its terminal state (its report keeps serving); a job
// without one is re-validated from its stored request, seeded with the
// union of its checkpointed coverage states, and re-enqueued — grading
// resumes from the last checkpoint, byte-identical to an uninterrupted
// run. After replay the journal is compacted (atomic rotate) down to
// the live view: one accepted record per job plus its terminal record
// or latest checkpoint.
package serve

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/coverage"
	"repro/internal/resilience"
)

// jobsJournalOwner is the journal fingerprint. It binds a journal file
// to the job-store record format; bump it when jobEntry changes
// incompatibly. A journal written by anything else is refused with
// resilience.ErrMismatch.
const jobsJournalOwner = "mbistd-jobs/1"

// jobsJournalName is the journal's file name inside Options.JournalDir.
const jobsJournalName = "jobs.journal"

// compactBytes is the journal size past which a terminal transition
// triggers compaction (checkpoint records dominate growth; the
// compacted view keeps only the latest per job).
const compactBytes = 1 << 20

// Journal record ops, in lifecycle order.
const (
	opAccepted     = "accepted"
	opRunning      = "running"
	opCheckpointed = "checkpointed"
	opDone         = "done"
	opFailed       = "failed"
	opQuarantined  = "quarantined"
)

// jobEntry is one journaled state transition. Op selects which fields
// are meaningful.
type jobEntry struct {
	Op  string `json:"op"`
	ID  string `json:"id"`
	Key string `json:"key,omitempty"` // accepted: idempotency key
	// Req is the validated submission, stored so recovery can rebuild
	// the run closure without the client.
	Req     *Request `json:"req,omitempty"`
	Attempt int      `json:"attempt,omitempty"` // running/failed/quarantined
	// N is the job's cumulative checkpoint count; States carries the
	// checkpointed coverage state(s), keyed by algorithm name (or
	// "alg#shard/of" for sharded grades).
	N       int                        `json:"n,omitempty"`
	States  map[string]*coverage.State `json:"states,omitempty"`
	Result  string                     `json:"result,omitempty"`  // done
	Expired bool                       `json:"expired,omitempty"` // done: deadline Partial
	Error   string                     `json:"error,omitempty"`   // failed/quarantined
}

// journalAppend appends one transition (no-op without a journal) and
// fires the chaos self-kill when configured. Append failures are
// logged, not fatal: the in-memory store stays authoritative for this
// process; only recovery fidelity degrades.
func (s *Server) journalAppend(e jobEntry) {
	if s.journal == nil {
		return
	}
	s.journalMu.Lock()
	err := s.journal.Append(e)
	size := s.journal.Size()
	s.journalMu.Unlock()
	if err != nil {
		log.Printf("serve: journal append (%s %s): %v", e.Op, e.ID, err)
		return
	}
	s.mJournalBytes.Set(size)
	if e.Op == opCheckpointed && s.crashAfter > 0 && s.crashCount.Add(1) == s.crashAfter {
		// Chaos harness: die like a power cut — no deferred cleanup, no
		// flushes beyond the fsync that just happened.
		syscall.Kill(os.Getpid(), syscall.SIGKILL)
	}
}

// closeJournal releases the journal's append handle on shutdown.
func (s *Server) closeJournal() {
	s.journalMu.Lock()
	defer s.journalMu.Unlock()
	if s.journal != nil {
		s.journal.Close()
		s.journal = nil
	}
}

// recovered accumulates one job's journal records during replay.
type recovered struct {
	accepted    *jobEntry
	terminal    *jobEntry
	attempts    int
	checkpoints int
	resume      map[string]*coverage.State
}

// openJournal opens and replays the job journal, rebuilding the job
// store. It returns the non-terminal jobs to re-enqueue, in submission
// order. Any error — a corrupt or foreign journal file, an undecodable
// record — refuses startup; cmd/mbistd maps ErrCorrupt/ErrMismatch to
// exit code 4.
func (s *Server) openJournal(dir string) ([]*Job, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal dir: %w", err)
	}
	path := filepath.Join(dir, jobsJournalName)
	j, payloads, err := resilience.OpenJournal(path, jobsJournalOwner)
	if err != nil {
		return nil, err
	}
	s.journal = j
	s.mJournalBytes.Set(j.Size())

	recs := make(map[string]*recovered)
	var order []string
	for i, raw := range payloads {
		var e jobEntry
		if err := json.Unmarshal(raw, &e); err != nil {
			return nil, fmt.Errorf("%s: %w: record %d payload: %v", path, resilience.ErrCorrupt, i+1, err)
		}
		if e.Op == opAccepted {
			if e.Req == nil {
				return nil, fmt.Errorf("%s: %w: record %d: accepted %s without a request", path, resilience.ErrCorrupt, i+1, e.ID)
			}
			recs[e.ID] = &recovered{accepted: &e}
			order = append(order, e.ID)
			continue
		}
		r := recs[e.ID]
		if r == nil {
			return nil, fmt.Errorf("%s: %w: record %d: %s for unknown job %s", path, resilience.ErrCorrupt, i+1, e.Op, e.ID)
		}
		switch e.Op {
		case opRunning:
			r.attempts = e.Attempt
		case opCheckpointed:
			if r.resume == nil {
				r.resume = make(map[string]*coverage.State)
			}
			for k, st := range e.States {
				r.resume[k] = st
			}
			r.checkpoints = e.N
		case opDone, opFailed, opQuarantined:
			r.terminal = &e
		default:
			return nil, fmt.Errorf("%s: %w: record %d: unknown op %q", path, resilience.ErrCorrupt, i+1, e.Op)
		}
	}

	var pending []*Job
	for _, id := range order {
		r := recs[id]
		if n, err := strconv.Atoi(strings.TrimPrefix(id, "job-")); err == nil && n > s.nextID {
			s.nextID = n
		}
		job, perr := s.prepJob(*r.accepted.Req)
		if perr != nil {
			// The request validated when first accepted; failing now
			// means the library surface or a limit shifted underneath
			// the journal. A job that already ended keeps its terminal
			// state, since it never runs again; any other stays
			// visible, failed with attribution, instead of silently
			// dropped.
			job = &Job{Kind: r.accepted.Req.Kind, req: *r.accepted.Req}
			if r.terminal == nil {
				job.fail(fmt.Errorf("recovery: request no longer valid: %w", perr))
			}
		}
		job.ID = id
		job.Key = r.accepted.Key
		job.checkpoints = r.checkpoints
		switch {
		case r.terminal != nil:
			job.attempt = r.attempts
			switch r.terminal.Op {
			case opDone:
				job.expired = r.terminal.Expired
				job.finish(r.terminal.Result)
			case opFailed:
				job.fail(fmt.Errorf("%s", r.terminal.Error))
			case opQuarantined:
				job.quarantine(fmt.Errorf("%s", r.terminal.Error))
			}
		case perr != nil:
		default:
			// Interrupted mid-flight: re-enqueue from the last
			// checkpoint. The attempt counter restarts — a crash is not
			// a job failure and must not consume the retry budget.
			job.resume = r.resume
			pending = append(pending, job)
		}
		s.jobs[id] = job
		if job.Key != "" {
			s.keys[job.Key] = id
		}
	}
	if len(payloads) > 0 {
		log.Printf("serve: journal %s: replayed %d record(s), %d job(s), %d to resume", path, len(payloads), len(order), len(pending))
	}
	// Startup compaction: collapse the history to the live view so the
	// journal does not grow across restarts.
	s.compact()
	return pending, nil
}

// compact rewrites the journal to the live view — per job: its
// accepted record, then its terminal record or its latest checkpoint.
// Lock order: s.mu -> job.mu -> s.journalMu, matching every other
// path.
func (s *Server) compact() {
	s.mu.Lock()
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return jobNum(ids[a]) < jobNum(ids[b]) })
	var payloads []any
	for _, id := range ids {
		job := s.jobs[id]
		job.mu.Lock()
		payloads = append(payloads, jobEntry{Op: opAccepted, ID: id, Key: job.Key, Req: &job.req})
		switch job.state {
		case StateDone:
			payloads = append(payloads, jobEntry{Op: opDone, ID: id, Result: job.result, Expired: job.expired})
		case StateFailed:
			payloads = append(payloads, jobEntry{Op: opFailed, ID: id, Attempt: job.attempt, Error: job.errMsg})
		case StateQuarantined:
			payloads = append(payloads, jobEntry{Op: opQuarantined, ID: id, Attempt: job.attempt, Error: job.errMsg})
		default:
			if len(job.resume) > 0 {
				states := make(map[string]*coverage.State, len(job.resume))
				for k, st := range job.resume {
					states[k] = st
				}
				payloads = append(payloads, jobEntry{Op: opCheckpointed, ID: id, N: job.checkpoints, States: states})
			}
		}
		job.mu.Unlock()
	}
	s.journalMu.Lock()
	if s.journal != nil {
		if err := s.journal.Rotate(payloads); err != nil {
			log.Printf("serve: journal compaction: %v", err)
		}
		s.mJournalBytes.Set(s.journal.Size())
	}
	s.journalMu.Unlock()
	s.mu.Unlock()
}

// maybeCompact compacts after a terminal transition once the journal
// outgrows compactBytes.
func (s *Server) maybeCompact() {
	s.journalMu.Lock()
	oversized := s.journal != nil && s.journal.Size() > compactBytes
	s.journalMu.Unlock()
	if oversized {
		s.compact()
	}
}

// jobNum extracts the numeric suffix of "job-N" for ordering.
func jobNum(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "job-"))
	return n
}
