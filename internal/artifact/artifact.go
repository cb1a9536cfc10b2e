// Package artifact is the repo's content-addressed synthesis cache: a
// bounded, singleflight-deduplicating map from a content key to an
// expensively synthesised artifact (a controller program, a recorded
// operation stream, a fault universe, a netlist). The key is the
// artifact's full content address — every input that determines the
// synthesis output (algorithm fingerprint, architecture, geometry,
// options) folded into one comparable struct — so two semantically
// identical requests share one artifact and two requests differing in
// any synthesis-relevant field cannot alias.
//
// The cache exists because matrix sweeps and the grading service
// re-request the same artifacts constantly: one sweep grades the same
// (algorithm, architecture, geometry) across thousands of faults, and
// the service amortises one synthesis across many HTTP requests.
// Synthesis happens at most once per key even under concurrent first
// requests: the first caller builds while later callers wait on the
// in-flight entry (singleflight). Build errors are never cached — the
// waiters of the failing flight all receive the error, and the next
// request retries the build.
//
// Cached values are shared, not copied: callers must treat them as
// immutable. Every artifact this repo caches is read-only after
// construction (programs and controllers build fresh execution state
// per Run; streams and universes are only read during replay).
//
// Instrumentation follows the internal/obs conventions: each cache is
// named, and reports artifact.<name>.{hits,misses,builds,waits,
// build_errors,build_panics,flushes} on the active registry. The
// counters are the contract the service's "served from cache, nothing
// re-synthesised" assertions are written against.
package artifact

import (
	"errors"
	"sync"

	"repro/internal/obs"
)

// DefaultLimit bounds a cache constructed with New(name, 0). 64 keys
// comfortably covers the synthesised matrix axes (8 library algorithms
// × 4 architectures × 3 geometries collapses to well under 64 distinct
// keys per artifact kind) while keeping a runaway keyspace from
// retaining unbounded memory.
const DefaultLimit = 64

// ErrBuildPanicked is what waiters of a singleflight build receive
// when the builder panicked instead of returning. The builder's own
// goroutine re-raises the original panic; the waiters get this error
// and the next Get retries the build.
var ErrBuildPanicked = errors.New("artifact: build panicked")

// entry is one cache slot. done is closed once the build finished;
// until then val/err are unreadable and waiters block on done.
type entry[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Cache is a bounded content-addressed cache with singleflight build
// deduplication. The zero value is not usable; construct with New.
// All methods are safe for concurrent use.
type Cache[K comparable, V any] struct {
	name  string
	limit int

	// Counter names are precomputed so the hit path does zero string
	// building (the obs registry resolves nil — and free — when
	// metrics are disabled, but name concatenation would still
	// allocate per Get).
	nHits, nMisses, nWaits, nBuilds    string
	nBuildErrors, nBuildPanics, nFlush string

	mu      sync.Mutex
	entries map[K]*entry[V]
}

// New returns an empty cache. name scopes the obs counters
// (artifact.<name>.*); limit bounds the number of retained keys
// (0 selects DefaultLimit). When inserting past the limit the cache is
// flushed whole — completed entries are dropped, in-flight builds are
// kept so waiters always resolve.
func New[K comparable, V any](name string, limit int) *Cache[K, V] {
	if limit <= 0 {
		limit = DefaultLimit
	}
	prefix := "artifact." + name + "."
	return &Cache[K, V]{
		name:         name,
		limit:        limit,
		nHits:        prefix + "hits",
		nMisses:      prefix + "misses",
		nWaits:       prefix + "waits",
		nBuilds:      prefix + "builds",
		nBuildErrors: prefix + "build_errors",
		nBuildPanics: prefix + "build_panics",
		nFlush:       prefix + "flushes",
		entries:      make(map[K]*entry[V]),
	}
}

// counter resolves one of the cache's obs counters against the active
// registry at call time (nil and therefore free when metrics are
// disabled). name is one of the precomputed c.n* fields.
func (c *Cache[K, V]) counter(name string) *obs.Counter {
	return obs.Active().Counter(name)
}

// Get returns the artifact for key, synthesising it with build on the
// first request. Concurrent first requests synthesise exactly once:
// one caller runs build, the rest wait for its result. A failed build
// is returned to every waiter of that flight and is not cached — the
// next Get retries. A panicking build fails the flight with
// ErrBuildPanicked for the waiters and re-raises the panic in the
// builder's goroutine.
func (c *Cache[K, V]) Get(key K, build func() (V, error)) (V, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		select {
		case <-e.done:
			// Built: a plain hit.
			c.counter(c.nHits).Add(1)
		default:
			// In flight: wait for the builder.
			c.counter(c.nWaits).Add(1)
			<-e.done
		}
		return e.val, e.err
	}
	// Miss: claim the flight before unlocking so a concurrent Get for
	// the same key waits instead of building twice.
	if len(c.entries) >= c.limit {
		c.flushLocked()
	}
	e := &entry[V]{done: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()
	c.counter(c.nMisses).Add(1)

	// resolve publishes the flight's outcome: failed builds are dropped
	// from the cache (unless a concurrent flush already replaced the
	// slot) before the waiters are released.
	resolve := func() {
		if e.err != nil {
			c.mu.Lock()
			if cur, ok := c.entries[key]; ok && cur == e {
				delete(c.entries, key)
			}
			c.mu.Unlock()
		}
		close(e.done)
	}
	completed := false
	defer func() {
		if completed {
			return
		}
		// build panicked past us: fail the flight so no waiter blocks
		// forever, then let the panic keep unwinding this goroutine.
		e.err = ErrBuildPanicked
		c.counter(c.nBuildPanics).Add(1)
		resolve()
	}()
	e.val, e.err = build()
	completed = true
	if e.err != nil {
		c.counter(c.nBuildErrors).Add(1)
	} else {
		c.counter(c.nBuilds).Add(1)
	}
	resolve()
	return e.val, e.err
}

// Len returns the number of retained keys (including in-flight
// builds).
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Flush drops every completed entry. In-flight builds are kept so
// their waiters resolve; the next Get for a dropped key rebuilds.
func (c *Cache[K, V]) Flush() {
	c.mu.Lock()
	c.flushLocked()
	c.mu.Unlock()
}

func (c *Cache[K, V]) flushLocked() {
	kept := make(map[K]*entry[V])
	for k, e := range c.entries {
		select {
		case <-e.done:
			// Completed: drop.
		default:
			kept[k] = e
		}
	}
	c.entries = kept
	c.counter(c.nFlush).Add(1)
}
