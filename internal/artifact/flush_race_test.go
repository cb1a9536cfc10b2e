package artifact

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestFlushDuringFlight hammers the eviction/singleflight seam: while
// builder goroutines run Gets (some failing), a flusher evicts
// concurrently. The invariants under -race:
//
//   - a Get whose build succeeded never observes an error, and every
//     waiter of a flight sees that flight's exact value;
//   - a failed build is never served to a later Get (errors are not
//     cached): after the failing flight resolves, the next Get for
//     that key rebuilds and succeeds;
//   - flushing an in-flight entry never strands its waiters.
func TestFlushDuringFlight(t *testing.T) {
	c := New[int, int]("flushrace", 8)

	const (
		workers = 8
		rounds  = 400
		keys    = 32
	)
	errBoom := errors.New("boom")
	var builds atomic.Int64

	var flusher sync.WaitGroup
	var wg sync.WaitGroup
	stop := make(chan struct{})
	flusher.Add(1)
	go func() {
		defer flusher.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.Flush()
			}
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				key := (w + r) % keys
				fail := key%5 == 0 && r%3 == 0
				v, err := c.Get(key, func() (int, error) {
					builds.Add(1)
					if fail {
						return 0, errBoom
					}
					return key * 1000, nil
				})
				if fail {
					// This call either ran the failing build itself or
					// joined a flight; a joined flight may have been a
					// succeeding builder's. Either outcome is legal —
					// what is not legal is an unknown error or a wrong
					// value.
					if err == nil && v != key*1000 {
						t.Errorf("key %d: err==nil but v=%d", key, v)
					}
					if err != nil && !errors.Is(err, errBoom) {
						t.Errorf("key %d: unexpected error %v", key, err)
					}
					continue
				}
				if err != nil && !errors.Is(err, errBoom) {
					t.Errorf("key %d: unexpected error %v", key, err)
				}
				if err == nil && v != key*1000 {
					t.Errorf("key %d: got %d, want %d", key, v, key*1000)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	flusher.Wait()

	// Errors were never cached: with the flusher stopped, one Get per
	// key must succeed (rebuilding if its slot was evicted or its last
	// flight failed).
	for key := 0; key < keys; key++ {
		v, err := c.Get(key, func() (int, error) { return key * 1000, nil })
		if err != nil {
			t.Fatalf("key %d: error after storm: %v", key, err)
		}
		if v != key*1000 {
			t.Fatalf("key %d: got %d, want %d", key, v, key*1000)
		}
	}
	if builds.Load() == 0 {
		t.Fatal("no builds ran")
	}
}

// TestFlushKeepsInFlightEntry pins the documented Flush contract
// directly: flushing while a build is in flight keeps the entry, so a
// concurrent Get for the same key waits for that flight instead of
// building a second time.
func TestFlushKeepsInFlightEntry(t *testing.T) {
	c := New[string, int]("flushkeep", 4)
	inBuild := make(chan struct{})
	release := make(chan struct{})
	var builds atomic.Int64

	done := make(chan int, 1)
	go func() {
		v, err := c.Get("k", func() (int, error) {
			builds.Add(1)
			close(inBuild)
			<-release
			return 7, nil
		})
		if err != nil {
			t.Errorf("builder Get: %v", err)
		}
		done <- v
	}()

	<-inBuild
	c.Flush()
	if n := c.Len(); n != 1 {
		t.Fatalf("flush dropped the in-flight entry: Len=%d, want 1", n)
	}

	joined := make(chan int, 1)
	go func() {
		v, err := c.Get("k", func() (int, error) {
			builds.Add(1)
			return -1, nil
		})
		if err != nil {
			t.Errorf("waiter Get: %v", err)
		}
		joined <- v
	}()

	close(release)
	if v := <-done; v != 7 {
		t.Fatalf("builder got %d, want 7", v)
	}
	if v := <-joined; v != 7 {
		t.Fatalf("waiter got %d, want 7 (joined flight's value)", v)
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times, want 1 (waiter must join the kept flight)", n)
	}
}
