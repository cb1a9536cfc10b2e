// Package resilience is the grading pipeline's failure-handling
// substrate: panic capture for worker isolation, and a versioned,
// corruption-detecting, atomically-written JSON checkpoint store for
// interruptible matrix-scale sweeps.
//
// The package is deliberately generic — it knows nothing about faults,
// coverage reports or march algorithms. Higher layers (internal/coverage,
// cmd/mbistcov) decide what goes into a checkpoint and what to do with a
// captured panic; this package guarantees the mechanics: a panic never
// escapes Capture, a checkpoint on disk is either a complete verified
// write or the previous complete verified write, and a corrupt or
// mismatched checkpoint is detected and reported, never silently loaded.
package resilience

import (
	"errors"
	"fmt"
	"runtime/debug"
)

// PanicError wraps a recovered panic value so it can travel through
// ordinary error plumbing. Stack holds the goroutine stack captured at
// recovery time (trimmed by the runtime, not by us).
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v", e.Value)
}

// Capture runs fn and converts a panic into a *PanicError instead of
// unwinding further. A nil return means fn completed normally. Workers
// wrap per-unit work in Capture so one poisoned work item cannot take
// down the pool.
func Capture(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	fn()
	return nil
}

// AsPanic reports whether err (anywhere in its chain) is a captured
// panic, returning it when so. A nil err returns before errors.As, whose
// target would escape to the heap.
func AsPanic(err error) (*PanicError, bool) {
	if err == nil {
		return nil, false
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		return pe, true
	}
	return nil, false
}
