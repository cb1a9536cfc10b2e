package coverage

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/march"
)

// TestSerialGradeStopsOnCancel cancels a one-worker grade inside its
// first fault (scalar) or batch (lane engine): the serial claim loop
// must stop at the next boundary and return a partial report with the
// context's error.
func TestSerialGradeStopsOnCancel(t *testing.T) {
	alg, _ := march.ByName("marchc")
	for _, engine := range []Engine{EngineAuto, EngineScalar} {
		ctx, cancel := context.WithCancel(context.Background())
		opts := Options{Size: 64, Width: 2, Workers: 1, Engine: engine, Lanes: 64, FaultHook: chaos.CancelAfter(1, cancel)}
		rep, err := GradeContext(ctx, alg, Microcode, opts)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("engine %d: err = %v, want context.Canceled", engine, err)
		}
		if rep == nil {
			t.Fatalf("engine %d: cancelled grade returned no report", engine)
		}
		if !rep.Partial || rep.Graded == 0 || rep.Graded*2 > rep.Universe {
			t.Fatalf("engine %d: graded %d/%d (partial %v), want a cut early in the run",
				engine, rep.Graded, rep.Universe, rep.Partial)
		}
	}
}

// TestClaimLoopReturnsLowestFailingIndex fails indices 10 and 12.
// With four workers, index 10 waits until 11–13 are claimed and then
// fails at once, while 11–13 finish 20 ms later, so 12's error comes
// last. The loop must still return 10's error, as the serial path does,
// and the workers that finish 11 and 13 must claim nothing more.
func TestClaimLoopReturnsLowestFailingIndex(t *testing.T) {
	for _, workers := range []int{1, 4} {
		r := &gradeRun{ctx: context.Background()}
		var claimed [1000]atomic.Bool
		err := r.claimLoop(len(claimed), workers, func(w, i int) error {
			claimed[i].Store(true)
			switch {
			case i == 10:
				for deadline := time.Now().Add(5 * time.Second); workers > 1 && !claimed[13].Load() && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
				return fmt.Errorf("index %d", i)
			case i > 10 && i < 14:
				time.Sleep(20 * time.Millisecond)
				if i == 12 {
					return fmt.Errorf("index %d", i)
				}
			}
			return nil
		})
		if err == nil || err.Error() != "index 10" {
			t.Errorf("workers=%d: err = %v, want index 10's", workers, err)
		}
		for i := 10 + workers; i < len(claimed); i++ {
			if claimed[i].Load() {
				t.Errorf("workers=%d: index %d claimed after the first failure", workers, i)
				break
			}
		}
	}
}
