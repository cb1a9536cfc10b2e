package march

import (
	"context"
	"errors"
	"testing"

	"repro/internal/memory"
)

func TestRunCancelledReturnsPartialResult(t *testing.T) {
	alg := MustParse("marchc", "b(w0); u(r0,w1); u(r1,w0); d(r0,w1); d(r1,w0); b(r0)")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	mem := memory.NewSRAM(16, 1, 1)
	res, err := Run(alg, mem, RunOpts{Ctx: ctx, SinglePort: true, SingleBackground: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled Run returned a nil Result; want a valid partial result")
	}
	if res.Operations != 0 {
		t.Errorf("pre-cancelled run issued %d operations, want 0", res.Operations)
	}
}

func TestRunNilContextRunsToCompletion(t *testing.T) {
	alg := MustParse("marchc", "b(w0); u(r0,w1); u(r1,w0); d(r0,w1); d(r1,w0); b(r0)")
	mem := memory.NewSRAM(16, 1, 1)
	res, err := Run(alg, mem, RunOpts{SinglePort: true, SingleBackground: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected() {
		t.Error("fault-free memory failed the march test")
	}
}
