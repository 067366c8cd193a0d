package sched

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"fabp/internal/telemetry"
)

// TestEachCtxBackgroundMatchesEach pins the fast path: an uncancellable
// context runs every task, returns nil, and behaves exactly like Each.
func TestEachCtxBackgroundMatchesEach(t *testing.T) {
	p := NewPool(4)
	var ran atomic.Int64
	if err := p.EachCtx(context.Background(), 100, func(i int) { ran.Add(1) }); err != nil {
		t.Fatalf("EachCtx(Background) = %v", err)
	}
	if ran.Load() != 100 {
		t.Fatalf("ran %d tasks, want 100", ran.Load())
	}
}

// TestEachCtxCancelStopsDispatch cancels mid-run and checks the contract:
// the call returns context.Canceled, stops dispatching new tasks, and
// waits for the in-flight ones (no goroutine leaks).
func TestEachCtxCancelStopsDispatch(t *testing.T) {
	p := NewPool(2)
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	gate := make(chan struct{})
	err := p.EachCtx(ctx, 1000, func(i int) {
		if started.Add(1) == 2 {
			cancel()
			close(gate)
		}
		<-gate // the first tasks park until the cancel fires
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("EachCtx = %v, want context.Canceled", err)
	}
	ran := started.Load()
	// Dispatch must have stopped near the cancellation point: 2 workers
	// plus at most a couple already past the checkpoint.
	if ran > 10 {
		t.Errorf("%d tasks ran after a cancel at task 2", ran)
	}
}

// TestGatherCtxCancelSheds runs a cancel mid-gather and verifies shed
// shards are counted and partial results discarded.
func TestGatherCtxCancelSheds(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := NewPool(2)
	p.SetMetrics(reg)
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	out, err := GatherCtx(ctx, p, 500, func(i int) []int {
		if started.Add(1) == 1 {
			cancel()
		}
		return []int{i}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("GatherCtx = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Errorf("canceled gather returned %d results, want nil", len(out))
	}
	if shed := reg.Snapshot().Counters["pool.tasks.canceled"]; shed == 0 {
		t.Error("pool.tasks.canceled not recorded")
	}
}

// TestGatherBatchCtxCancelSheds: a cancel mid-batch-gather sheds the
// remaining shards for every stream at once, discards partials, and
// counts the shed shards.
func TestGatherBatchCtxCancelSheds(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := NewPool(2)
	p.SetMetrics(reg)
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	out, err := GatherBatchCtx(ctx, p, 500, 4, func(i int) [][]int {
		if started.Add(1) == 1 {
			cancel()
		}
		return [][]int{{i}, {i}, {i}, {i}}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("GatherBatchCtx = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Errorf("canceled batch gather returned %v, want nil", out)
	}
	if shed := reg.Snapshot().Counters["pool.tasks.canceled"]; shed == 0 {
		t.Error("pool.tasks.canceled not recorded")
	}
}
