package sched

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestPlanCoversEveryStartOnce(t *testing.T) {
	for _, tc := range []struct{ starts, shardLen int }{
		{0, 0}, {-5, 0}, {1, 0}, {63, 64}, {64, 64}, {65, 64},
		{1000, 128}, {1 << 20, 0}, {12345, 100}, // 100 rounds up to 128
	} {
		shards := Plan(tc.starts, tc.shardLen)
		if tc.starts <= 0 {
			if shards != nil {
				t.Errorf("Plan(%d,%d) = %v, want nil", tc.starts, tc.shardLen, shards)
			}
			continue
		}
		pos := 0
		for i, s := range shards {
			if s.Index != i {
				t.Fatalf("shard %d has Index %d", i, s.Index)
			}
			if s.Lo != pos || s.Hi <= s.Lo {
				t.Fatalf("Plan(%d,%d): shard %d = [%d,%d), want Lo=%d",
					tc.starts, tc.shardLen, i, s.Lo, s.Hi, pos)
			}
			if s.Lo%64 != 0 {
				t.Fatalf("shard %d Lo %d not 64-aligned", i, s.Lo)
			}
			pos = s.Hi
		}
		if pos != tc.starts {
			t.Errorf("Plan(%d,%d) covers %d starts", tc.starts, tc.shardLen, pos)
		}
	}
}

func TestPlanRangeCoversRangeOnce(t *testing.T) {
	for _, tc := range []struct{ lo, hi, shardLen int }{
		{0, 0, 0}, {5, 5, 64}, {10, 3, 64}, {-7, 100, 64},
		{0, 1000, 128}, {1, 1000, 128}, {63, 64, 64}, {63, 1000, 64},
		{64, 1000, 64}, {65, 1000, 64}, {200, 201, 0}, {100, 12345, 100},
	} {
		shards := PlanRange(tc.lo, tc.hi, tc.shardLen)
		lo := tc.lo
		if lo < 0 {
			lo = 0
		}
		if tc.hi <= lo {
			if shards != nil {
				t.Errorf("PlanRange(%d,%d,%d) = %v, want nil", tc.lo, tc.hi, tc.shardLen, shards)
			}
			continue
		}
		pos := lo
		for i, s := range shards {
			if s.Index != i {
				t.Fatalf("shard %d has Index %d", i, s.Index)
			}
			if s.Lo != pos || s.Hi <= s.Lo {
				t.Fatalf("PlanRange(%d,%d,%d): shard %d = [%d,%d), want Lo=%d",
					tc.lo, tc.hi, tc.shardLen, i, s.Lo, s.Hi, pos)
			}
			// Every boundary after the plan's own lo must be 64-aligned.
			if i > 0 && s.Lo%64 != 0 {
				t.Fatalf("shard %d Lo %d not 64-aligned", i, s.Lo)
			}
			pos = s.Hi
		}
		if pos != tc.hi {
			t.Errorf("PlanRange(%d,%d,%d) covers to %d, want %d", tc.lo, tc.hi, tc.shardLen, pos, tc.hi)
		}
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	p := NewPool(3)
	if p.Workers() != 3 {
		t.Fatalf("workers %d", p.Workers())
	}
	var cur, max atomic.Int64
	p.Each(50, func(int) {
		if c := cur.Add(1); c > max.Load() {
			max.Store(c)
		}
		defer cur.Add(-1)
		for i := 0; i < 1000; i++ {
			_ = i
		}
	})
	if m := max.Load(); m > 3 {
		t.Errorf("observed %d concurrent tasks, bound is 3", m)
	}
}

// gather, gatherBatch and streamOrdered run the scheduler's gathers under
// context.Background, where they cannot fail on the context.
func gather[T any](p *Pool, n int, produce func(i int) []T) []T {
	out, _ := GatherCtx(context.Background(), p, n, produce)
	return out
}

func gatherBatch[T any](p *Pool, n, streams int, produce func(i int) [][]T) [][]T {
	out, _ := GatherBatchCtx(context.Background(), p, n, streams, produce)
	return out
}

func TestGatherPreservesIndexOrder(t *testing.T) {
	p := NewPool(8)
	got := gather(p, 40, func(i int) []int {
		return []int{i * 2, i*2 + 1}
	})
	if len(got) != 80 {
		t.Fatalf("len %d", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
	if out := gather(p, 5, func(int) []int { return nil }); out != nil {
		t.Errorf("all-empty gather = %v, want nil", out)
	}
}

func TestGatherBatchPreservesOrderPerStream(t *testing.T) {
	p := NewPool(8)
	const shards, streams = 40, 3
	got := gatherBatch(p, shards, streams, func(i int) [][]int {
		// Stream s gets s+1 items from each shard, tagged by shard order.
		out := make([][]int, streams)
		for s := range out {
			for k := 0; k <= s; k++ {
				out[s] = append(out[s], i*(s+1)+k)
			}
		}
		return out
	})
	if len(got) != streams {
		t.Fatalf("streams %d, want %d", len(got), streams)
	}
	for s, stream := range got {
		if len(stream) != shards*(s+1) {
			t.Fatalf("stream %d len %d, want %d", s, len(stream), shards*(s+1))
		}
		for i, v := range stream {
			if v != i {
				t.Fatalf("stream %d item %d = %d (shard order broken)", s, i, v)
			}
		}
	}
}

func TestGatherBatchRaggedAndEmpty(t *testing.T) {
	p := NewPool(4)
	// Producers may return fewer slices than streams; missing streams get
	// nothing, untouched streams stay nil.
	got := gatherBatch(p, 10, 3, func(i int) [][]int {
		if i%2 == 0 {
			return [][]int{{i}}
		}
		return nil
	})
	if len(got) != 3 {
		t.Fatalf("streams %d", len(got))
	}
	if len(got[0]) != 5 || got[1] != nil || got[2] != nil {
		t.Fatalf("ragged gather: %v", got)
	}
	// Zero shards still yields one (nil) entry per stream.
	if got := gatherBatch[int](p, 0, 2, nil); len(got) != 2 || got[0] != nil {
		t.Fatalf("empty plan gather: %v", got)
	}
	// The single-shard fast path pads short returns to len == streams.
	if got := gatherBatch(p, 1, 3, func(int) [][]int { return [][]int{{7}} }); len(got) != 3 || got[0][0] != 7 {
		t.Fatalf("single-shard gather: %v", got)
	}
}

// TestPoolSharedAcrossGoroutines exercises the shared pool from many
// concurrent batch-like callers; run with -race.
func TestPoolSharedAcrossGoroutines(t *testing.T) {
	p := Shared()
	if p != Shared() {
		t.Fatal("Shared must return one pool")
	}
	var wg sync.WaitGroup
	var total atomic.Int64
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hits := gather(p, 20, func(i int) []int { return []int{i} })
			total.Add(int64(len(hits)))
		}()
	}
	wg.Wait()
	if total.Load() != 120 {
		t.Errorf("total %d", total.Load())
	}
}

func ExamplePlan() {
	for _, s := range Plan(300, 128) {
		fmt.Printf("[%d,%d) ", s.Lo, s.Hi)
	}
	// Output: [0,128) [128,256) [256,300)
}
