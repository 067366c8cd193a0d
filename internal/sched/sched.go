// Package sched is the shard scheduler behind FabP's database scans: it
// tiles a scan range into independent shards and executes them on a
// bounded worker pool shared by every query of a batch — the software
// rendering of the paper's decomposition into parallel alignment lanes
// (256 instances per 512-bit beat), and the same tiling GeneTEK-style
// designs use across compute lanes.
//
// Shards are expressed in *window starts*: a shard [Lo, Hi) scores the
// alignment windows starting in that range, which means the underlying
// kernel reads reference elements [Lo, Hi+Lq−1) — the shardLen + Lq−1
// overlap carry mirrors the cross-beat carry of the hardware reference
// buffer. Because every shard reads from one shared packed reference
// (context array or bit-planes), the carry costs no copying.
package sched

import (
	"context"
	"runtime"
	"sync"
	"time"

	"fabp/internal/faultinject"
	"fabp/internal/telemetry"
)

// DefaultShardLen is the default shard size in window starts. It is large
// enough to amortize goroutine dispatch and small enough to load-balance a
// multi-query batch across cores.
const DefaultShardLen = 1 << 18

// Shard is one tile of a scan: window starts [Lo, Hi).
type Shard struct {
	// Index is the shard's position in the plan (shards are emitted in
	// ascending position order).
	Index int
	// Lo and Hi bound the window starts, Lo inclusive, Hi exclusive. Every
	// boundary after the first is 64-aligned so bit-parallel kernels scan
	// whole blocks; the plan's own Lo may be unaligned (AlignPlanesRange
	// rounds down and trims), as in a streamed chunk whose fresh windows
	// begin mid-block.
	Lo, Hi int
}

// Plan tiles `starts` window starts into shards of at most shardLen starts
// each. It is PlanRange over [0, starts).
func Plan(starts, shardLen int) []Shard {
	return PlanRange(0, starts, shardLen)
}

// PlanRange tiles the window starts [lo, hi) into shards of at most
// shardLen starts each (0 or negative = DefaultShardLen). Interior shard
// boundaries land on 64-aligned positions for the bit-parallel kernel's
// block layout: the first shard runs from lo to the aligned grid, later
// shards are whole tiles. The scalar engine is indifferent to alignment.
func PlanRange(lo, hi, shardLen int) []Shard {
	if lo < 0 {
		lo = 0
	}
	if hi <= lo {
		return nil
	}
	if shardLen <= 0 {
		shardLen = DefaultShardLen
	}
	// Round up to the 64-position block granularity.
	shardLen = (shardLen + 63) &^ 63
	shards := make([]Shard, 0, (hi-lo+shardLen-1)/shardLen+1)
	for lo < hi {
		// Snap the shard end to the aligned tile grid so every boundary
		// after lo itself is 64-aligned (shardLen is a multiple of 64).
		end := lo&^63 + shardLen
		if end > hi {
			end = hi
		}
		shards = append(shards, Shard{Index: len(shards), Lo: lo, Hi: end})
		lo = end
	}
	return shards
}

// Pool is a bounded worker pool. All shards of all queries in a batch run
// on one pool, so total concurrency stays bounded no matter how many
// queries or shards are in flight.
type Pool struct {
	sem chan struct{}
	m   poolMetrics
}

// poolMetrics holds the pool's telemetry handles, resolved once at
// construction so the task path pays only atomic updates. Every field is
// nil-safe: a pool built over a nil registry records nothing.
type poolMetrics struct {
	// queued counts tasks submitted but not yet running (queue pressure);
	// running counts tasks currently executing.
	queued, running *telemetry.Gauge
	// completed counts finished tasks.
	completed *telemetry.Counter
	// wait is submit-to-start latency (time blocked on the semaphore);
	// run is task execution time.
	wait, run *telemetry.Histogram
	// canceled counts tasks never dispatched because their run's context
	// was canceled first — shards shed by cooperative cancellation.
	canceled *telemetry.Counter
}

func newPoolMetrics(reg *telemetry.Registry) poolMetrics {
	return poolMetrics{
		queued:    reg.Gauge("pool.tasks.queued"),
		running:   reg.Gauge("pool.tasks.running"),
		completed: reg.Counter("pool.tasks.completed"),
		wait:      reg.Histogram("pool.task.wait"),
		run:       reg.Histogram("pool.task.run"),
		canceled:  reg.Counter("pool.tasks.canceled"),
	}
}

// NewPool builds a pool allowing `workers` concurrent tasks (minimum 1),
// reporting telemetry to the process-default registry (see SetMetrics).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{
		sem: make(chan struct{}, workers),
		m:   newPoolMetrics(telemetry.Default()),
	}
}

// SetMetrics redirects the pool's telemetry to reg (nil disables it).
// Call before submitting work; it is not synchronized with running tasks.
func (p *Pool) SetMetrics(reg *telemetry.Registry) { p.m = newPoolMetrics(reg) }

// acquireCtx blocks until a worker slot is free, recording queue pressure
// and wait latency. It returns ctx.Err() instead of a slot once the
// context is done, so a canceled scan stops queueing behind a saturated
// pool.
func (p *Pool) acquireCtx(ctx context.Context) error {
	p.m.queued.Add(1)
	t0 := time.Now()
	defer func() {
		p.m.wait.Observe(time.Since(t0))
		p.m.queued.Add(-1)
	}()
	select {
	case p.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// runTask executes one task under the running gauge, run-latency
// histogram and a pprof label attributing profile samples to pool work.
func (p *Pool) runTask(stage string, task func()) {
	p.m.running.Add(1)
	t0 := time.Now()
	telemetry.Labeled("fabp_pool", stage, task)
	p.m.run.Observe(time.Since(t0))
	p.m.running.Add(-1)
	p.m.completed.Inc()
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return cap(p.sem) }

var (
	sharedOnce sync.Once
	sharedPool *Pool
)

// Shared returns the process-wide pool (sized to GOMAXPROCS at first use),
// the default executor for database scans.
func Shared() *Pool {
	sharedOnce.Do(func() { sharedPool = NewPool(runtime.GOMAXPROCS(0)) })
	return sharedPool
}

// Each runs run(0..n-1) on the pool and waits for all of them. Submission
// blocks while the pool is saturated, bounding in-flight work.
func (p *Pool) Each(n int, run func(i int)) {
	_ = p.EachCtx(context.Background(), n, run)
}

// EachCtx is Each with cooperative cancellation: the context is checked
// before each task is dispatched (the inter-shard checkpoint), and a slot
// wait aborts when the context fires. Tasks already dispatched run to
// completion — a shard is the cancellation granularity — and EachCtx
// always waits for them before returning, so no goroutine outlives the
// call. The first context error observed is returned; undispatched tasks
// count on pool.tasks.canceled.
func (p *Pool) EachCtx(ctx context.Context, n int, run func(i int)) error {
	if n <= 0 {
		return nil
	}
	if p.Workers() == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				p.m.canceled.Add(uint64(n - i))
				return err
			}
			p.runTask("each", func() { run(i) })
		}
		return nil
	}
	var wg sync.WaitGroup
	var err error
	for i := 0; i < n; i++ {
		if err = p.acquireCtx(ctx); err != nil {
			p.m.canceled.Add(uint64(n - i))
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-p.sem }()
			p.runTask("each", func() { run(i) })
		}(i)
	}
	wg.Wait()
	return err
}

// GatherCtx runs produce(0..n-1) on the pool and concatenates the results
// in index order — shards planned in position order come back as one
// position-ordered hit list. Cancellation is checked between shard
// dispatches (see EachCtx) and inside each dispatched task before its
// scan starts, so a cancel mid-plan returns ctx.Err() after at most the
// shards already executing finish. On error the partial results are
// discarded and nil is returned.
func GatherCtx[T any](ctx context.Context, p *Pool, n int, produce func(i int) []T) ([]T, error) {
	out, err := GatherBatchCtx(ctx, p, n, 1, func(i int) [][]T { return [][]T{produce(i)} })
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// GatherBatchCtx runs produce(0..n-1) on the pool — each call scanning one
// shard for a whole batch and returning `streams` per-query hit lists —
// and concatenates the results stream-wise in shard order: one task per
// tile instead of one per (query, tile) pair; GatherCtx is its one-stream
// case. Cancellation is checked between shard dispatches and inside
// each dispatched task before its scan starts (see EachCtx), so a cancel
// mid-plan sheds the remaining
// shards of every query at once and returns ctx.Err() after at most the
// shards already executing finish. On error the partial results are
// discarded and nil is returned. produce must return exactly `streams`
// slices (shorter returns simply contribute nothing to the missing
// streams); the result always has len == streams, with nil entries for
// streams that produced no items.
func GatherBatchCtx[T any](ctx context.Context, p *Pool, n, streams int, produce func(i int) [][]T) ([][]T, error) {
	if n <= 0 || streams <= 0 {
		return make([][]T, max(streams, 0)), ctx.Err()
	}
	if n == 1 {
		if err := ctx.Err(); err != nil {
			p.m.canceled.Inc()
			return nil, err
		}
		out := produce(0)
		for len(out) < streams {
			out = append(out, nil)
		}
		return out, nil
	}
	parts := make([][][]T, n)
	err := p.EachCtx(ctx, n, func(i int) {
		// A task dispatched just before the cancel skips its scan; the
		// call returns the context error either way.
		if ctx.Err() != nil {
			return
		}
		parts[i] = produce(i)
	})
	if err != nil {
		return nil, err
	}
	// The shard-merge fault hook: one atomic load per shard when
	// injection is off; an injected failure aborts the merge.
	for i := range parts {
		if err := faultinject.Check(ctx, faultinject.SiteShardMerge, uint64(i)); err != nil {
			return nil, err
		}
	}
	out := make([][]T, streams)
	for s := 0; s < streams; s++ {
		total := 0
		for _, part := range parts {
			if s < len(part) {
				total += len(part[s])
			}
		}
		if total == 0 {
			continue
		}
		stream := make([]T, 0, total)
		for _, part := range parts {
			if s < len(part) {
				stream = append(stream, part[s]...)
			}
		}
		out[s] = stream
	}
	return out, nil
}
