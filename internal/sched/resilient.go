// resilient.go is the scheduler's resilience layer: per-shard retry with
// bounded exponential backoff, hedged re-execution of straggler shards
// (budgeted duplicates, first result wins, the loser canceled through the
// context plumbing), and the sched.shard.dispatch fault-injection hook.
// A nil *Resilience keeps only the fault hook: one attempt per shard, one
// atomic load when injection is off.
package sched

import (
	"context"
	"sync/atomic"
	"time"

	"fabp/internal/faultinject"
	"fabp/internal/retry"
	"fabp/internal/telemetry"
)

// Resilience is one scan call's retry/hedge policy plus its shared hedge
// budget and telemetry handles. Build one per call with NewResilience; a
// nil *Resilience runs shards exactly once with no hedging.
type Resilience struct {
	// Backoff schedules retries of retryable shard failures (see
	// retry.Retryable); Backoff.Max bounds retries per shard.
	Backoff retry.Backoff
	// HedgeAfter is how long a shard attempt may run before a duplicate
	// is launched (0 disables hedging).
	HedgeAfter time.Duration
	// Retries / Hedged count on the caller's scan.retries / scan.hedged
	// metrics (nil-safe).
	Retries, Hedged *telemetry.Counter

	// budget is the remaining hedged duplicates for the whole call —
	// shared across shards so a uniformly slow scan cannot double its own
	// load.
	budget atomic.Int64
}

// NewResilience builds a per-call policy. hedgeBudget bounds the total
// duplicates the call may launch (ignored when hedgeAfter is 0).
func NewResilience(b retry.Backoff, hedgeAfter time.Duration, hedgeBudget int, retries, hedged *telemetry.Counter) *Resilience {
	r := &Resilience{Backoff: b, HedgeAfter: hedgeAfter, Retries: retries, Hedged: hedged}
	r.budget.Store(int64(hedgeBudget))
	return r
}

// MayHedge reports whether a shard run under r may still launch a hedged
// duplicate: hedging is on and budget remains. A nil r never hedges, and
// once it reports false it stays false (the budget only shrinks).
func (r *Resilience) MayHedge() bool {
	return r != nil && r.HedgeAfter > 0 && r.budget.Load() > 0
}

// takeHedge consumes one unit of hedge budget; false when exhausted.
func (r *Resilience) takeHedge() bool {
	return r.budget.Add(-1) >= 0
}

// ProduceResilient runs one shard's produce under the call's resilience
// policy, from inside a pool task (GatherBatchCtx/StreamOrderedCtx produce functions call
// it directly). The shard's lifecycle:
//
//  1. The sched.shard.dispatch fault hook fires first on every attempt —
//     injected stalls model stragglers, injected errors model shard
//     failures — keyed by the shard index, so seeded plans hit
//     deterministic shards.
//  2. If the attempt outlives r.HedgeAfter and budget remains, a hedged
//     duplicate is launched on the pool; the first success wins and the
//     loser's context is canceled. A duplicate waiting for a pool slot
//     aborts the moment the race is decided, and every launched attempt
//     is drained before the call returns — no goroutine outlives it.
//  3. A retryable failure (retry.Retryable) backs off on the policy's
//     deterministic jittered schedule and re-runs, at most Backoff.Max
//     times; context errors and non-retryable failures surface
//     immediately.
func ProduceResilient[T any](ctx context.Context, p *Pool, r *Resilience, key uint64, produce func(ctx context.Context) ([]T, error)) ([]T, error) {
	if r == nil {
		// One attempt, no closure: a caller that binds produce once
		// runs shards here without allocating.
		if err := faultinject.Check(ctx, faultinject.SiteShardDispatch, key); err != nil {
			return nil, err
		}
		return produce(ctx)
	}
	attempt := func(actx context.Context) ([]T, error) {
		if err := faultinject.Check(actx, faultinject.SiteShardDispatch, key); err != nil {
			return nil, err
		}
		return produce(actx)
	}
	var lastErr error
	for n := 0; ; n++ {
		items, err := runHedged(ctx, p, r, attempt)
		if err == nil {
			return items, nil
		}
		lastErr = err
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		if n >= r.Backoff.Max || !retry.Retryable(err) {
			return nil, lastErr
		}
		r.Retries.Inc()
		if serr := retry.Sleep(ctx, r.Backoff.Delay(n+1, key)); serr != nil {
			return nil, serr
		}
	}
}

// runHedged executes one attempt with straggler hedging: the primary runs
// in its own goroutine (the caller's pool slot stays notionally held —
// the calling task just waits), and once HedgeAfter elapses a duplicate
// acquires its own slot and races it. First success wins; the other
// attempt's context is canceled and its result drained before returning.
// When both fail, the first failure is returned (one attempt's error is
// as good as the other's for the retry loop above).
func runHedged[T any](ctx context.Context, p *Pool, r *Resilience, attempt func(context.Context) ([]T, error)) ([]T, error) {
	if !r.MayHedge() {
		return attempt(ctx)
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		items []T
		err   error
	}
	ch := make(chan result, 2)
	go func() {
		items, err := attempt(hctx)
		ch <- result{items, err}
	}()
	outstanding := 1
	hedged := false
	timer := time.NewTimer(r.HedgeAfter)
	defer timer.Stop()
	drain := func() {
		cancel()
		for ; outstanding > 0; outstanding-- {
			<-ch
		}
	}
	var firstErr error
	for {
		select {
		case res := <-ch:
			outstanding--
			if res.err == nil {
				drain()
				return res.items, nil
			}
			if firstErr == nil {
				firstErr = res.err
			}
			if outstanding == 0 {
				return nil, firstErr
			}
		case <-timer.C:
			if !hedged && r.takeHedge() {
				hedged = true
				r.Hedged.Inc()
				outstanding++
				go func() {
					if err := p.acquireCtx(hctx); err != nil {
						ch <- result{nil, err}
						return
					}
					defer func() { <-p.sem }()
					var items []T
					var err error
					p.runTask("hedge", func() { items, err = attempt(hctx) })
					ch <- result{items, err}
				}()
			}
		case <-ctx.Done():
			drain()
			return nil, ctx.Err()
		}
	}
}
