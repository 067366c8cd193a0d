// resilience.go is the facade of the scan pipeline's resilience layer:
// the public retry/hedge policy (WithRetryPolicy), opt-in partial-result
// degradation (WithPartialResults, PartialError) and the failure
// bookkeeping of the executor's one gather (executor.go), which runs every
// shard under the policy — bounded retries with deterministic jittered
// backoff, hedged duplicates for stragglers, and, when opted in, a scan
// that survives failed shards and reports exactly which window ranges it
// could not cover.
package fabp

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"fabp/internal/retry"
	"fabp/internal/sched"
)

// RetryPolicy bounds the automatic re-execution the scan pipeline may do
// on retryable failures (transient shard errors, injected faults, reader
// hiccups exposing Temporary() == true). The zero value disables both
// retries and hedging — the historical single-attempt behavior.
type RetryPolicy struct {
	// MaxRetries bounds retries per shard (or per chunk read on the
	// stream path) after the first attempt.
	MaxRetries int
	// Base and Cap bound the backoff delays: retry n waits a
	// deterministic jittered duration in [Base, min(Cap, Base<<(n-1))]
	// (defaults 1ms / 100ms).
	Base, Cap time.Duration
	// HedgeAfter launches a duplicate of a shard still running after
	// this long (0 disables hedging). First success wins; the loser is
	// canceled through the context plumbing.
	HedgeAfter time.Duration
	// HedgeBudget caps hedged duplicates per scan call (default 0: even
	// with HedgeAfter set, no duplicates launch without budget).
	HedgeBudget int
	// Seed drives the deterministic jitter (shared by every shard, each
	// decorrelated by its index).
	Seed uint64
}

// enabled reports whether the policy changes anything over a bare scan.
func (rp RetryPolicy) enabled() bool {
	return rp.MaxRetries > 0 || (rp.HedgeAfter > 0 && rp.HedgeBudget > 0)
}

// backoff renders the policy as the retry package's schedule.
func (rp RetryPolicy) backoff() retry.Backoff {
	return retry.Backoff{Base: rp.Base, Cap: rp.Cap, Max: rp.MaxRetries, Seed: rp.Seed}
}

// validate rejects nonsensical policies at option time.
func (rp RetryPolicy) validate() error {
	if rp.MaxRetries < 0 {
		return fmt.Errorf("fabp: negative MaxRetries %d", rp.MaxRetries)
	}
	if rp.Base < 0 || rp.Cap < 0 || rp.HedgeAfter < 0 {
		return fmt.Errorf("fabp: negative retry policy durations")
	}
	if rp.HedgeBudget < 0 {
		return fmt.Errorf("fabp: negative HedgeBudget %d", rp.HedgeBudget)
	}
	return nil
}

// WithRetryPolicy sets the aligner's retry/hedge policy for every scan
// path (AlignContext, AlignDatabase*, AlignStream* — a stream's shards
// and its chunk reads). Without it, scans run each shard exactly once —
// failures surface immediately.
func WithRetryPolicy(rp RetryPolicy) AlignerOption {
	return func(c *alignerConfig) {
		if err := rp.validate(); err != nil {
			c.err = err
			return
		}
		c.retryPolicy = rp
	}
}

// WithPartialResults opts the aligner's database and reference scans into
// degraded completion: when shards still fail after the retry policy is
// exhausted, the scan returns the hits from every surviving shard plus a
// typed *PartialError listing the window ranges it could not cover,
// instead of failing outright. Without this option (the default) any
// unrecoverable shard failure fails the whole scan.
func WithPartialResults() AlignerOption {
	return func(c *alignerConfig) { c.partial = true }
}

// ShardRange is one failed stretch of a partial scan: window starts
// [Lo, Hi) were not scanned, because of Err.
type ShardRange struct {
	Lo, Hi int
	Err    error
}

// PartialError reports a scan that completed in degraded mode: every hit
// outside the Failed ranges was returned, the listed ranges were not
// scanned. It is returned ALONGSIDE the surviving hits by scans running
// under WithPartialResults; match it with errors.As.
type PartialError struct {
	// Failed lists the uncovered window-start ranges in ascending
	// position order.
	Failed []ShardRange
}

func (e *PartialError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fabp: partial scan: %d shard range(s) failed:", len(e.Failed))
	for i, r := range e.Failed {
		if i == 3 {
			fmt.Fprintf(&b, " … (%d more)", len(e.Failed)-i)
			break
		}
		fmt.Fprintf(&b, " [%d,%d): %v;", r.Lo, r.Hi, r.Err)
	}
	return strings.TrimSuffix(b.String(), ";")
}

// batchRetryPolicy is the policy the package-level batch and Session
// paths use (they have no Aligner to carry WithRetryPolicy).
var (
	batchRetryMu     sync.RWMutex
	batchRetryPolicy RetryPolicy
)

// SetBatchRetryPolicy sets the retry/hedge policy for the package-level
// fused batch, batch-stream and Session scan paths (AlignBatch*,
// AlignDatabaseBatch*, AlignBatchStream*, Session.Run*), which have no
// Aligner to configure. The zero policy restores single-attempt behavior.
// Safe for concurrent use; those scans read the policy once at call start
// and pass it down.
func SetBatchRetryPolicy(rp RetryPolicy) {
	batchRetryMu.Lock()
	batchRetryPolicy = rp
	batchRetryMu.Unlock()
}

func currentBatchRetryPolicy() RetryPolicy {
	batchRetryMu.RLock()
	defer batchRetryMu.RUnlock()
	return batchRetryPolicy
}

// newResilience builds the per-call scheduler policy from rp, reporting
// on tm's counters.
func newResilience(rp RetryPolicy, tm *alignerMetrics) *sched.Resilience {
	return sched.NewResilience(rp.backoff(), rp.HedgeAfter, rp.HedgeBudget, tm.retries, tm.hedged)
}

// shardFailure records one shard's terminal failure during a resilient
// scan.
type shardFailure struct {
	shard sched.Shard
	err   error
}

// failureCollector accumulates shard failures across pool workers.
type failureCollector struct {
	mu     sync.Mutex
	failed []shardFailure
}

func (fc *failureCollector) add(s sched.Shard, err error) {
	fc.mu.Lock()
	fc.failed = append(fc.failed, shardFailure{s, err})
	fc.mu.Unlock()
}

// partialError renders the collected failures as a position-ordered
// *PartialError.
func (fc *failureCollector) partialError() *PartialError {
	sort.Slice(fc.failed, func(i, j int) bool { return fc.failed[i].shard.Lo < fc.failed[j].shard.Lo })
	pe := &PartialError{Failed: make([]ShardRange, len(fc.failed))}
	for i, f := range fc.failed {
		pe.Failed[i] = ShardRange{Lo: f.shard.Lo, Hi: f.shard.Hi, Err: f.err}
	}
	return pe
}

// firstRealError returns the first failure that is not a context error —
// the root cause when the scan shed its remaining shards after one shard
// failed unrecoverably.
func (fc *failureCollector) firstRealError() error {
	var fallback error
	for _, f := range fc.failed {
		if errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
			if fallback == nil {
				fallback = f.err
			}
			continue
		}
		return shardError(f.shard, f.err)
	}
	return fallback
}

// shardError names the shard range a scan lost to err.
func shardError(s sched.Shard, err error) error {
	return fmt.Errorf("fabp: shard [%d,%d): %w", s.Lo, s.Hi, err)
}
