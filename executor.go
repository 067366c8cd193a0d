package fabp

import (
	"context"
	"time"

	"fabp/internal/bio"
	"fabp/internal/bitpar"
	"fabp/internal/core"
	"fabp/internal/db"
	"fabp/internal/sched"
)

// This file is the one scan executor. Every scan — one query or a fused
// batch, over a Reference, a Database or the chunks of a letter stream —
// reaches it through scanPlan.run, plans its shards, runs them through one
// gather and attributes the hits here. The paper's datapath is one
// comparator array that scores every loaded query as the reference
// streams past; K = 1 is simply the one-query batch. See DESIGN.md §10.

// executor runs K ≥ 1 compiled queries over a target's bit-planes on a
// pool, under a retry policy (nil res: one attempt per shard) and
// optionally partial completion. One executor serves one call — a scan, a
// batch, or every chunk of one stream, in sequence.
type executor struct {
	bk *bitpar.BatchKernel
	// eng, when set, is explicit KernelScalar (K = 1): the scalar engine
	// is the only alternative shard function. It reads the same planes as
	// the kernel, each shard only its own letters (see scalarShard).
	eng      *core.Engine
	shardLen int
	pool     *sched.Pool
	res      *sched.Resilience
	partial  bool
	tm       *alignerMetrics

	// The pass in flight: its shard plan, the planes its shards read, and
	// (once it succeeds) its wall time.
	shards  []sched.Shard
	elapsed time.Duration
	one     [1]sched.Shard
	pp      *bitpar.Planes
	fc      failureCollector
	// A stream chunk that is one shard and cannot be hedged runs inline on
	// the executor's own scratch and hit lists (first is that shard, bound
	// once), so a stream's chunks allocate nothing until hits appear.
	sc    bitpar.Scratch
	dst   [][]bitpar.Hit
	first func(context.Context) ([][]bitpar.Hit, error)
}

// ready finishes an executor under retry policy rp (a zero policy is a nil
// sched.Resilience).
func (x *executor) ready(rp RetryPolicy) *executor {
	if rp.enabled() {
		x.res = newResilience(rp, x.tm)
	}
	x.first = func(ctx context.Context) ([][]bitpar.Hit, error) { return x.scanShard(ctx, 0, &x.sc) }
	return x
}

// executor returns a one-query executor on this aligner's kernel, shard
// length, pool, retry policy and partial mode.
func (a *Aligner) executor() *executor {
	x := &executor{bk: a.kernel.Batch(), shardLen: a.shardLen, pool: a.pool, partial: a.partial, tm: &a.tm}
	if a.mode == KernelScalar {
		x.eng = a.engine()
	}
	return x.ready(a.retryPolicy)
}

// load points the executor at the planes pp and plans their window starts
// (nil when no query fits), recording the kernel dispatch for every query.
func (x *executor) load(pp *bitpar.Planes) []sched.Shard {
	starts := x.bk.Starts(pp.Len())
	if starts <= 0 {
		return nil
	}
	x.pp = pp
	if x.eng != nil {
		x.tm.kernelScalar.Inc()
	} else {
		x.tm.kernelBitpar.Add(uint64(x.bk.NumQueries()))
	}
	return sched.Plan(starts, x.shardLen)
}

// run scans the planes pp and returns per-query hits in position order,
// attributed to the records of d when it is set (recs is nil otherwise).
// A partial completion returns the surviving hits beside its
// *PartialError; any other error returns no hits.
func (x *executor) run(ctx context.Context, pp *bitpar.Planes, d *db.Database) (hits [][]bitpar.Hit, recs [][]db.RecordHit, err error) {
	if shards := x.load(pp); shards != nil {
		hits, err = x.gather(ctx, shards, false)
	} else {
		hits, err = make([][]bitpar.Hit, x.bk.NumQueries()), ctx.Err()
	}
	if d == nil || (err != nil && hits == nil) {
		return hits, nil, err
	}
	recs = make([][]db.RecordHit, len(hits))
	for qi, qh := range hits {
		recs[qi] = d.Attribute(bitparToCore(qh), x.bk.QueryElems(qi))
	}
	return hits, recs, err
}

// chunk scans window starts [lo, hi) of one packed stream chunk — the one
// chunk scanner of every stream scan. It shards at the scheduler's default
// length, so a default-sized chunk is one shard; a one-shard chunk that
// cannot be hedged runs inline on the executor's own scratch (a hedged
// duplicate would share it). The hits are valid until the next call.
func (x *executor) chunk(ctx context.Context, pp *bitpar.Planes, lo, hi int) ([][]bitpar.Hit, error) {
	x.pp = pp
	if hi <= lo&^63+sched.DefaultShardLen && !x.res.MayHedge() {
		x.one[0] = sched.Shard{Lo: lo, Hi: hi}
		return x.gather(ctx, x.one[:], true)
	}
	return x.gather(ctx, sched.PlanRange(lo, hi, 0), false)
}

// gather runs a shard plan and merges per-query hits in position order —
// the one gather every scan takes. Every shard passes the shard-dispatch
// fault hook and runs under the retry/hedge policy. Without partial mode
// the first unrecoverable failure sheds the remaining shards and fails
// the scan; with it the scan completes on the surviving shards and
// returns a *PartialError beside their hits. The caller's cancel or
// deadline wins over shard failures. inline runs a one-shard plan on the
// executor's own scratch (see chunk); every other plan takes pooled
// scratch per shard.
func (x *executor) gather(ctx context.Context, shards []sched.Shard, inline bool) ([][]bitpar.Hit, error) {
	x.shards = shards
	x.tm.shardsPlanned.Add(uint64(len(shards)))
	fc := &x.fc
	fc.failed = fc.failed[:0]
	t0 := time.Now()
	var out [][]bitpar.Hit
	var gerr error
	if inline {
		var err error
		if out, err = sched.ProduceResilient(ctx, x.pool, x.res, 0, x.first); err != nil {
			fc.add(shards[0], err)
		}
	} else {
		sctx, cancel := context.WithCancel(ctx)
		defer cancel()
		out, gerr = sched.GatherBatchCtx(sctx, x.pool, len(shards), x.bk.NumQueries(), func(i int) [][]bitpar.Hit {
			hits, err := x.attempt(sctx, i)
			if err != nil {
				fc.add(shards[i], err)
				if !x.partial {
					cancel() // the scan is already lost
				}
			}
			return hits
		})
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(fc.failed) > 0 {
		if !x.partial {
			return nil, fc.firstRealError()
		}
		x.tm.partial.Inc()
		if out == nil {
			out = make([][]bitpar.Hit, x.bk.NumQueries())
		}
		return out, fc.partialError()
	}
	if gerr != nil {
		return nil, gerr
	}
	x.elapsed = time.Since(t0)
	return out, nil
}

// attempt runs shard i of the pass in flight under the policy, on pooled
// scratch: the resilient shard function of the gather.
func (x *executor) attempt(ctx context.Context, i int) ([][]bitpar.Hit, error) {
	return sched.ProduceResilient(ctx, x.pool, x.res, uint64(i), func(actx context.Context) ([][]bitpar.Hit, error) {
		return x.scanShard(actx, i, nil)
	})
}

// scanShard scans shard i of the pass's planes — with the fused kernel (on
// sc and the executor's hit lists when sc is set) or the scalar engine —
// and records its latency on scan.shard.latency.
func (x *executor) scanShard(ctx context.Context, i int, sc *bitpar.Scratch) ([][]bitpar.Hit, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := x.shards[i]
	t0 := time.Now()
	var hits [][]bitpar.Hit
	switch {
	case x.eng != nil:
		hits = [][]bitpar.Hit{x.scalarShard(s)}
	case sc != nil:
		if x.dst == nil {
			x.dst = make([][]bitpar.Hit, x.bk.NumQueries())
		}
		for qi := range x.dst {
			x.dst[qi] = x.dst[qi][:0]
		}
		hits = x.bk.AlignPlanesRangeScratch(x.pp, s.Lo, s.Hi, x.dst, sc)
	default:
		hits = x.bk.AlignPlanesRange(x.pp, s.Lo, s.Hi, nil)
	}
	observeSince(x.tm.shardLatency, t0)
	x.tm.shardsRun.Inc()
	return hits, nil
}

// scalarPiece is how many window starts a scalar shard scores per read of
// its letters, which bounds its scratch whatever the shard length.
const scalarPiece = 1 << 14

// scalarShard scores shard s with the scalar engine. It reads back only
// the letters its windows cover, [Lo−2, Hi+m−1) — two letters of
// comparison context first — from the pass's planes, a piece at a time
// into scratch it reuses, so an explicit-scalar scan never copies the
// whole target.
func (x *executor) scalarShard(s sched.Shard) []bitpar.Hit {
	var hits []bitpar.Hit
	var letters bio.NucSeq
	var ctxs []uint8
	m, n := x.bk.MaxElems(), x.pp.Len()
	for lo := s.Lo; lo < s.Hi; lo += scalarPiece {
		hi, from := min(lo+scalarPiece, s.Hi), max(lo-2, 0)
		letters = x.pp.AppendLetters(letters[:0], from, min(hi+m-1, n))
		ctxs = core.AppendContexts(ctxs[:0], letters)
		for _, h := range x.eng.AlignContexts(ctxs, lo-from, hi-from) {
			hits = append(hits, bitpar.Hit{Pos: from + h.Pos, Score: h.Score})
		}
	}
	return hits
}

// recordFusedPass reports x's last gather as one fused batch pass: its
// latency, its shards, and the plane bytes the other K−1 queries did not
// re-read.
func recordFusedPass(x *executor) {
	x.tm.batchKernelLatency.Observe(x.elapsed)
	x.tm.batchFusedPasses.Add(uint64(len(x.shards)))
	x.tm.batchPlaneBytesSaved.Add(uint64(x.bk.NumQueries()-1) * uint64(x.pp.SizeBytes()))
}

// bitparToCore converts kernel hits to the engine's hit type.
func bitparToCore(raw []bitpar.Hit) []core.Hit {
	if len(raw) == 0 {
		return nil
	}
	hits := make([]core.Hit, len(raw))
	for i, h := range raw {
		hits[i] = core.Hit(h)
	}
	return hits
}

// toHits converts kernel hits to the public type.
func toHits(raw []bitpar.Hit) []Hit {
	hits := make([]Hit, len(raw))
	for i, h := range raw {
		hits[i] = Hit(h)
	}
	return hits
}

// toRecordHits converts attributed hits to the public type.
func toRecordHits(attributed []db.RecordHit) []RecordHit {
	out := make([]RecordHit, len(attributed))
	for i, h := range attributed {
		out[i] = RecordHit{RecordID: h.RecordID, RecordIndex: h.RecordIndex, Offset: h.Offset, Score: h.Score}
	}
	return out
}
