package fabp

import (
	"context"
	"time"

	"fabp/internal/bio"
	"fabp/internal/bitpar"
	"fabp/internal/core"
	"fabp/internal/db"
	"fabp/internal/isa"
	"fabp/internal/sched"
)

// This file is the one scan executor. Every in-memory scan — one query or
// a fused batch, over a Reference or a Database, from an Aligner, the
// package-level batch functions, a Session or a stream chunk — plans its
// shards, runs them through one gather and attributes the hits here. The
// paper's datapath is one comparator array that scores every loaded query
// as the reference streams past; K = 1 is simply the one-query batch. See
// DESIGN.md §10.

// scanTarget is what an executor scan reads: n letters, their bit-planes
// (fetched only when the bit-parallel kernel runs; a cached source counts
// the lookup on tm), their letters (explicit KernelScalar only), and the
// database that attributes the hits (nil: hits keep their positions).
type scanTarget struct {
	n      int
	planes func(tm *alignerMetrics) *bitpar.Planes
	seq    func() bio.NucSeq
	db     *db.Database
}

// target is the reference as a scan target; its planes come from the
// shared plane cache, keyed on the Reference (immutable once built).
func (r *Reference) target() scanTarget {
	return scanTarget{
		n: r.Len(),
		planes: func(tm *alignerMetrics) *bitpar.Planes {
			tm.planeLookups.Inc()
			return bitpar.SharedPlanes().Get(r, func() *bitpar.Planes { return bitpar.PackReference(r.seq) })
		},
		seq: func() bio.NucSeq { return r.seq },
	}
}

// target is the database as a scan target: cached planes, hits attributed
// to records.
func (d *Database) target() scanTarget {
	return scanTarget{
		n: d.Len(),
		planes: func(tm *alignerMetrics) *bitpar.Planes {
			tm.planeLookups.Inc()
			return d.planes()
		},
		seq: d.d.Seq,
		db:  d.d,
	}
}

// executor runs K ≥ 1 compiled queries over scan targets on a pool, under
// a retry policy (nil res: one attempt per shard) and optionally partial
// completion. One executor serves one call — a scan, a batch, or every
// chunk of one stream, in sequence.
type executor struct {
	bk *bitpar.BatchKernel
	// eng, when set, is explicit KernelScalar (K = 1): the scalar engine
	// is the only alternative shard function.
	eng      *core.Engine
	shardLen int
	pool     *sched.Pool
	res      *sched.Resilience
	partial  bool
	tm       *alignerMetrics

	// The pass in flight: its shard plan, what its shards read, and (once
	// it succeeds) its wall time.
	shards  []sched.Shard
	elapsed time.Duration
	one     [1]sched.Shard
	pp      *bitpar.Planes
	ctxs    []uint8
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

// load points the executor at t and plans its window starts (nil when no
// query fits): the kernel dispatch is recorded for every query and only
// the chosen kernel's input is fetched.
func (x *executor) load(t scanTarget) []sched.Shard {
	starts := x.bk.Starts(t.n)
	if starts <= 0 {
		return nil
	}
	if x.eng != nil {
		x.tm.kernelScalar.Inc()
		x.ctxs = core.Contexts(t.seq())
	} else {
		x.tm.kernelBitpar.Add(uint64(x.bk.NumQueries()))
		x.pp = t.planes(x.tm)
	}
	return sched.Plan(starts, x.shardLen)
}

// run scans t and returns per-query hits in position order, attributed to
// t's records when t has a database (recs is nil otherwise). A partial
// completion returns the surviving hits beside its *PartialError; any
// other error returns no hits.
func (x *executor) run(ctx context.Context, t scanTarget) (hits [][]bitpar.Hit, recs [][]db.RecordHit, err error) {
	if shards := x.load(t); shards != nil {
		hits, err = x.gather(ctx, shards, false)
	} else {
		hits, err = make([][]bitpar.Hit, x.bk.NumQueries()), ctx.Err()
	}
	if t.db == nil || (err != nil && hits == nil) {
		return hits, nil, err
	}
	recs = make([][]db.RecordHit, len(hits))
	for qi, qh := range hits {
		recs[qi] = t.db.Attribute(bitparToCore(qh), x.bk.QueryElems(qi))
	}
	return hits, recs, err
}

// chunk scans window starts [lo, hi) of one packed stream chunk — the one
// chunk scanner of AlignStream and AlignBatchStream. It shards at the
// scheduler's default length, so a default-sized chunk is one shard; a
// one-shard chunk that cannot be hedged runs inline on the executor's own
// scratch (a hedged duplicate would share it). The hits are valid until
// the next call.
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
// scratch: the resilient shard function of the gather and of
// AlignDatabaseStreamContext's ordered merge.
func (x *executor) attempt(ctx context.Context, i int) ([][]bitpar.Hit, error) {
	return sched.ProduceResilient(ctx, x.pool, x.res, uint64(i), func(actx context.Context) ([][]bitpar.Hit, error) {
		return x.scanShard(actx, i, nil)
	})
}

// scanShard scans shard i — the fused kernel over the pass's planes (on
// sc and the executor's hit lists when sc is set), or the scalar engine
// over its letters — and records its latency on scan.shard.latency.
func (x *executor) scanShard(ctx context.Context, i int, sc *bitpar.Scratch) ([][]bitpar.Hit, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := x.shards[i]
	t0 := time.Now()
	var hits [][]bitpar.Hit
	switch {
	case x.eng != nil:
		hits = [][]bitpar.Hit{coreToBitpar(x.eng.AlignContexts(x.ctxs, s.Lo, s.Hi))}
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

// queryExecutor is the executor of the scans with no Aligner — the
// package-level batch and batch-stream functions and both Session hooks:
// the queries compile into one fused kernel that scans on the shared pool
// under rp, the batch retry policy its caller read.
func queryExecutor(progs []isa.Program, thresholds []int, rp RetryPolicy) (*executor, error) {
	bk, err := bitpar.NewBatchKernel(progs, thresholds)
	if err != nil {
		return nil, err
	}
	defaultAlignerTM.queries.Add(uint64(bk.NumQueries()))
	return (&executor{bk: bk, pool: sched.Shared(), tm: &defaultAlignerTM}).ready(rp), nil
}

// scanBatch is the adapter under AlignBatch*, AlignDatabaseBatch* and
// Session batches: a fused scan of t that reports the batch.* metrics
// around the executor's gather.
func scanBatch(ctx context.Context, progs []isa.Program, thresholds []int, t scanTarget) ([][]bitpar.Hit, [][]db.RecordHit, error) {
	x, err := queryExecutor(progs, thresholds, currentBatchRetryPolicy())
	if err != nil {
		return nil, nil, err
	}
	tm := x.tm
	tm.batchQueries.Add(uint64(x.bk.NumQueries()))
	hits, recs, err := x.run(ctx, t)
	if err != nil {
		tm.recordCtxErr(err)
		return nil, nil, err
	}
	if x.shards != nil {
		recordFusedPass(x)
	}
	for _, h := range hits {
		tm.hits.Add(uint64(len(h)))
	}
	return hits, recs, nil
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

// coreToBitpar converts scalar-engine hits to the kernel's hit type.
func coreToBitpar(raw []core.Hit) []bitpar.Hit {
	hits := make([]bitpar.Hit, len(raw))
	for i, h := range raw {
		hits[i] = bitpar.Hit(h)
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
		out[i] = toRecordHit(h)
	}
	return out
}

func toRecordHit(h db.RecordHit) RecordHit {
	return RecordHit{RecordID: h.RecordID, RecordIndex: h.RecordIndex, Offset: h.Offset, Score: h.Score}
}
