package fabp

import (
	"context"
	"fmt"
	"io"
	"time"

	"fabp/internal/bitpar"
	"fabp/internal/faultinject"
	"fabp/internal/retry"
	"fabp/internal/sched"
)

// streamChunkLetters is the chunk size of the bounded-memory stream scan;
// a variable so tests can exercise the chunk-boundary carry cheaply.
var streamChunkLetters = 1 << 20

// scanChunks reads a nucleotide stream (raw letters, whitespace tolerated)
// in fixed-size chunks, decoding each read ONCE straight into pooled
// bit-planes (PlaneBuilder.AppendASCII: parallel spans on pool for large
// reads, inline for small ones), carrying the last Lq−1 elements plus two
// elements of comparison context between chunks — the same cross-beat
// carry the hardware reference buffer implements and
// core.Engine.AlignReader mirrors — and invokes scan once
// per chunk with the packed planes and the chunk-local window-start range
// [lo, hi) that is new in this chunk. Global position = base + local
// position. The planes alias the pooled builder: scan must finish reading
// them before returning (every shard of a chunk may read them
// concurrently; the next chunk's carry reuses the buffers). scan returning
// an error stops the scan.
//
// m is the longest query's element count — it sets the carry and the
// windows complete mid-stream — and mFinal the shortest's, which bounds
// the tail windows only the final flush can deliver (m == mFinal for a
// single query). Kernels clamp per query, so the extra tail starts are
// safe for longer queries. tm records beats (chunks) processed,
// carry-boundary restarts, packed plane words and per-read decode+pack
// latency.
//
// The context is checked before every read — the chunk boundary is the
// cancellation checkpoint — so a canceled or deadlined scan stops without
// waiting for the rest of the stream (a Read already blocked in the
// reader is not interrupted).
//
// Each read passes the stream.read fault-injection hook (keyed by chunk
// ordinal), and transient read failures — injected faults or reader
// errors exposing Temporary() — retry under rp's backoff schedule, up to
// rp.MaxRetries per chunk, counted on scan.retries. Only reads that
// returned no data retry (a short read with an error delivers its bytes
// first, exactly as io.Reader semantics require); exhausted or
// non-retryable errors surface through the flush-before-error path below.
func scanChunks(ctx context.Context, r io.Reader, m, mFinal int, pool *sched.Pool, tm *alignerMetrics, rp RetryPolicy, scan func(pp *bitpar.Planes, lo, hi, base int) error) error {
	chunkLetters := streamChunkLetters
	if chunkLetters < m+2 {
		chunkLetters = m + 2
	}

	bld := bitpar.GetPlaneBuilder()
	defer bld.Release()
	buf := make([]byte, chunkLetters)
	base := 0 // global position of the builder's element 0
	skip := 0 // window starts below this are re-carried context, already scanned

	backoff := rp.backoff()
	chunk := uint64(0) // read ordinal: the fault-hook key and jitter decorrelator
	readChunk := func() (int, error) {
		for n := 0; ; n++ {
			nRead := 0
			err := faultinject.Check(ctx, faultinject.SiteStreamRead, chunk)
			if err == nil {
				nRead, err = r.Read(buf)
			}
			if err == nil || err == io.EOF || nRead > 0 {
				return nRead, err
			}
			if n >= rp.MaxRetries || !retry.Retryable(err) || ctx.Err() != nil {
				return 0, err
			}
			tm.retries.Inc()
			if serr := retry.Sleep(ctx, backoff.Delay(n+1, chunk)); serr != nil {
				return 0, serr
			}
		}
	}

	flush := func(final bool) error {
		// Mid-stream, only windows whose full extent is present for the
		// longest query are scanned; the rest carry to the next chunk.
		n := bld.Len() - (m - 1)
		if final {
			// The tail: down to the shortest query's last valid start.
			n = bld.Len() - mFinal + 1
		}
		if n <= skip {
			return nil
		}
		tm.chunks.Inc()
		return scan(bld.Planes(), skip, n, base)
	}

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		nRead, readErr := readChunk()
		chunk++
		if nRead == 0 && readErr != nil && readErr != io.EOF {
			if cerr := ctx.Err(); cerr != nil {
				return cerr // cancellation keeps its bare, unwrapped error
			}
		}
		// Decode and pack the read once, in parallel spans when it is
		// large; every shard and every query of the chunk reads these
		// plane words.
		n0, w0 := bld.Len(), bld.Words()
		tp := time.Now()
		_, perr := bld.AppendASCII(buf[:nRead], pool)
		if bld.Len() > n0 {
			observeSince(tm.packLatency, tp)
			tm.packWords.Add(uint64(bld.Words() - w0))
		}
		if perr != nil {
			return fmt.Errorf("fabp: position %d: %w", base+bld.Len(), perr)
		}
		if bld.Len() >= chunkLetters {
			if err := flush(false); err != nil {
				return err
			}
			// Carry the unscanned tail (m-1 elements) plus 2 elements of
			// comparison context for the first carried window. The carry is
			// a word-level slide inside the pooled planes, never a repack.
			tm.carries.Inc()
			keep := m + 1
			if keep > bld.Len() {
				keep = bld.Len()
			}
			base += bld.Len() - keep
			bld.Carry(keep)
			skip = keep - (m - 1) // the context prefix, already scanned
		}
		if readErr == io.EOF {
			return flush(true)
		}
		if readErr != nil {
			// Deliver every window already complete before surfacing the
			// failure — the prefix scanned so far is valid work, exactly
			// as on EOF — and wrap the error with the global stream position
			// the way the parse path does, so the caller can resume.
			if err := flush(true); err != nil {
				return err
			}
			return fmt.Errorf("fabp: position %d: %w", base+bld.Len(), readErr)
		}
	}
}

// streamChunkHits scans one packed chunk's fresh window range with the
// aligner's bit-parallel kernel, sharding large chunks across the pool
// exactly like a database scan — every shard reads the one shared packed
// chunk. A chunk that fits one shard runs inline on the calling goroutine
// (the steady-state streaming path allocates nothing here until hits
// appear): it scans on sc, the scratch the stream owns for its whole life,
// so no chunk takes a pooled one.
func (a *Aligner) streamChunkHits(ctx context.Context, pp *bitpar.Planes, lo, hi int, sc *bitpar.Scratch) ([]bitpar.Hit, error) {
	if hi <= lo&^63+sched.DefaultShardLen {
		// One shard: run inline without planning — no shard slice, no
		// closure, no goroutine. This is every chunk of a default-sized
		// stream, so the steady state allocates nothing here.
		a.tm.shardsPlanned.Inc()
		ts := time.Now()
		hits := a.kernel.AlignPlanesRangeScratch(pp, lo, hi, sc)
		observeSince(a.tm.shardLatency, ts)
		a.tm.shardsRun.Inc()
		return hits, nil
	}
	shards := sched.PlanRange(lo, hi, 0)
	a.tm.shardsPlanned.Add(uint64(len(shards)))
	return sched.GatherCtx(ctx, a.pool, len(shards), func(i int) []bitpar.Hit {
		ts := time.Now()
		hits := a.kernel.AlignPlanesRange(pp, shards[i].Lo, shards[i].Hi)
		observeSince(a.tm.shardLatency, ts)
		a.tm.shardsRun.Inc()
		return hits
	})
}

// batchChunkHits is streamChunkHits for a fused batch: one pass over the
// shared packed chunk scores every query, sharded across the process-wide
// pool with per-query hit streams merged in position order. Fused-pass and
// plane-reuse accounting matches the database batch path, so stream and
// database fusion read identically on the instrument panel.
func batchChunkHits(ctx context.Context, bk *bitpar.BatchKernel, tm *alignerMetrics, pp *bitpar.Planes, lo, hi int) ([][]bitpar.Hit, error) {
	shards := sched.PlanRange(lo, hi, 0)
	tm.shardsPlanned.Add(uint64(len(shards)))
	scanShard := func(i int) [][]bitpar.Hit {
		ts := time.Now()
		dst := bk.AlignPlanesRange(pp, shards[i].Lo, shards[i].Hi, nil)
		observeSince(tm.shardLatency, ts)
		tm.shardsRun.Inc()
		return dst
	}
	tk := time.Now()
	var perQuery [][]bitpar.Hit
	var err error
	if rp := currentBatchRetryPolicy(); rp.enabled() || faultinject.Enabled() {
		perQuery, err = gatherBatchResilient(ctx, rp, tm, shards, bk.NumQueries(), scanShard)
	} else if len(shards) == 1 {
		perQuery = scanShard(0)
	} else {
		perQuery, err = sched.GatherBatchCtx(ctx, sched.Shared(), len(shards), bk.NumQueries(), scanShard)
	}
	if err != nil {
		return nil, err
	}
	observeSince(tm.batchKernelLatency, tk)
	tm.batchFusedPasses.Add(uint64(len(shards)))
	tm.batchPlaneBytesSaved.Add(uint64(bk.NumQueries()-1) * uint64(pp.SizeBytes()))
	return perQuery, nil
}

// AlignBatchStream scans one nucleotide stream with many queries in a
// single fused pass over each chunk: the stream is read and packed into
// bit-planes once per chunk, and the fused batch kernel scores all K
// queries from those shared plane words — K queries cost one read+pack,
// not K, exactly as AlignBatch fuses a database scan. Hits are delivered
// to emit with their query index, in position order per query within each
// chunk. Thresholds are the given fraction of each query's own maximum
// score; every query is validated before any reading starts. Return an
// error from emit to stop early. It is AlignBatchStreamContext under
// context.Background().
func AlignBatchStream(queries []*Query, r io.Reader, thresholdFrac float64, emit func(query int, h Hit) error) error {
	return AlignBatchStreamContext(context.Background(), queries, r, thresholdFrac, emit)
}

// AlignBatchStreamContext is AlignBatchStream with cooperative
// cancellation: the context is checked before every chunk read and at
// shard boundaries within each chunk, so the call returns ctx.Err()
// without reading the rest of the stream. Aborts are recorded on
// align.canceled / align.deadline.exceeded; reads retry under the
// batch retry policy (SetBatchRetryPolicy).
func AlignBatchStreamContext(ctx context.Context, queries []*Query, r io.Reader, thresholdFrac float64, emit func(query int, h Hit) error) error {
	if len(queries) == 0 {
		return fmt.Errorf("fabp: empty batch")
	}
	progs, thresholds, err := batchKernelInputs(queries, thresholdFrac)
	if err != nil {
		return err
	}
	bk, err := bitpar.NewBatchKernel(progs, thresholds)
	if err != nil {
		return err
	}
	tm := &defaultAlignerTM
	k := uint64(bk.NumQueries())
	tm.queries.Add(k)
	tm.batchQueries.Add(k)
	tm.kernelBitpar.Add(k)
	t0 := time.Now()
	defer func() { observeSince(tm.alignLatency, t0) }()
	err = scanChunks(ctx, r, bk.MaxElems(), bk.MinElems(), sched.Shared(), tm, currentBatchRetryPolicy(),
		func(pp *bitpar.Planes, lo, hi, base int) error {
			perQuery, cerr := batchChunkHits(ctx, bk, tm, pp, lo, hi)
			if cerr != nil {
				return cerr
			}
			for qi, hits := range perQuery {
				tm.hits.Add(uint64(len(hits)))
				for _, h := range hits {
					if err := emit(qi, Hit{Pos: base + h.Pos, Score: h.Score}); err != nil {
						return err
					}
				}
			}
			return nil
		})
	if err != nil {
		tm.recordCtxErr(err)
	}
	return err
}
