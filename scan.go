package fabp

import (
	"context"
	"crypto/sha256"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"

	"fabp/internal/bitpar"
	"fabp/internal/core"
	"fabp/internal/db"
	"fabp/internal/isa"
	"fabp/internal/resultcache"
	"fabp/internal/sched"
	"fabp/internal/tblastn"
)

// This file is the unified scan spine: the one code path every
// alignment entrypoint — Scan, the Align*/AlignDatabase* wrappers,
// AlignDatabaseBatchContext, Aligner.AlignStream*, Session and
// SearchProtein — shares, and the single place the content-addressed
// scan-result cache hooks in. A request loads K ≥ 1 queries and names one target: a
// Reference, a Database or a letter Stream. A one-query scan's outcome is
// a pure function of (query instruction digest, target content digest,
// threshold, resolved kernel, shard geometry), which is exactly the cache
// key; invalidation is therefore free (new content → new digest → new
// key) and cached hits are bit-identical to rescanning by construction.
// Queries (batch) and Stream requests take the same plan and executor but
// bypass the cache: a stream's contract is incremental delivery, and a
// fused batch's unit of work is the batch, not a cacheable single scan.
// See DESIGN.md §13.

// CacheOutcome is a ScanResult's provenance: how the scan spine
// satisfied the request.
type CacheOutcome string

const (
	// CacheBypass: the scan ran uncached (cache disabled, NoCache, or a
	// partial-mode request, which is never cache-eligible).
	CacheBypass CacheOutcome = "bypass"
	// CacheMiss: this request ran the scan and seeded the cache.
	CacheMiss CacheOutcome = "miss"
	// CacheHit: the result was served from the cache; no scan ran.
	CacheHit CacheOutcome = "hit"
	// CacheShared: the request joined a concurrent identical scan
	// already in flight and shared its result; no additional scan ran.
	CacheShared CacheOutcome = "shared"
)

// ScanRequest is the unified scan request — the typed form of everything
// the legacy Align* matrix spread across method choice and aligner
// options. Set exactly one of Query or Queries, and exactly one target:
// Database, Reference or Stream. Zero values elsewhere mean the documented
// defaults.
type ScanRequest struct {
	// Query is the prepared protein query of a one-query scan.
	Query *Query
	// Queries loads K ≥ 1 queries into one fused scan: every query is
	// scored from one pass over the target, as the paper's comparator
	// array scores every loaded query while the reference streams past.
	// Answers land in ScanResult.PerQuery, index-aligned with Queries.
	// With K > 1, thresholds come from ThresholdFrac only and KernelScalar
	// is not available. Queries scans never use the result cache.
	Queries []*Query
	// Database XOR Reference XOR Stream is the scan target. A Database
	// target yields record-attributed hits (RecordHits); a Reference target
	// yields position hits (Hits).
	Database  *Database
	Reference *Reference
	// Stream is a nucleotide letter stream of any length (raw letters,
	// either case, whitespace tolerated), scanned in bounded memory with
	// windows carried across chunk boundaries. Its hits go to Emit (required
	// with Stream, and only with it) with the index of their query (0 for
	// Query) and their global stream position, in position order per query
	// within each chunk; an error from Emit stops the scan. Chunk reads pass
	// the stream.read fault hook and retry under RetryPolicy. Partial and
	// MaxHits do not apply to streams.
	Stream io.Reader
	Emit   func(query int, h Hit) error
	// Threshold is the absolute hit threshold in [0, Query.MaxScore()].
	// Nil selects ThresholdFrac instead; setting both is an error.
	Threshold *int
	// ThresholdFrac is the threshold as a fraction of each query's maximum
	// score, in (0, 1]. Zero defaults to 0.8 (the paper's operating point)
	// when Threshold is nil.
	ThresholdFrac float64
	// Kernel selects the implementation (default KernelAuto).
	Kernel Kernel
	// ShardLen overrides the scan's shard size in window starts
	// (0 = scheduler default; negative is an error).
	ShardLen int
	// MaxHits truncates the returned hits — each query's, for Queries — to
	// the first N in position order (0 = unlimited), setting
	// ScanResult.Truncated. Truncation is per-request: the cache always
	// holds complete results.
	MaxHits int
	// RetryPolicy bounds automatic re-execution of failed or straggling
	// shards and stream chunk reads (zero value = single attempt).
	RetryPolicy RetryPolicy
	// Partial opts into degraded completion: shard failures that outlive
	// the retry budget return the surviving hits plus a *PartialError
	// instead of failing the scan. Partial results are never cached.
	Partial bool
	// NoCache forces this request to scan even when the cache is
	// enabled (it neither reads nor seeds entries).
	NoCache bool
	// ProteinSearch, when non-nil, runs the request as a TBLASTN-style
	// protein search (six-frame translation + seeded ungapped extension)
	// instead of a nucleotide scan: results land in ScanResult.HSPs and
	// the nucleotide-only fields (Queries, Stream, Threshold/ThresholdFrac,
	// Kernel, ShardLen, RetryPolicy, Partial) must stay unset. MaxHits and
	// NoCache apply as usual.
	ProteinSearch *ProteinSearchOptions
}

// QueryHits is one query's answer within a Queries scan.
type QueryHits struct {
	// Threshold is the query's resolved absolute threshold.
	Threshold int
	// Hits (Reference targets) or RecordHits (Database targets), in
	// position order.
	Hits       []Hit
	RecordHits []RecordHit
}

// ScanResult is the unified scan answer: hits plus everything the legacy
// matrix made the caller reconstruct — degradation, provenance, timing.
type ScanResult struct {
	// Hits holds a Query scan's position hits for Reference targets (nil
	// for Database targets); RecordHits holds its record-attributed hits
	// for Database targets. Both are position-ordered. A Stream scan
	// returns its hits through Emit only.
	Hits       []Hit
	RecordHits []RecordHit
	// Threshold is the resolved absolute threshold the scan used.
	Threshold int
	// Truncated reports that MaxHits clipped the hit list.
	Truncated bool
	// Degraded reports a partial completion: FailedRanges lists the
	// window-start ranges that were not scanned. Degraded results come
	// only from Partial requests and are never cached.
	Degraded     bool
	FailedRanges []ShardRange
	// HSPs holds protein-search results (ProteinSearch requests only),
	// sorted best-first; ProteinStats profiles that pipeline run (shared
	// with cached results on a hit — treat as read-only).
	HSPs         []HSP
	ProteinStats *ProteinSearchStats
	// PerQuery holds a Queries scan's answers, index-aligned with
	// ScanRequest.Queries (Hits, RecordHits and Threshold stay zero).
	PerQuery []QueryHits
	// Cache is the result's provenance (hit/miss/shared/bypass).
	Cache CacheOutcome
	// Elapsed is this call's wall time — queue plus scan on a miss, the
	// lookup alone on a hit.
	Elapsed time.Duration
}

// sizeBytes estimates the result's resident footprint for the cache's
// byte bound: slice headers, hit payloads, and record-ID strings.
func (r *ScanResult) sizeBytes() int64 {
	n := int64(256)
	n += int64(len(r.Hits)) * 16
	for _, h := range r.RecordHits {
		n += 56 + int64(len(h.RecordID))
	}
	for _, h := range r.HSPs {
		n += 96 + int64(len(h.Frame))
	}
	return n
}

// clipped returns a per-request shallow copy, truncated to maxHits (per
// query for PerQuery). The hit slices stay shared with the cached original
// (read-only by the cache contract), so a hot hit copies a fixed-size
// struct, not hits.
func (r *ScanResult) clipped(maxHits int) *ScanResult {
	out := *r
	if maxHits <= 0 {
		return &out
	}
	out.Hits = clip(out.Hits, maxHits, &out.Truncated)
	out.RecordHits = clip(out.RecordHits, maxHits, &out.Truncated)
	out.HSPs = clip(out.HSPs, maxHits, &out.Truncated)
	if out.PerQuery != nil {
		out.PerQuery = slices.Clone(out.PerQuery)
		for i := range out.PerQuery {
			qh := &out.PerQuery[i]
			qh.Hits = clip(qh.Hits, maxHits, &out.Truncated)
			qh.RecordHits = clip(qh.RecordHits, maxHits, &out.Truncated)
		}
	}
	return &out
}

// clip caps s at n elements, flagging truncated when it cut any.
func clip[T any](s []T, n int, truncated *bool) []T {
	if len(s) > n {
		*truncated = true
		return s[:n:n]
	}
	return s
}

// targetKind tags the cache key with the result shape: a database scan
// (attributed RecordHits) and a reference scan (position Hits) of
// identical content are different results. Both targets key on their
// database's digest.
type targetKind uint8

const (
	targetDatabase  targetKind = 1
	targetReference targetKind = 2
	// targetProtein is a protein search of either target: its HSPs are a
	// function of the sequence alone, so a Reference and a Database of
	// identical content share them, and the kind keeps them from ever
	// aliasing a nucleotide scan.
	targetProtein targetKind = 3
)

// scanKey is the content-addressed cache key. Two requests with equal
// keys provably produce bit-identical results: the digests pin the exact
// query program and target content, threshold and kernel pin the
// scoring, and shard geometry is included so any future shard-dependent
// observable (it is result-neutral today) can never alias.
type scanKey struct {
	query     [sha256.Size]byte
	target    [sha256.Size]byte
	kind      targetKind
	threshold int
	kernel    Kernel
	shardLen  int
	// protein holds the resolved protein-search options for protein
	// kinds (zero for nucleotide scans). Threads is excluded: the scan
	// is thread-invariant, so worker counts share results.
	protein proteinKey
}

// scanResults is the process-wide scan-result cache. Disabled (capacity
// 0) by default so library users keep exact historical behavior —
// serving and benchmarking paths opt in via SetScanCacheCapacity.
var scanResults = resultcache.New[scanKey, *ScanResult](0)

// SetScanCacheCapacity bounds the process-wide scan-result cache to
// maxBytes of cached hits (estimated; see ScanCacheStats.ResidentBytes).
// Zero or negative disables caching and drops every resident result —
// the default. Safe for concurrent use with running scans.
func SetScanCacheCapacity(maxBytes int64) { scanResults.SetCapacity(maxBytes) }

// ScanCacheStats is a point-in-time view of the scan-result cache.
type ScanCacheStats struct {
	// Hits, Misses: lookups served from / absent from the cache.
	// Collapsed: requests that joined a concurrent identical scan.
	// Handoffs: in-flight scans whose initiating caller canceled while
	// other waiters remained (the scan completed for them).
	Hits, Misses, Evictions, Collapsed, Handoffs uint64
	// Entries/ResidentBytes are the current footprint; CapacityBytes is
	// the configured bound (0 = disabled).
	Entries       int
	ResidentBytes int64
	CapacityBytes int64
}

// ScanCacheSnapshot returns the scan-result cache's counters and
// footprint (also merged into Metrics.Snapshot under rcache.*).
func ScanCacheSnapshot() ScanCacheStats {
	s := scanResults.Stats()
	return ScanCacheStats{
		Hits: s.Hits, Misses: s.Misses, Evictions: s.Evictions,
		Collapsed: s.Collapsed, Handoffs: s.Handoffs,
		Entries: s.Entries, ResidentBytes: s.ResidentBytes,
		CapacityBytes: s.CapacityBytes,
	}
}

// canonShardLen maps a requested shard length to the value the scheduler
// actually uses (sched.Plan's defaulting and 64-alignment), so "default"
// and an explicit equal value share cache entries.
func canonShardLen(n int) int {
	if n <= 0 {
		n = sched.DefaultShardLen
	}
	return (n + 63) &^ 63
}

// resolveKernel maps a kernel selection to the one that will scan —
// KernelAuto is the bit-parallel kernel — so auto and an explicit equal
// selection share cache entries.
func resolveKernel(k Kernel) Kernel {
	if k == KernelAuto {
		return KernelBitParallel
	}
	return k
}

// fromOutcome converts the cache package's outcome to the public one.
func fromOutcome(o resultcache.Outcome) CacheOutcome {
	switch o {
	case resultcache.OutcomeHit:
		return CacheHit
	case resultcache.OutcomeShared:
		return CacheShared
	}
	return CacheMiss
}

// scanPlan is a validated, normalized ScanRequest: the loaded queries and
// their resolved thresholds plus everything needed to build the cache key
// without compiling a kernel (so cached hits never pay scan setup).
type scanPlan struct {
	req ScanRequest
	// queries are the loaded queries (Query alone, or Queries) and
	// thresholds their absolute thresholds, index-aligned.
	queries    []*Query
	thresholds []int
	// protein is the resolved pipeline option set for ProteinSearch
	// requests (nil for nucleotide scans).
	protein *tblastn.Options
	// a runs the cold scan: the calling Aligner for its own scans (its
	// kernel, pool and telemetry), nil for the others, which compile the
	// queries on a miss.
	a *Aligner
}

// plan renders one of this aligner's scans as a scanPlan — req names the
// target — so Align*, AlignDatabase*, AlignStream* and Scan take one path.
func (a *Aligner) plan(req ScanRequest) *scanPlan {
	req.Query, req.Kernel, req.ShardLen = a.query, a.mode, a.shardLen
	req.RetryPolicy, req.Partial = a.retryPolicy, a.partial
	return &scanPlan{req: req, queries: []*Query{a.query}, thresholds: []int{a.Threshold()}, a: a}
}

// plan validates the request field by field (errors name the field and
// match ErrBadQuery/ErrBadOption) and resolves every query's threshold.
func (req ScanRequest) plan() (*scanPlan, error) {
	p := &scanPlan{req: req}
	switch {
	case req.Query != nil && req.Queries != nil:
		return nil, badOptionf("fabp: ScanRequest.Query and ScanRequest.Queries conflict: set exactly one")
	case req.Query != nil:
		p.queries = []*Query{req.Query}
	case len(req.Queries) > 0:
		if err := checkQueries(req.Queries); err != nil {
			return nil, err
		}
		p.queries = req.Queries
	case req.Queries != nil:
		return nil, badQueryf("fabp: ScanRequest.Queries is an empty batch")
	default:
		return nil, badQueryf("fabp: ScanRequest.Query is nil")
	}
	targets := 0
	for _, set := range []bool{req.Database != nil, req.Reference != nil, req.Stream != nil} {
		if set {
			targets++
		}
	}
	if targets != 1 {
		return nil, badOptionf("fabp: ScanRequest needs exactly one target: set Database, Reference or Stream")
	}
	if req.ProteinSearch != nil {
		return p.planProtein()
	}
	if (req.Emit != nil) != (req.Stream != nil) {
		return nil, badOptionf("fabp: ScanRequest.Emit and ScanRequest.Stream go together: set both or neither")
	}
	if req.Stream != nil && (req.Partial || req.MaxHits != 0) {
		return nil, badOptionf("fabp: ScanRequest.Partial and ScanRequest.MaxHits do not apply to a Stream")
	}
	multi := len(p.queries) > 1
	switch req.Kernel {
	case KernelAuto, KernelBitParallel:
	case KernelScalar:
		if multi {
			return nil, badOptionf("fabp: ScanRequest.Kernel scalar scans one query: use Query, or Queries with one query")
		}
	default:
		return nil, badOptionf("fabp: ScanRequest.Kernel %v unknown", req.Kernel)
	}
	if req.ShardLen < 0 {
		return nil, badOptionf("fabp: ScanRequest.ShardLen %d is negative", req.ShardLen)
	}
	if req.MaxHits < 0 {
		return nil, badOptionf("fabp: ScanRequest.MaxHits %d is negative", req.MaxHits)
	}
	if err := req.RetryPolicy.validate(); err != nil {
		return nil, badOption(err)
	}
	if req.Threshold != nil && req.ThresholdFrac != 0 {
		return nil, badOptionf("fabp: ScanRequest.Threshold and ScanRequest.ThresholdFrac conflict: set exactly one")
	}
	if req.Threshold != nil {
		t, top := *req.Threshold, p.queries[0].MaxScore()
		if multi {
			return nil, badOptionf("fabp: ScanRequest.Threshold applies to one query: set ThresholdFrac for Queries")
		}
		if t < 0 || t > top {
			return nil, badOptionf("fabp: ScanRequest.Threshold %d outside [0, %d]", t, top)
		}
		p.thresholds = []int{t}
		return p, nil
	}
	frac := req.ThresholdFrac
	if frac == 0 {
		frac = 0.8
	}
	if frac < 0 || frac > 1 || frac != frac {
		return nil, badOptionf("fabp: ScanRequest.ThresholdFrac %v outside (0,1]", req.ThresholdFrac)
	}
	p.thresholds = make([]int, len(p.queries))
	for i, q := range p.queries {
		t, err := core.ThresholdFromFraction(frac, q.MaxScore())
		if err != nil {
			return nil, badOption(err)
		}
		p.thresholds[i] = t
	}
	return p, nil
}

// checkQueries rejects a batch holding nil or empty queries, naming every
// offending index, before any scanning starts.
func checkQueries(queries []*Query) error {
	var bad []string
	for i, q := range queries {
		if q == nil || q.Elements() == 0 {
			bad = append(bad, strconv.Itoa(i))
		}
	}
	if len(bad) > 0 {
		return badQueryf("fabp: invalid batch queries at index %s (nil or empty)", strings.Join(bad, ", "))
	}
	return nil
}

// planProtein validates and normalizes a protein-search request: the
// nucleotide-only knobs must stay unset (their semantics — window-score
// thresholds, bit-parallel kernels, shard retries, fused batches, letter
// streams — do not transfer), and the pipeline options resolve once,
// here, so the cache key and the cold path agree on the exact option set.
func (p *scanPlan) planProtein() (*scanPlan, error) {
	req := p.req
	if req.Queries != nil || req.Stream != nil || req.Emit != nil {
		return nil, badOptionf("fabp: ScanRequest.Queries/Stream/Emit do not apply to protein search")
	}
	if req.Threshold != nil || req.ThresholdFrac != 0 {
		return nil, badOptionf("fabp: ScanRequest.Threshold/ThresholdFrac do not apply to protein search: use ProteinSearch.MinScore and MaxEValue")
	}
	if req.Kernel != KernelAuto {
		return nil, badOptionf("fabp: ScanRequest.Kernel does not apply to protein search")
	}
	if req.ShardLen != 0 {
		return nil, badOptionf("fabp: ScanRequest.ShardLen does not apply to protein search")
	}
	if req.RetryPolicy != (RetryPolicy{}) {
		return nil, badOptionf("fabp: ScanRequest.RetryPolicy does not apply to protein search")
	}
	if req.Partial {
		return nil, badOptionf("fabp: ScanRequest.Partial does not apply to protein search")
	}
	if req.MaxHits < 0 {
		return nil, badOptionf("fabp: ScanRequest.MaxHits %d is negative", req.MaxHits)
	}
	resolved, err := req.ProteinSearch.tblastnOptions().Resolve()
	if err != nil {
		return nil, badOption(err)
	}
	p.protein = &resolved
	return p, nil
}

// key builds the plan's cache key without compiling a kernel — the one
// builder of scan cache keys. Only one-query Reference and Database plans
// reach it (see bypass).
func (p *scanPlan) key() scanKey {
	k := scanKey{query: p.queries[0].digest, target: p.target().Digest(), kind: targetDatabase}
	if p.req.Reference != nil {
		k.kind = targetReference
	}
	if p.protein != nil {
		k.kind, k.protein = targetProtein, proteinKeyOf(p.protein)
	} else {
		k.threshold = p.thresholds[0]
		k.kernel = resolveKernel(p.req.Kernel)
		k.shardLen = canonShardLen(p.req.ShardLen)
	}
	return k
}

// target returns the database an in-memory plan scans: the Database, or
// the one the Reference views.
func (p *scanPlan) target() *db.Database {
	if p.req.Reference != nil {
		return p.req.Reference.d
	}
	return p.req.Database.d
}

// bypass reports whether this plan must scan uncached: on request, in
// partial mode, for Queries and Stream plans, or with the cache disabled.
func (p *scanPlan) bypass() bool {
	return p.req.NoCache || p.req.Partial || p.req.Queries != nil || p.req.Stream != nil || !scanResults.Enabled()
}

// executor builds the plan's executor: the calling aligner's, or one fused
// kernel over the loaded queries on the shared pool under the request's
// retry policy — the scalar engine beside it for an explicit KernelScalar.
func (p *scanPlan) executor() (*executor, error) {
	if p.a != nil {
		return p.a.executor(), nil
	}
	progs := make([]isa.Program, len(p.queries))
	for i, q := range p.queries {
		progs[i] = q.program
	}
	bk, err := bitpar.NewBatchKernel(progs, p.thresholds)
	if err != nil {
		return nil, badOption(err)
	}
	x := &executor{bk: bk, shardLen: p.req.ShardLen, pool: sched.Shared(), partial: p.req.Partial, tm: &defaultAlignerTM}
	if p.req.Kernel == KernelScalar {
		// NewBatchKernel already validated the program and threshold.
		x.eng, _ = core.NewEngine(progs[0], p.thresholds[0])
	}
	return x.ready(p.req.RetryPolicy), nil
}

// cold runs the plan's scan uncached under ctx. Every telemetry update of
// a nucleotide scan lives here and below, so cached and collapsed calls
// observably run zero scans; Queries plans also count on batch.*.
func (p *scanPlan) cold(ctx context.Context) (*ScanResult, error) {
	if p.protein != nil {
		return p.executeProteinSearch(ctx)
	}
	x, err := p.executor()
	if err != nil {
		return nil, err
	}
	tm := x.tm
	tm.queries.Add(uint64(len(p.queries)))
	if p.req.Queries != nil {
		tm.batchQueries.Add(uint64(len(p.queries)))
	}
	t0 := time.Now()
	defer func() { observeSince(tm.alignLatency, t0) }()
	if err := ctx.Err(); err != nil {
		tm.recordCtxErr(err)
		return nil, err
	}
	var res *ScanResult
	if p.req.Stream != nil {
		res, err = &ScanResult{}, p.stream(ctx, x)
	} else {
		res, err = p.scan(ctx, x)
	}
	if _, degraded := err.(*PartialError); err != nil && !degraded {
		tm.recordCtxErr(err)
		return nil, err
	}
	return res, err
}

// scan runs the plan over its in-memory target on x and shapes the answer:
// top-level hits for a Query plan, PerQuery for a Queries plan.
func (p *scanPlan) scan(ctx context.Context, x *executor) (*ScanResult, error) {
	var attribute *db.Database // a Reference's hits stay positions
	if p.req.Database != nil {
		attribute = p.req.Database.d
	}
	hits, recs, err := x.run(ctx, planesOf(p.target()), attribute)
	pe, degraded := err.(*PartialError)
	if err != nil && !degraded {
		return nil, err
	}
	if p.req.Queries != nil && err == nil && x.shards != nil {
		recordFusedPass(x)
	}
	per := make([]QueryHits, len(hits))
	for qi := range per {
		per[qi].Threshold = p.thresholds[qi]
		if recs != nil {
			per[qi].RecordHits = toRecordHits(recs[qi])
			x.tm.hits.Add(uint64(len(recs[qi])))
		} else {
			per[qi].Hits = toHits(hits[qi])
			x.tm.hits.Add(uint64(len(hits[qi])))
		}
	}
	res := &ScanResult{PerQuery: per}
	if p.req.Queries == nil {
		res = &ScanResult{Threshold: per[0].Threshold, Hits: per[0].Hits, RecordHits: per[0].RecordHits}
	}
	if degraded {
		// Degraded completion: surviving hits + *PartialError.
		res.Degraded = true
		res.FailedRanges = pe.Failed
	}
	return res, err
}

// stream scans the plan's letter stream on x, chunk by chunk — the one
// chunk callback of every stream scan, one query or fused, either kernel:
// each chunk's new window starts run through executor.chunk, and hits go
// to Emit with their query index and global stream position.
func (p *scanPlan) stream(ctx context.Context, x *executor) error {
	x.partial = false // a stream has no partial mode
	tm, bk, emit := x.tm, x.bk, p.req.Emit
	if x.eng != nil {
		tm.kernelScalar.Inc()
	} else {
		tm.kernelBitpar.Add(uint64(bk.NumQueries()))
	}
	fused := p.req.Queries != nil
	return scanChunks(ctx, p.req.Stream, bk.MaxElems(), bk.MinElems(), x.pool, tm, p.req.RetryPolicy,
		func(pp *bitpar.Planes, lo, hi, base int) error {
			perQuery, err := x.chunk(ctx, pp, lo, hi)
			if err != nil {
				return err
			}
			if fused {
				recordFusedPass(x)
			}
			for qi, hits := range perQuery {
				for _, h := range hits {
					tm.hits.Inc()
					if err := emit(qi, Hit{Pos: base + h.Pos, Score: h.Score}); err != nil {
						return err
					}
				}
			}
			return nil
		})
}

// run answers the plan through the singleflight result cache, or cold
// when it must bypass the cache. A cached compute runs on the flight's
// own context — canceled only when every joined caller has left, so a
// canceled initiator hands the scan off to the remaining waiters.
// Results are cached only on clean success; an error (degraded
// completions included) reaches every waiting caller and is never
// retained. The result may be the shared cached object: callers must not
// mutate it.
func (p *scanPlan) run(ctx context.Context) (*ScanResult, CacheOutcome, error) {
	if p.bypass() {
		res, err := p.cold(ctx)
		return res, CacheBypass, err
	}
	res, out, err := scanResults.Do(ctx, p.key(), func(fctx context.Context) (*ScanResult, int64, error) {
		r, err := p.cold(fctx)
		if err != nil {
			return r, 0, err
		}
		return r, r.sizeBytes(), nil
	})
	return res, fromOutcome(out), err
}

// Scan is the unified alignment entrypoint: one typed request/response
// pair covering what the legacy Align/AlignContext/AlignDatabase/
// AlignDatabaseContext matrix spread across method choice and options —
// hits, degraded ranges, cache provenance and timing in one result.
//
// All scans share one spine: requests are validated field by field
// (errors match ErrBadQuery/ErrBadOption via errors.Is), repeats are
// answered from the content-addressed result cache when it is enabled
// (SetScanCacheCapacity), and N concurrent identical requests collapse
// into exactly one scan — each caller still honoring its own ctx, with a
// canceled initiator handing the in-flight scan off to the remaining
// waiters. Partial-mode requests return surviving hits with Degraded set
// alongside a *PartialError, and are never cached. The returned result
// is the caller's own copy.
func Scan(ctx context.Context, req ScanRequest) (*ScanResult, error) {
	t0 := time.Now()
	p, err := req.plan()
	if err != nil {
		return nil, err
	}
	res, outcome, err := p.run(ctx)
	if res == nil {
		return nil, err
	}
	final := res.clipped(p.req.MaxHits)
	final.Cache = outcome
	final.Elapsed = time.Since(t0)
	return final, err
}

// CachedScan probes the result cache for the request without scanning,
// joining an in-flight scan, or queueing: ok is false on anything but a
// resident hit. It is the server's pre-admission fast path — a hit
// bypasses admission control entirely. An invalid or cache-ineligible
// request reports false (Scan will surface the validation error).
func CachedScan(req ScanRequest) (*ScanResult, bool) {
	t0 := time.Now()
	p, err := req.plan()
	if err != nil || p.bypass() {
		return nil, false
	}
	res, ok := scanResults.Get(p.key())
	if !ok {
		return nil, false
	}
	final := res.clipped(p.req.MaxHits)
	final.Cache = CacheHit
	final.Elapsed = time.Since(t0)
	return final, true
}
