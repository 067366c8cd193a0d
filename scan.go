package fabp

import (
	"context"
	"crypto/sha256"
	"time"

	"fabp/internal/core"
	"fabp/internal/resultcache"
	"fabp/internal/sched"
	"fabp/internal/tblastn"
)

// This file is the unified scan spine: the one code path every
// non-streaming alignment entrypoint — Scan and the legacy
// Align/AlignContext/AlignDatabase/AlignDatabaseContext wrappers —
// shares, and the single place the content-addressed scan-result cache
// hooks in. A scan's outcome is a pure function of (query instruction
// digest, target content digest, threshold, resolved kernel, shard
// geometry), which is exactly the cache key; invalidation is therefore
// free (new content → new digest → new key) and cached hits are
// bit-identical to rescanning by construction. Streaming and batch
// entrypoints stay uncached: a stream's contract is incremental
// delivery, and a fused batch's unit of work is the batch, not a
// cacheable single scan. See DESIGN.md §13.

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

// ScanRequest is the unified request for a single-query scan — the typed
// form of everything the legacy Align* matrix spread across method
// choice and aligner options. Exactly one of Database or Reference must
// be set; zero values elsewhere mean the documented defaults.
type ScanRequest struct {
	// Query is the prepared protein query (required).
	Query *Query
	// Database XOR Reference is the scan target. A Database target
	// yields record-attributed hits (ScanResult.RecordHits); a Reference
	// target yields position hits (ScanResult.Hits).
	Database  *Database
	Reference *Reference
	// Threshold is the absolute hit threshold in [0, Query.MaxScore()].
	// Nil selects ThresholdFrac instead; setting both is an error.
	Threshold *int
	// ThresholdFrac is the threshold as a fraction of the query's
	// maximum score, in (0, 1]. Zero defaults to 0.8 (the paper's
	// operating point) when Threshold is nil.
	ThresholdFrac float64
	// Kernel selects the implementation (default KernelAuto).
	Kernel Kernel
	// ShardLen overrides the scan's shard size in window starts
	// (0 = scheduler default; negative is an error).
	ShardLen int
	// MaxHits truncates the returned hits to the first N in position
	// order (0 = unlimited), setting ScanResult.Truncated. Truncation is
	// per-request: the cache always holds complete results.
	MaxHits int
	// RetryPolicy bounds automatic re-execution of failed or straggling
	// shards (zero value = single attempt).
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
	// the nucleotide-only fields (Threshold/ThresholdFrac, Kernel,
	// ShardLen, RetryPolicy, Partial) must stay unset. MaxHits and
	// NoCache apply as usual.
	ProteinSearch *ProteinSearchOptions
}

// ScanResult is the unified scan answer: hits plus everything the legacy
// matrix made the caller reconstruct — degradation, provenance, timing.
type ScanResult struct {
	// Hits holds position hits for Reference targets (nil for Database
	// targets); RecordHits holds record-attributed hits for Database
	// targets. Both are position-ordered.
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

// clipped returns a per-request shallow copy, truncated to maxHits. The
// hit slices stay shared with the cached original (read-only by the
// cache contract), so a hot hit copies a fixed-size struct, not hits.
func (r *ScanResult) clipped(maxHits int) *ScanResult {
	out := *r
	if maxHits > 0 {
		if len(out.Hits) > maxHits {
			out.Hits = out.Hits[:maxHits:maxHits]
			out.Truncated = true
		}
		if len(out.RecordHits) > maxHits {
			out.RecordHits = out.RecordHits[:maxHits:maxHits]
			out.Truncated = true
		}
		if len(out.HSPs) > maxHits {
			out.HSPs = out.HSPs[:maxHits:maxHits]
			out.Truncated = true
		}
	}
	return &out
}

// targetKind tags the cache key with the result shape: a database scan
// (attributed RecordHits) and a reference scan (position Hits) of
// identical content are different results.
type targetKind uint8

const (
	targetDatabase  targetKind = 1
	targetReference targetKind = 2
	// Protein searches get their own kinds: the digests are computed
	// over different byte domains (database format vs raw sequence), so
	// the kind keeps them from ever aliasing a nucleotide scan.
	targetProteinDatabase  targetKind = 3
	targetProteinReference targetKind = 4
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

// scanPlan is a validated, normalized ScanRequest: the resolved
// threshold plus everything needed to build the cache key without
// constructing an aligner (so cached hits never pay aligner setup).
type scanPlan struct {
	req       ScanRequest
	threshold int
	// protein is the resolved pipeline option set for ProteinSearch
	// requests (nil for nucleotide scans).
	protein *tblastn.Options
	// a runs the cold scan: the calling Aligner for its own scans, nil
	// for Scan, which builds one from req on a miss.
	a *Aligner
}

// plan renders one of this aligner's scans as a scanPlan — req names the
// target — so Align*, AlignDatabase* and Scan take one cached path.
func (a *Aligner) plan(req ScanRequest) *scanPlan {
	req.Query, req.Kernel, req.ShardLen = a.query, a.mode, a.shardLen
	req.RetryPolicy, req.Partial = a.retryPolicy, a.partial
	return &scanPlan{req: req, threshold: a.Threshold(), a: a}
}

// plan validates the request field by field (errors name the field and
// match ErrBadQuery/ErrBadOption) and resolves the effective threshold.
func (req ScanRequest) plan() (*scanPlan, error) {
	if req.Query == nil {
		return nil, badQueryf("fabp: ScanRequest.Query is nil")
	}
	if (req.Database == nil) == (req.Reference == nil) {
		return nil, badOptionf("fabp: ScanRequest needs exactly one target: set Database or Reference")
	}
	if req.ProteinSearch != nil {
		return req.planProtein()
	}
	switch req.Kernel {
	case KernelAuto, KernelScalar, KernelBitParallel:
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
	var threshold int
	switch {
	case req.Threshold != nil:
		threshold = *req.Threshold
		if threshold < 0 || threshold > req.Query.MaxScore() {
			return nil, badOptionf("fabp: ScanRequest.Threshold %d outside [0, %d]", threshold, req.Query.MaxScore())
		}
	default:
		frac := req.ThresholdFrac
		if frac == 0 {
			frac = 0.8
		}
		if frac < 0 || frac > 1 || frac != frac {
			return nil, badOptionf("fabp: ScanRequest.ThresholdFrac %v outside (0,1]", req.ThresholdFrac)
		}
		t, err := core.ThresholdFromFraction(frac, req.Query.MaxScore())
		if err != nil {
			return nil, badOption(err)
		}
		threshold = t
	}
	return &scanPlan{req: req, threshold: threshold}, nil
}

// planProtein validates and normalizes a protein-search request: the
// nucleotide-only knobs must stay unset (their semantics — window-score
// thresholds, bit-parallel kernels, shard retries — do not transfer),
// and the pipeline options resolve once, here, so the cache key and the
// cold path agree on the exact option set.
func (req ScanRequest) planProtein() (*scanPlan, error) {
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
	return &scanPlan{req: req, protein: &resolved}, nil
}

// newAligner builds the plan's aligner — only on the cold path; cache
// hits never reach here.
func (p *scanPlan) newAligner() (*Aligner, error) {
	opts := []AlignerOption{WithThreshold(p.threshold), WithKernelType(p.req.Kernel)}
	if p.req.ShardLen > 0 {
		opts = append(opts, WithShardLen(p.req.ShardLen))
	}
	if p.req.RetryPolicy.enabled() {
		opts = append(opts, WithRetryPolicy(p.req.RetryPolicy))
	}
	if p.req.Partial {
		opts = append(opts, WithPartialResults())
	}
	return NewAligner(p.req.Query, opts...)
}

// key builds the plan's cache key without an aligner — the one builder
// of scan cache keys.
func (p *scanPlan) key() scanKey {
	if p.protein != nil {
		k := scanKey{query: p.req.Query.digest, protein: proteinKeyOf(p.protein)}
		if p.req.Database != nil {
			k.target = [sha256.Size]byte(p.req.Database.d.Digest())
			k.kind = targetProteinDatabase
		} else {
			k.target = p.req.Reference.contentDigest()
			k.kind = targetProteinReference
		}
		return k
	}
	k := scanKey{
		query:     p.req.Query.digest,
		threshold: p.threshold,
		kernel:    resolveKernel(p.req.Kernel),
		shardLen:  canonShardLen(p.req.ShardLen),
	}
	if p.req.Database != nil {
		k.target = [sha256.Size]byte(p.req.Database.d.Digest())
		k.kind = targetDatabase
	} else {
		k.target = p.req.Reference.contentDigest()
		k.kind = targetReference
	}
	return k
}

// bypass reports whether this plan must scan uncached.
func (p *scanPlan) bypass() bool {
	return p.req.NoCache || p.req.Partial || !scanResults.Enabled()
}

// cold runs the plan's scan uncached under ctx.
func (p *scanPlan) cold(ctx context.Context) (*ScanResult, error) {
	if p.protein != nil {
		return p.executeProteinSearch(ctx)
	}
	a := p.a
	if a == nil {
		var err error
		if a, err = p.newAligner(); err != nil {
			return nil, err
		}
	}
	if p.req.Database != nil {
		return a.execute(ctx, p.req.Database.target())
	}
	return a.execute(ctx, p.req.Reference.target())
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
