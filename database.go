package fabp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"strconv"
	"strings"
	"sync"
	"time"

	"fabp/internal/bio"
	"fabp/internal/bitpar"
	"fabp/internal/core"
	"fabp/internal/db"
	"fabp/internal/experiments"
	"fabp/internal/faultinject"
	"fabp/internal/host"
	"fabp/internal/isa"
	"fabp/internal/sched"
)

// Database is an indexed, 2-bit packed reference database — the DRAM image
// the accelerator scans, with a record index so hits map back to sequences.
type Database struct {
	d *db.Database
}

// warnLogger receives non-fatal load diagnostics (a rejected plane
// section degrading a warm start). Guarded by warnMu; nil silences.
var (
	warnMu     sync.Mutex
	warnLogger func(format string, args ...any) = log.Printf
)

// SetWarnLogger redirects the package's non-fatal warnings (default
// log.Printf). Pass nil to silence them. Safe for concurrent use.
func SetWarnLogger(f func(format string, args ...any)) {
	warnMu.Lock()
	warnLogger = f
	warnMu.Unlock()
}

func warnf(format string, args ...any) {
	warnMu.Lock()
	f := warnLogger
	warnMu.Unlock()
	if f != nil {
		f(format, args...)
	}
}

// BuildDatabase packs a nucleotide FASTA stream into a database.
func BuildDatabase(r io.Reader) (*Database, error) {
	recs, err := bio.NewFastaReader(r).ReadAll()
	if err != nil {
		return nil, err
	}
	d, err := db.Build(recs)
	if err != nil {
		return nil, err
	}
	return &Database{d: d}, nil
}

// DatabaseFromReference wraps a single reference sequence as a one-record
// database.
func DatabaseFromReference(id string, ref *Reference) (*Database, error) {
	d, err := db.FromSeq(id, ref.seq)
	if err != nil {
		return nil, err
	}
	return &Database{d: d}, nil
}

// SaveDatabase serializes the database in the current (v2) file format:
// packed payload, record index, the packed bit-planes, a SHA-256 content
// digest and per-section CRC32 checksums. Writing packs the planes if no
// copy is resident yet — the one-time preprocessing cost every later
// LoadDatabase of the file skips entirely.
func (d *Database) SaveDatabase(w io.Writer) error {
	_, err := d.d.WriteTo(w)
	return err
}

// SaveDatabaseLegacy serializes in the v1 layout — no checksums, no plane
// section — for rollback to readers that predate the v2 format. v1 files
// load fine (LoadDatabase reads both) but pay a full plane packing before
// the first bit-parallel scan.
func (d *Database) SaveDatabaseLegacy(w io.Writer) error {
	_, err := d.d.WriteV1To(w)
	return err
}

// ErrCorruptDatabase matches (via errors.Is) every structural load
// failure LoadDatabase and InspectDatabase return: bad magic, truncation,
// checksum or content-digest mismatch. A damaged plane section alone is
// NOT this error — the load succeeds and degrades to in-process packing.
var ErrCorruptDatabase = db.ErrCorrupt

// LoadDatabase reads a database saved with SaveDatabase (v2) or
// SaveDatabaseLegacy (v1). A v2 file's persisted bit-planes are installed
// into the shared plane cache keyed by content digest, so the first
// bit-parallel scan — and every scan after it, from any Database loaded
// from the same content — runs with zero packing work (counted on
// db.load.planes_reused). A v1 file, or a v2 file whose plane section
// fails its checksum or version check, still loads: scans fall back to
// packing in-process (db.load.planes_packed), and the fallback is logged
// through SetWarnLogger's sink. Structural damage anywhere else returns
// ErrCorruptDatabase; malformed input never panics.
func LoadDatabase(r io.Reader) (*Database, error) {
	inner, err := db.Read(r)
	if err != nil {
		return nil, err
	}
	d := &Database{d: inner}
	d.installPersistedPlanes()
	return d, nil
}

// installPersistedPlanes is LoadDatabase's warm-start step: persisted
// planes become cache-resident under the content digest, and the
// reused/packed telemetry records how this load will scan.
func (d *Database) installPersistedPlanes() {
	cache := bitpar.SharedPlanes()
	key := planeKey{d.d.Digest()}
	if pp := d.d.PersistedPlanes(); pp != nil {
		cache.Install(key, pp)
		dbLoadPlanesReused.Inc()
		return
	}
	if cache.Contains(key) {
		// No planes in this file, but an earlier load of the same content
		// already made them resident — still a warm start.
		dbLoadPlanesReused.Inc()
		return
	}
	if err := d.d.PlaneSectionError(); err != nil {
		warnf("fabp: database %s: plane section rejected, falling back to in-process packing: %v",
			d.d.Digest(), err)
	}
	dbLoadPlanesPacked.Inc()
}

// DatabaseFileInfo describes a database file's on-disk shape, as
// InspectDatabase reports it without retaining the payload.
type DatabaseFileInfo struct {
	// Version is the file format version (1 or 2).
	Version int `json:"version"`
	// Records and TotalNt are the database geometry.
	Records int `json:"records"`
	TotalNt int `json:"total_nt"`
	// Digest is the hex SHA-256 content digest (computed for v1 files,
	// which do not store one).
	Digest string `json:"digest"`
	// HasPlanes reports a valid persisted plane section; PlaneError is
	// the rejection reason when a declared section failed validation.
	HasPlanes  bool   `json:"has_planes"`
	PlaneError string `json:"plane_error,omitempty"`
	// Per-section byte counts, checksums included.
	IndexBytes   int64 `json:"index_bytes"`
	PayloadBytes int64 `json:"payload_bytes"`
	PlaneBytes   int64 `json:"plane_bytes"`
}

// InspectDatabase fully validates a database file — magic, geometry,
// section checksums, content digest, plane section — and reports its
// shape. Structural damage returns ErrCorruptDatabase; a rejected plane
// section is reported in PlaneError (the file still loads).
func InspectDatabase(r io.Reader) (DatabaseFileInfo, error) {
	info, err := db.Inspect(r)
	if err != nil {
		return DatabaseFileInfo{}, err
	}
	out := DatabaseFileInfo{
		Version: info.Version, Records: info.Records, TotalNt: info.TotalNt,
		Digest: info.Digest.String(), HasPlanes: info.HasPlanes,
		IndexBytes: info.IndexBytes, PayloadBytes: info.PayloadBytes,
		PlaneBytes: info.PlaneBytes,
	}
	if info.PlaneErr != nil {
		out.PlaneError = info.PlaneErr.Error()
	}
	return out, nil
}

// Len returns the total nucleotide count.
func (d *Database) Len() int { return d.d.Len() }

// NumRecords returns the sequence count.
func (d *Database) NumRecords() int { return d.d.NumRecords() }

// RecordInfo describes one database sequence.
type RecordInfo struct {
	ID          string
	Description string
	Length      int
}

// Record returns the i-th sequence's metadata.
func (d *Database) Record(i int) RecordInfo {
	r := d.d.Record(i)
	return RecordInfo{ID: r.ID, Description: r.Description, Length: r.Length}
}

// RecordHit is an alignment hit attributed to a database record.
type RecordHit struct {
	// RecordID and RecordIndex identify the sequence.
	RecordID    string
	RecordIndex int
	// Offset is the window start within that sequence.
	Offset int
	// Score is the alignment score.
	Score int
}

// planeKey keys the shared plane cache by content digest: two Database
// objects holding identical concatenated sequences — two loads of one
// file, or a load and a fresh build — share one resident plane set.
// (Pointer identity, the old key, packed once per object and let reloads
// of the same file masquerade as distinct databases.)
type planeKey struct{ d db.Digest }

// planes returns the database's packed bit-planes through the process-wide
// cache: the first scan packs once (or reuses planes a v2 load
// installed), every later query, batch or session call against the same
// content reuses the resident planes — the software analogue of the
// card-DRAM-resident database of the paper's protocol.
func (d *Database) planes() *bitpar.Planes {
	return bitpar.SharedPlanes().Get(planeKey{d.d.Digest()}, d.d.EnsurePlanes)
}

// WarmPlanes makes the database's bit-planes cache-resident now — the
// deliberate warm-up servers run at startup so the first query never pays
// packing latency. After a v2 LoadDatabase this is free (the persisted
// planes are already installed); otherwise it packs once.
func (d *Database) WarmPlanes() { d.planes() }

// PlanesResident reports whether the shared cache currently holds this
// database's planes (installed, packed, or still packing).
func (d *Database) PlanesResident() bool {
	return bitpar.SharedPlanes().Contains(planeKey{d.d.Digest()})
}

// EvictPlanes drops this database's planes from the shared cache AND the
// database's own memoized copy, so the next scan packs from scratch — the
// cold-start control for benchmarks and memory-pressure handling.
func (d *Database) EvictPlanes() {
	bitpar.SharedPlanes().Invalidate(planeKey{d.d.Digest()})
	d.d.DropPlanes()
}

// AsReference exposes the database's concatenated sequence as a Reference
// for the single-reference APIs (AlignContext, AlignBatch) — hits carry
// global positions, without record attribution.
func (d *Database) AsReference() *Reference {
	return &Reference{seq: d.d.Seq()}
}

// planesForReference caches a standalone reference's bit-planes the same
// way (keyed on the Reference, which is immutable once built).
func planesForReference(ref *Reference) *bitpar.Planes {
	return bitpar.SharedPlanes().Get(ref, func() *bitpar.Planes {
		return bitpar.PackReference(ref.seq)
	})
}

// bitparToCore converts kernel hits to the engine's hit type.
func bitparToCore(raw []bitpar.Hit) []core.Hit {
	if len(raw) == 0 {
		return nil
	}
	hits := make([]core.Hit, len(raw))
	for i, h := range raw {
		hits[i] = core.Hit{Pos: h.Pos, Score: h.Score}
	}
	return hits
}

// shardScan builds the shard-scan function for this aligner over an
// n-letter target — the closure scans window starts [lo, hi) under the
// selected kernel, reading one shared packed representation (the
// bit-planes from planes for the bit-parallel kernel, a context array over
// seq for the scalar engine) so every shard gets its shardLen + Lq−1
// overlap for free. Only the chosen kernel's input is built. starts is 0
// when the target is shorter than the query.
func (a *Aligner) shardScan(n int, planes func() *bitpar.Planes, seq func() bio.NucSeq) (scan func(lo, hi int) []core.Hit, starts int) {
	starts = n - a.query.Elements() + 1
	if starts <= 0 {
		return nil, 0
	}
	a.tm.kernelChosen(a.useBitpar())
	if a.useBitpar() {
		pp := planes()
		return func(lo, hi int) []core.Hit {
			return bitparToCore(a.kernel.AlignPlanesRange(pp, lo, hi))
		}, starts
	}
	ctxs := core.Contexts(seq())
	e := a.engine()
	return func(lo, hi int) []core.Hit {
		return e.AlignContexts(ctxs, lo, hi)
	}, starts
}

// databaseScan is shardScan over the database's cached planes or its
// unpacked letters.
func (a *Aligner) databaseScan(d *Database) (scan func(lo, hi int) []core.Hit, starts int) {
	return a.shardScan(d.Len(), func() *bitpar.Planes {
		a.tm.planeLookups.Inc()
		return d.planes()
	}, d.d.Seq)
}

// referenceScan is shardScan over a standalone reference's cached planes
// or its letters.
func (a *Aligner) referenceScan(ref *Reference) (scan func(lo, hi int) []core.Hit, starts int) {
	return a.shardScan(ref.Len(), func() *bitpar.Planes {
		a.tm.planeLookups.Inc()
		return planesForReference(ref)
	}, func() bio.NucSeq { return ref.seq })
}

// instrumentShard wraps a shard-scan function so each execution records
// latency and the shards-run counter on tm.
func instrumentShard(tm *alignerMetrics, scan func(lo, hi int) []core.Hit) func(lo, hi int) []core.Hit {
	return func(lo, hi int) []core.Hit {
		t0 := time.Now()
		hits := scan(lo, hi)
		observeSince(tm.shardLatency, t0)
		tm.shardsRun.Inc()
		return hits
	}
}

// scanShardsCtx executes a scan function over the shard plan on the
// aligner's pool and returns the concatenated, position-ordered hits.
// Cancellation is checked between shards (see sched.GatherCtx): on a
// canceled or deadlined context the call returns ctx.Err() after at most
// the shards already executing finish. With a RetryPolicy, partial mode
// or active fault injection, shards route through the resilient path
// (retries, hedging, the dispatch fault hook, *PartialError); otherwise
// the historical zero-overhead gather runs unchanged.
func (a *Aligner) scanShardsCtx(ctx context.Context, starts int, scan func(lo, hi int) []core.Hit) ([]core.Hit, error) {
	shards := sched.Plan(starts, a.shardLen)
	a.tm.shardsPlanned.Add(uint64(len(shards)))
	scan = instrumentShard(&a.tm, scan)
	if a.resilientScans() {
		return a.gatherResilient(ctx, shards, scan)
	}
	return sched.GatherCtx(ctx, a.pool, len(shards), func(i int) []core.Hit {
		return scan(shards[i].Lo, shards[i].Hi)
	})
}

// AlignDatabase scans the whole database and attributes hits to records,
// dropping windows that span record boundaries (concatenation artifacts).
// The scan is tiled into shards executed on the aligner's worker pool and
// is bit-exact with a serial scan. It is AlignDatabaseContext under
// context.Background() — uncancellable, never errs.
func (a *Aligner) AlignDatabase(d *Database) []RecordHit {
	hits, _ := a.AlignDatabaseContext(context.Background(), d)
	return hits
}

// AlignDatabaseContext is AlignDatabase under a context. Cancellation and
// deadlines are honored at shard boundaries: undispatched shards are shed,
// shards already executing finish, and the call returns ctx.Err() within
// one shard of the cancel — recorded on align.canceled /
// align.deadline.exceeded. The shared plane cache is untouched by an
// abort (packing is atomic within the cache), so a later retry scans the
// same resident planes.
//
// When the scan-result cache is enabled (SetScanCacheCapacity), the call
// shares the cache- and singleflight-aware spine with Scan: repeats are
// answered from memory and concurrent identical scans collapse into one.
func (a *Aligner) AlignDatabaseContext(ctx context.Context, d *Database) ([]RecordHit, error) {
	res, _, err := a.cachedDatabaseScan(ctx, d)
	if res == nil {
		return nil, err
	}
	return res.RecordHits, err
}

// executeDatabaseScan is the uncached database scan — the historical
// AlignDatabaseContext body, producing a *ScanResult. Every telemetry
// update lives here, so cached and collapsed calls observably run zero
// scans.
func (a *Aligner) executeDatabaseScan(ctx context.Context, d *Database) (*ScanResult, error) {
	a.tm.queries.Inc()
	t0 := time.Now()
	defer func() { observeSince(a.tm.alignLatency, t0) }()
	if err := ctx.Err(); err != nil {
		a.tm.recordCtxErr(err)
		return nil, err
	}
	scan, starts := a.databaseScan(d)
	var raw []core.Hit
	var perr error
	if scan != nil {
		var err error
		raw, err = a.scanShardsCtx(ctx, starts, scan)
		if err != nil {
			var pe *PartialError
			if !errors.As(err, &pe) {
				a.tm.recordCtxErr(err)
				return nil, err
			}
			perr = err // degraded completion: surviving hits + *PartialError
		}
	}
	hits := toRecordHits(d.d.Attribute(raw, a.query.Elements()))
	a.tm.hits.Add(uint64(len(hits)))
	return a.newScanResult(nil, hits, perr), perr
}

// AlignDatabaseStream scans the database shard by shard and delivers
// attributed hits to emit in position order while holding only a bounded
// number of shard results in memory — the way to scan a database whose hit
// list would not fit (or should not wait) in one slice. Return an error
// from emit to stop early.
func (a *Aligner) AlignDatabaseStream(d *Database, emit func(RecordHit) error) error {
	return a.AlignDatabaseStreamContext(context.Background(), d, emit)
}

// AlignDatabaseStreamContext is AlignDatabaseStream under a context.
// Cancellation checkpoints sit at every stage of the pipeline — shard
// dispatch, shard execution start, and the ordered merge before each
// emit — so the call returns ctx.Err() within one shard of the cancel,
// drains the in-flight shards it launched (no goroutine outlives the
// call), and records the abort on align.canceled /
// align.deadline.exceeded. Hits already emitted are valid: they are the
// complete, position-ordered prefix of the full scan up to the last
// merged shard.
func (a *Aligner) AlignDatabaseStreamContext(ctx context.Context, d *Database, emit func(RecordHit) error) error {
	a.tm.queries.Inc()
	t0 := time.Now()
	defer func() { observeSince(a.tm.alignLatency, t0) }()
	if err := ctx.Err(); err != nil {
		a.tm.recordCtxErr(err)
		return err
	}
	scan, starts := a.databaseScan(d)
	if scan == nil {
		return nil
	}
	shards := sched.Plan(starts, a.shardLen)
	a.tm.shardsPlanned.Add(uint64(len(shards)))
	scan = instrumentShard(&a.tm, scan)
	m := a.query.Elements()
	produce := func(i int) ([]db.RecordHit, error) {
		return d.d.Attribute(scan(shards[i].Lo, shards[i].Hi), m), nil
	}
	var fc *failureCollector
	if a.resilientScans() {
		fc = &failureCollector{}
		produce = resilientStreamProduce(ctx, a.pool, newResilience(a.retryPolicy, &a.tm), a.partial, fc, shards, produce)
	}
	err := sched.StreamOrderedCtx(ctx, a.pool, len(shards), produce,
		func(h db.RecordHit) error {
			a.tm.hits.Inc()
			return emit(RecordHit{
				RecordID:    h.RecordID,
				RecordIndex: h.RecordIndex,
				Offset:      h.Offset,
				Score:       h.Score,
			})
		})
	if err != nil {
		a.tm.recordCtxErr(err)
		return err
	}
	if fc != nil && len(fc.failed) > 0 {
		// Every surviving shard's hits were emitted in order; report the
		// uncovered ranges the same way the gather path does.
		a.tm.partial.Inc()
		return fc.partialError()
	}
	return nil
}

func toRecordHits(attributed []db.RecordHit) []RecordHit {
	out := make([]RecordHit, len(attributed))
	for i, h := range attributed {
		out[i] = RecordHit{
			RecordID:    h.RecordID,
			RecordIndex: h.RecordIndex,
			Offset:      h.Offset,
			Score:       h.Score,
		}
	}
	return out
}

// Session models the full deployment: an FPGA card holding the database
// resident in its DRAM, with queries streamed against it. Results are real
// (bit-exact engine); the timing decomposition follows the paper's
// end-to-end measurement protocol.
type Session struct {
	s *host.Session
	d *Database
}

// NewSession creates a session on the paper's default platform (Kintex-7
// card, PCIe Gen3 x8, 8 GB card DRAM) with the database loaded. Hit
// computation runs on the sharded scan path with the shared plane cache,
// so the database is packed once and reused across queries and RunBatch
// calls; batches take the fused path (every reference tile scanned once
// for the whole batch); timing follows the paper's protocol unchanged.
func NewSession(d *Database) (*Session, error) {
	s := host.NewSession(host.DefaultPlatform())
	if _, err := s.LoadDatabase(d.d.Seq()); err != nil {
		return nil, err
	}
	sess := &Session{s: s, d: d}
	s.SetAlignFunc(sess.scan)
	s.SetBatchAlignFunc(sess.scanBatch)
	return sess, nil
}

// scan computes one query's hits against the resident database: a sharded
// bit-parallel scan over the cached planes, the same kernel as an auto
// Aligner, and bit-exact with the host's built-in engine. Cancellation is
// checked between shards; an abort returns ctx.Err() and is recorded on
// the process-wide align.canceled / align.deadline.exceeded counters.
func (s *Session) scan(ctx context.Context, prog isa.Program, threshold int) ([]core.Hit, error) {
	starts := s.d.Len() - len(prog) + 1
	if starts <= 0 {
		return nil, nil
	}
	tm := &defaultAlignerTM
	tm.queries.Inc()
	shards := sched.Plan(starts, 0)
	tm.shardsPlanned.Add(uint64(len(shards)))
	tm.kernelChosen(true)
	k, err := bitpar.NewKernel(prog, threshold)
	if err != nil {
		return nil, err
	}
	tm.planeLookups.Inc()
	planes := s.d.planes()
	scan := instrumentShard(tm, func(lo, hi int) []core.Hit {
		return bitparToCore(k.AlignPlanesRange(planes, lo, hi))
	})
	var hits []core.Hit
	if rp := currentBatchRetryPolicy(); rp.enabled() || faultinject.Enabled() {
		hits, err = gatherShardsResilient(ctx, sched.Shared(), rp, false, tm, shards, scan)
	} else {
		hits, err = sched.GatherCtx(ctx, sched.Shared(), len(shards), func(i int) []core.Hit {
			return scan(shards[i].Lo, shards[i].Hi)
		})
	}
	if err != nil {
		tm.recordCtxErr(err)
		return nil, err
	}
	tm.hits.Add(uint64(len(hits)))
	return hits, nil
}

// scanBatch computes a whole batch's hits against the resident database
// in one fused pass — the host.BatchAlignFunc hook installed by
// NewSession, replacing the per-query rescan loop: the fused bit-parallel
// batch kernel over the cached planes, bit-exact with the per-query scan.
func (s *Session) scanBatch(ctx context.Context, progs []isa.Program, thresholds []int) ([][]core.Hit, error) {
	return scanBatchDatabase(ctx, s.d, progs, thresholds)
}

// scanBatchDatabase is the database-level fused batch scan shared by
// Session.scanBatch and AlignDatabaseBatchContext.
func scanBatchDatabase(ctx context.Context, d *Database, progs []isa.Program, thresholds []int) ([][]core.Hit, error) {
	defaultAlignerTM.planeLookups.Inc()
	raw, err := alignBatchFused(ctx, progs, thresholds, d.planes(), 0)
	if err != nil {
		return nil, err
	}
	out := make([][]core.Hit, len(raw))
	for i, hits := range raw {
		out[i] = bitparToCore(hits)
	}
	return out, nil
}

// QueryTiming decomposes one query's projected end-to-end time in seconds.
type QueryTiming struct {
	Encode, QueryTransfer, Kernel, Readback, Total float64
}

// Run executes one query end-to-end and returns attributed hits plus the
// timing decomposition. It is RunContext under context.Background().
func (s *Session) Run(q *Query, thresholdFrac float64) ([]RecordHit, QueryTiming, error) {
	return s.RunContext(context.Background(), q, thresholdFrac)
}

// RunContext is Run under a context: the resident-database scan honors
// cancellation and deadlines at shard boundaries and returns ctx.Err()
// without waiting for the remaining shards.
func (s *Session) RunContext(ctx context.Context, q *Query, thresholdFrac float64) ([]RecordHit, QueryTiming, error) {
	threshold, err := core.ThresholdFromFraction(thresholdFrac, q.MaxScore())
	if err != nil {
		return nil, QueryTiming{}, err
	}
	res, err := s.s.RunQueryContext(ctx, isaProgram(q), threshold)
	if err != nil {
		return nil, QueryTiming{}, err
	}
	attributed := s.d.d.Attribute(res.Hits, q.Elements())
	out := make([]RecordHit, len(attributed))
	for i, h := range attributed {
		out[i] = RecordHit{RecordID: h.RecordID, RecordIndex: h.RecordIndex, Offset: h.Offset, Score: h.Score}
	}
	t := res.Timing
	return out, QueryTiming{
		Encode: t.EncodeSec, QueryTransfer: t.QueryTransferSec,
		Kernel: t.KernelSec, Readback: t.ReadbackSec, Total: t.TotalSec,
	}, nil
}

// RunBatch executes many queries against the resident database in one
// pass, returning per-query attributed hits and the projected end-to-end
// batch seconds. It is RunBatchContext under context.Background().
func (s *Session) RunBatch(queries []*Query, thresholdFrac float64) ([][]RecordHit, float64, error) {
	return s.RunBatchContext(context.Background(), queries, thresholdFrac)
}

// RunBatchContext is RunBatch under a context: cancellation is checked
// between queries and between shards within each query's scan, so an
// aborted batch returns ctx.Err() without scanning the remaining queries.
func (s *Session) RunBatchContext(ctx context.Context, queries []*Query, thresholdFrac float64) ([][]RecordHit, float64, error) {
	progs, err := batchPrograms(queries)
	if err != nil {
		return nil, 0, err
	}
	elems := make([]int, len(queries))
	for i, q := range queries {
		elems[i] = q.Elements()
	}
	res, err := s.s.RunBatchContext(ctx, progs, thresholdFrac)
	if err != nil {
		return nil, 0, err
	}
	out := make([][]RecordHit, len(queries))
	for i, hits := range res.PerQuery {
		attributed := s.d.d.Attribute(hits, elems[i])
		out[i] = make([]RecordHit, len(attributed))
		for j, h := range attributed {
			out[i][j] = RecordHit{RecordID: h.RecordID, RecordIndex: h.RecordIndex, Offset: h.Offset, Score: h.Score}
		}
	}
	return out, res.TotalSec, nil
}

func isaProgram(q *Query) isa.Program { return q.program }

// batchPrograms validates every query of a batch up front — a batch either
// starts fully or fails with every offending index named, never mid-scan.
func batchPrograms(queries []*Query) ([]isa.Program, error) {
	progs := make([]isa.Program, len(queries))
	var bad []string
	for i, q := range queries {
		if q == nil || q.Elements() == 0 {
			bad = append(bad, strconv.Itoa(i))
			continue
		}
		progs[i] = q.program
	}
	if len(bad) > 0 {
		return nil, fmt.Errorf("fabp: invalid batch queries at index %s (nil or empty)",
			strings.Join(bad, ", "))
	}
	return progs, nil
}

// batchKernelInputs validates a batch and resolves every query's absolute
// threshold from the shared fraction — the inputs the fused kernel wants.
// Query errors name every offending index; fraction errors are batch-wide.
func batchKernelInputs(queries []*Query, thresholdFrac float64) ([]isa.Program, []int, error) {
	progs, err := batchPrograms(queries)
	if err != nil {
		return nil, nil, err
	}
	thresholds := make([]int, len(queries))
	for i, q := range queries {
		t, err := core.ThresholdFromFraction(thresholdFrac, q.MaxScore())
		if err != nil {
			return nil, nil, err
		}
		thresholds[i] = t
	}
	return progs, thresholds, nil
}

// alignBatchFused is the fused large-reference batch scan: all K queries
// compile into one bitpar.BatchKernel, the union of valid window starts is
// tiled into shards, and each shard's reference plane words are fetched
// ONCE for the whole batch — one pass per tile instead of K. Shards run
// on the shared pool with per-query hit streams merged in position order
// (sched.GatherBatchCtx); cancellation sheds undispatched shards for every
// query at once. shardLen 0 takes the scheduler's default; tests pass
// small values to force carry-straddling shard boundaries.
func alignBatchFused(ctx context.Context, progs []isa.Program, thresholds []int, planes *bitpar.Planes, shardLen int) ([][]bitpar.Hit, error) {
	bk, err := bitpar.NewBatchKernel(progs, thresholds)
	if err != nil {
		return nil, err
	}
	tm := &defaultAlignerTM
	k := uint64(bk.NumQueries())
	tm.queries.Add(k)
	tm.batchQueries.Add(k)
	tm.kernelBitpar.Add(k)
	starts := bk.Starts(planes.Len())
	if starts <= 0 {
		// No query fits the target: nothing to scan, but a dead context
		// still aborts (and counts) like any other scan.
		if err := ctx.Err(); err != nil {
			tm.recordCtxErr(err)
			return nil, err
		}
		return make([][]bitpar.Hit, len(progs)), nil
	}
	shards := sched.Plan(starts, shardLen)
	tm.shardsPlanned.Add(uint64(len(shards)))
	scanShard := func(i int) [][]bitpar.Hit {
		ts := time.Now()
		dst := bk.AlignPlanesRange(planes, shards[i].Lo, shards[i].Hi, nil)
		observeSince(tm.shardLatency, ts)
		tm.shardsRun.Inc()
		return dst
	}
	t0 := time.Now()
	var perQuery [][]bitpar.Hit
	if rp := currentBatchRetryPolicy(); rp.enabled() || faultinject.Enabled() {
		perQuery, err = gatherBatchResilient(ctx, rp, tm, shards, len(progs), scanShard)
	} else {
		perQuery, err = sched.GatherBatchCtx(ctx, sched.Shared(), len(shards), len(progs),
			func(i int) [][]bitpar.Hit { return scanShard(i) })
	}
	if err != nil {
		tm.recordCtxErr(err)
		return nil, err
	}
	observeSince(tm.batchKernelLatency, t0)
	tm.batchFusedPasses.Add(uint64(len(shards)))
	tm.batchPlaneBytesSaved.Add(uint64(len(progs)-1) * uint64(planes.SizeBytes()))
	for _, hits := range perQuery {
		tm.hits.Add(uint64(len(hits)))
	}
	return perQuery, nil
}

// bitparBatchToHits converts per-query kernel hit lists to the public type.
func bitparBatchToHits(raw [][]bitpar.Hit) [][]Hit {
	out := make([][]Hit, len(raw))
	for i, hits := range raw {
		out[i] = make([]Hit, len(hits))
		for j, h := range hits {
			out[i][j] = Hit{Pos: h.Pos, Score: h.Score}
		}
	}
	return out
}

// AlignBatch scans one reference with many queries in a single fused pass,
// returning per-query hit lists. Thresholds are the given fraction of each
// query's own maximum score (rounded, not truncated). Every query is
// validated before any scanning starts. The reference packs into
// bit-planes once — cached across calls — and the fused batch kernel reads
// each reference tile once for the whole batch, bit-exact with a serial
// per-query scan. It is AlignBatchContext under context.Background().
func AlignBatch(queries []*Query, ref *Reference, thresholdFrac float64) ([][]Hit, error) {
	return AlignBatchContext(context.Background(), queries, ref, thresholdFrac)
}

// AlignBatchContext is AlignBatch under a context: cancellation and
// deadlines are honored at shard boundaries for the whole batch at once —
// undispatched shards are shed for every query, shards already executing
// finish, and the call returns ctx.Err() recorded on align.canceled /
// align.deadline.exceeded. The shared plane cache is untouched by an
// abort, so a retry scans the same resident planes.
func AlignBatchContext(ctx context.Context, queries []*Query, ref *Reference, thresholdFrac float64) ([][]Hit, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("fabp: empty batch")
	}
	progs, thresholds, err := batchKernelInputs(queries, thresholdFrac)
	if err != nil {
		return nil, err
	}
	defaultAlignerTM.planeLookups.Inc()
	raw, err := alignBatchFused(ctx, progs, thresholds, planesForReference(ref), 0)
	if err != nil {
		return nil, err
	}
	return bitparBatchToHits(raw), nil
}

// AlignDatabaseBatch scans the whole database once for every query of a
// batch and attributes each query's hits to records, dropping windows that
// span record boundaries. It is AlignDatabaseBatchContext under
// context.Background().
func AlignDatabaseBatch(d *Database, queries []*Query, thresholdFrac float64) ([][]RecordHit, error) {
	return AlignDatabaseBatchContext(context.Background(), d, queries, thresholdFrac)
}

// AlignDatabaseBatchContext is AlignDatabaseBatch under a context: the
// fused scan honors cancellation at shard boundaries (for the whole batch
// at once) and returns ctx.Err() without scanning the remaining shards.
func AlignDatabaseBatchContext(ctx context.Context, d *Database, queries []*Query, thresholdFrac float64) ([][]RecordHit, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("fabp: empty batch")
	}
	progs, thresholds, err := batchKernelInputs(queries, thresholdFrac)
	if err != nil {
		return nil, err
	}
	perQuery, err := scanBatchDatabase(ctx, d, progs, thresholds)
	if err != nil {
		return nil, err
	}
	out := make([][]RecordHit, len(queries))
	for i, hits := range perQuery {
		out[i] = toRecordHits(d.d.Attribute(hits, queries[i].Elements()))
	}
	return out, nil
}

// RunExperimentAs renders an experiment in the requested format: "text",
// "markdown" or "csv".
func RunExperimentAs(name, format string) (string, error) {
	f, err := experiments.ParseFormat(format)
	if err != nil {
		return "", err
	}
	t, err := experiments.Run(name)
	if err != nil {
		return "", err
	}
	return t.RenderAs(f)
}
