package fabp

import (
	"context"
	"io"
	"log"
	"sync"
	"time"

	"fabp/internal/bio"
	"fabp/internal/bitpar"
	"fabp/internal/db"
	"fabp/internal/experiments"
	"fabp/internal/faultinject"
	"fabp/internal/fpga"
	"fabp/internal/host"
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
// SaveDatabaseLegacy (v1). A v2 file's persisted bit-planes become the
// database's own planes, so the first bit-parallel scan — and every scan
// after it — runs with zero packing work (counted on
// db.load.planes_reused). A v1 file, or a v2 file whose plane section
// fails its checksum or version check, still loads: its first scan packs
// in-process (db.load.planes_packed), and the fallback is logged through
// SetWarnLogger's sink. Structural damage anywhere else returns
// ErrCorruptDatabase; malformed input never panics.
func LoadDatabase(r io.Reader) (*Database, error) {
	inner, err := db.Read(r)
	if err != nil {
		return nil, err
	}
	if inner.PersistedPlanes() != nil {
		dbLoadPlanesReused.Inc()
	} else {
		if err := inner.PlaneSectionError(); err != nil {
			warnf("fabp: database %s: plane section rejected, falling back to in-process packing: %v",
				inner.Digest(), err)
		}
		dbLoadPlanesPacked.Inc()
	}
	return &Database{d: inner}, nil
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

// planes returns the database's bit-planes: persisted by a v2 load, or
// packed once by the first scan, and held for the object's lifetime — the
// software analogue of the card-DRAM-resident database of the paper's
// protocol, which every query, batch and session call then reads. It is
// the eviction fault site: a firing bitpar.cache.evict rule drops the
// planes first, so this scan repacks.
func (d *Database) planes() *bitpar.Planes {
	if faultinject.Check(context.Background(), faultinject.SiteCacheEvict, 0) != nil {
		d.d.DropPlanes()
	}
	return d.d.EnsurePlanes()
}

// WarmPlanes makes the database's bit-planes resident now — the deliberate
// warm-up servers run at startup so the first query never pays packing
// latency. After a v2 LoadDatabase this is free (the persisted planes are
// already there); otherwise it packs once.
func (d *Database) WarmPlanes() { d.planes() }

// PlanesResident reports whether the database holds its planes now
// (persisted by the load, or packed by a scan or WarmPlanes).
func (d *Database) PlanesResident() bool { return d.d.PlanesResident() }

// EvictPlanes drops the database's planes, so the next scan packs from
// scratch — the cold-start control for benchmarks and memory-pressure
// handling. Scans already running keep the planes they read.
func (d *Database) EvictPlanes() { d.d.DropPlanes() }

// AsReference exposes the database's concatenated sequence as a Reference
// for the single-reference APIs (AlignContext, AlignBatch) — hits carry
// global positions, without record attribution.
func (d *Database) AsReference() *Reference {
	return &Reference{seq: d.d.Seq()}
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
// align.deadline.exceeded. The database's planes are untouched by an
// abort, so a later retry scans the same resident planes.
//
// When the scan-result cache is enabled (SetScanCacheCapacity), the call
// shares the cache- and singleflight-aware spine with Scan: repeats are
// answered from memory and concurrent identical scans collapse into one.
func (a *Aligner) AlignDatabaseContext(ctx context.Context, d *Database) ([]RecordHit, error) {
	res, _, err := a.plan(ScanRequest{Database: d}).run(ctx)
	if res == nil {
		return nil, err
	}
	return res.RecordHits, err
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
	// The executor supplies the shard function and its resilience; the
	// ordered merge keeps only a bounded window of shard results.
	x := a.executor()
	shards := x.load(d.planes())
	x.shards = shards
	a.tm.shardsPlanned.Add(uint64(len(shards)))
	m := a.query.Elements()
	err := sched.StreamOrderedCtx(ctx, a.pool, len(shards), func(i int) ([]db.RecordHit, error) {
		hits, err := x.attempt(ctx, i)
		if err != nil {
			if a.partial && ctx.Err() == nil {
				x.fc.add(shards[i], err) // no hits; the merge continues
				return nil, nil
			}
			return nil, shardError(shards[i], err)
		}
		return d.d.Attribute(bitparToCore(hits[0]), m), nil
	}, func(h db.RecordHit) error {
		a.tm.hits.Inc()
		return emit(toRecordHit(h))
	})
	if err != nil {
		a.tm.recordCtxErr(err)
		return err
	}
	if len(x.fc.failed) > 0 {
		// Every surviving shard's hits were emitted in order; report the
		// uncovered ranges the same way the gather does.
		a.tm.partial.Inc()
		return x.fc.partialError()
	}
	return nil
}

// Session models the full deployment: an FPGA card holding the database
// resident in its DRAM, with queries streamed against it. Results are real
// — each call is a Scan of the resident database — and the timing
// decomposition follows the paper's end-to-end measurement protocol.
type Session struct {
	platform host.Platform
	d        *Database
}

// NewSession creates a session on the paper's default platform (Kintex-7
// card, PCIe Gen3 x8, 8 GB card DRAM) with the database loaded; it fails
// if the database's 2-bit image exceeds the card's DRAM. Scans read the
// database's resident planes, so it is packed once and reused across Run
// and RunBatch calls; batches take the fused path (every reference tile
// scanned once for the whole batch).
func NewSession(d *Database) (*Session, error) {
	p := host.DefaultPlatform()
	if _, err := p.Load(d.Len()); err != nil {
		return nil, err
	}
	return &Session{platform: p, d: d}, nil
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
// without waiting for the remaining shards. The fraction must lie in
// (0, 1].
func (s *Session) RunContext(ctx context.Context, q *Query, thresholdFrac float64) ([]RecordHit, QueryTiming, error) {
	if err := checkFraction(thresholdFrac); err != nil {
		return nil, QueryTiming{}, err
	}
	res, est, err := s.scan(ctx, ScanRequest{Query: q, ThresholdFrac: thresholdFrac})
	if err != nil {
		return nil, QueryTiming{}, err
	}
	t := s.platform.QueryTiming(est, q.Elements(), s.d.Len(), len(res.RecordHits))
	return res.RecordHits, QueryTiming{
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
// between shards of the fused scan, so an aborted batch returns ctx.Err()
// without scanning the remaining shards. Every query is validated and the
// batch sized for the card before any scanning starts.
func (s *Session) RunBatchContext(ctx context.Context, queries []*Query, thresholdFrac float64) ([][]RecordHit, float64, error) {
	req := ScanRequest{Queries: queries, ThresholdFrac: thresholdFrac}
	if err := checkBatch(req); err != nil {
		return nil, 0, err
	}
	res, est, err := s.scan(ctx, req)
	if err != nil {
		return nil, 0, err
	}
	out := make([][]RecordHit, len(queries))
	elems, hits := make([]int, len(queries)), make([]int, len(queries))
	for i, qh := range res.PerQuery {
		out[i] = qh.RecordHits
		elems[i], hits[i] = queries[i].Elements(), len(qh.RecordHits)
	}
	total, _ := s.platform.BatchTiming(est, elems, s.d.Len(), hits)
	return out, total, nil
}

// scan is one Session request: ScanRequest validation, the card's fit
// check for the longest query before any scanning, then an uncached scan
// of the resident database (the card has no result cache).
func (s *Session) scan(ctx context.Context, req ScanRequest) (*ScanResult, fpga.Estimate, error) {
	req.Database, req.NoCache = s.d, true
	p, err := req.plan()
	if err != nil {
		return nil, fpga.Estimate{}, err
	}
	maxElems := 0
	for _, q := range p.queries {
		maxElems = max(maxElems, q.Elements())
	}
	est, err := s.platform.Fit(maxElems)
	if err != nil {
		return nil, est, badQuery(err)
	}
	res, _, err := p.run(ctx)
	return res, est, err
}

// checkBatch applies the contract the batch entrypoints kept from before
// ScanRequest: an empty batch is its own error, and the fraction must lie
// in (0, 1] — 0 is out of range, not ScanRequest's 0.8 default.
func checkBatch(req ScanRequest) error {
	if len(req.Queries) == 0 {
		return badQueryf("fabp: empty batch")
	}
	return checkFraction(req.ThresholdFrac)
}

// batchScan is Scan under the batch entrypoints' contract (checkBatch).
func batchScan(ctx context.Context, req ScanRequest) (*ScanResult, error) {
	if err := checkBatch(req); err != nil {
		return nil, err
	}
	return Scan(ctx, req)
}

// AlignBatch scans one reference with many queries in a single fused pass,
// returning per-query hit lists. Thresholds are the given fraction, in
// (0, 1], of each query's own maximum score (rounded, not truncated).
// Every query is validated before any scanning starts. The reference packs
// into bit-planes once — the Reference holds them across calls — and the
// fused batch kernel reads each reference tile once for the whole batch,
// bit-exact with a serial per-query scan. It is AlignBatchContext under
// context.Background().
func AlignBatch(queries []*Query, ref *Reference, thresholdFrac float64) ([][]Hit, error) {
	return AlignBatchContext(context.Background(), queries, ref, thresholdFrac)
}

// AlignBatchContext is AlignBatch under a context: cancellation and
// deadlines are honored at shard boundaries for the whole batch at once —
// undispatched shards are shed for every query, shards already executing
// finish, and the call returns ctx.Err() recorded on align.canceled /
// align.deadline.exceeded. The reference's planes are untouched by an
// abort, so a retry scans the same planes. It is Scan of
// ScanRequest{Queries, Reference, ThresholdFrac}.
func AlignBatchContext(ctx context.Context, queries []*Query, ref *Reference, thresholdFrac float64) ([][]Hit, error) {
	res, err := batchScan(ctx, ScanRequest{Queries: queries, Reference: ref, ThresholdFrac: thresholdFrac})
	if err != nil {
		return nil, err
	}
	out := make([][]Hit, len(res.PerQuery))
	for i, qh := range res.PerQuery {
		out[i] = qh.Hits
	}
	return out, nil
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
// It is Scan of ScanRequest{Queries, Database, ThresholdFrac}.
func AlignDatabaseBatchContext(ctx context.Context, d *Database, queries []*Query, thresholdFrac float64) ([][]RecordHit, error) {
	res, err := batchScan(ctx, ScanRequest{Queries: queries, Database: d, ThresholdFrac: thresholdFrac})
	if err != nil {
		return nil, err
	}
	out := make([][]RecordHit, len(res.PerQuery))
	for i, qh := range res.PerQuery {
		out[i] = qh.RecordHits
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
