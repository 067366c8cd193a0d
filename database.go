package fabp

import (
	"context"
	"fmt"
	"io"
	"log"
	"sync"

	"fabp/internal/bio"
	"fabp/internal/bitpar"
	"fabp/internal/db"
	"fabp/internal/experiments"
	"fabp/internal/faultinject"
	"fabp/internal/fpga"
	"fabp/internal/host"
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
// database. The database shares the reference's 2-bit payload (nothing is
// unpacked or copied) and holds planes of its own; Database.AsReference is
// the view that shares those too.
func DatabaseFromReference(id string, ref *Reference) (*Database, error) {
	if ref.Len() == 0 {
		return nil, fmt.Errorf("db: empty sequence")
	}
	return &Database{d: db.FromPacked(id, ref.d.Packed())}, nil
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

// planesOf returns the bit-planes of a scan target — a Database or the
// database a Reference views: persisted by a v2 load, or packed once by
// the first scan, and held for the database's lifetime — the software
// analogue of the card-DRAM-resident database of the paper's protocol,
// which every query, batch and session call then reads. It is the
// eviction fault site: a firing bitpar.cache.evict rule drops the planes
// first, so this scan repacks.
func planesOf(d *db.Database) *bitpar.Planes {
	if faultinject.Check(context.Background(), faultinject.SiteCacheEvict, 0) != nil {
		d.DropPlanes()
	}
	return d.EnsurePlanes()
}

// WarmPlanes makes the database's bit-planes resident now — the deliberate
// warm-up servers run at startup so the first query never pays packing
// latency. After a v2 LoadDatabase this is free (the persisted planes are
// already there); otherwise it packs once.
func (d *Database) WarmPlanes() { planesOf(d.d) }

// PlanesResident reports whether the database holds its planes now
// (persisted by the load, or packed by a scan or WarmPlanes).
func (d *Database) PlanesResident() bool { return d.d.PlanesResident() }

// EvictPlanes drops the database's planes, so the next scan packs from
// scratch — the cold-start control for benchmarks and memory-pressure
// handling. Scans already running keep the planes they read.
func (d *Database) EvictPlanes() { d.d.DropPlanes() }

// AsReference exposes the database's concatenated sequence as a Reference
// for the single-reference APIs (Align, a Scan of a Reference) — hits
// carry global positions, without record attribution. The Reference is a
// view: it copies nothing, and its scans read (and warm) this database's
// planes.
func (d *Database) AsReference() *Reference {
	return &Reference{d: d.d}
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

// Run executes one query end-to-end against the resident database and
// returns attributed hits plus the timing decomposition. The scan honors
// cancellation and deadlines at shard boundaries and returns ctx.Err()
// without waiting for the remaining shards. The fraction must lie in
// (0, 1].
func (s *Session) Run(ctx context.Context, q *Query, thresholdFrac float64) ([]RecordHit, QueryTiming, error) {
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
// fused pass, returning per-query attributed hits and the projected
// end-to-end batch seconds. Every query is validated and the batch sized
// for the card before any scanning starts; cancellation is checked
// between shards, so an aborted batch returns ctx.Err() without scanning
// the remaining shards.
func (s *Session) RunBatch(ctx context.Context, queries []*Query, thresholdFrac float64) ([][]RecordHit, float64, error) {
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

// checkBatch applies the contract RunBatch and AlignDatabaseBatchContext
// kept from before ScanRequest: an empty batch is its own error, and the
// fraction must lie in (0, 1] — 0 is out of range, not ScanRequest's 0.8
// default.
func checkBatch(req ScanRequest) error {
	if len(req.Queries) == 0 {
		return badQueryf("fabp: empty batch")
	}
	return checkFraction(req.ThresholdFrac)
}

// AlignDatabaseBatchContext scans the whole database once for every query
// of a batch and attributes each query's hits to records, dropping
// windows that span record boundaries. The fused scan honors cancellation
// at shard boundaries (for the whole batch at once) and returns ctx.Err()
// without scanning the remaining shards. It is Scan of
// ScanRequest{Queries, Database, ThresholdFrac} under checkBatch's
// contract.
func AlignDatabaseBatchContext(ctx context.Context, d *Database, queries []*Query, thresholdFrac float64) ([][]RecordHit, error) {
	req := ScanRequest{Queries: queries, Database: d, ThresholdFrac: thresholdFrac}
	if err := checkBatch(req); err != nil {
		return nil, err
	}
	res, err := Scan(ctx, req)
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
