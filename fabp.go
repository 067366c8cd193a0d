// Package fabp is a Go reproduction of "FPGA Acceleration of Protein
// Back-Translation and Alignment" (Salamat et al., DATE 2021).
//
// FabP aligns a protein query against a nucleotide database by
// back-translating the query into a degenerate RNA representation (every
// codon that could have produced each amino acid), encoding each element as
// a 6-bit instruction, and scoring every reference position with a
// substitution-only sliding comparison — the computation the paper's FPGA
// accelerator performs with two LUTs per element and a hand-crafted
// pop-counter per alignment instance.
//
// The package offers four layers:
//
//   - Query/Reference/Aligner: a fast, bit-exact software implementation of
//     the accelerator for real alignments (NewQuery, NewAligner, Align).
//   - Hardware generation: GenerateVerilog emits the accelerator datapath
//     as structural Verilog (LUT6/FDRE primitives), and SizeOnDevice
//     projects resource utilization, timing and energy for the modeled
//     FPGAs (the paper's Kintex-7 and larger parts).
//   - Baselines: TBLASTN-style heuristic search and Smith-Waterman local
//     alignment, the comparison points of the paper's evaluation.
//   - Experiments: RunExperiment regenerates every table and figure of the
//     paper (see ExperimentNames).
//
// See the examples directory for end-to-end usage.
package fabp

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"fabp/internal/backtrans"
	"fabp/internal/bio"
	"fabp/internal/bitpar"
	"fabp/internal/core"
	"fabp/internal/db"
	"fabp/internal/experiments"
	"fabp/internal/isa"
	"fabp/internal/sched"
)

// Hit is one alignment position whose score reached the threshold.
type Hit struct {
	// Pos is the nucleotide offset in the reference where the query
	// window starts.
	Pos int
	// Score is the number of matching back-translated elements; the
	// maximum is 3 × the query's residue count.
	Score int
}

// Query is a protein query prepared for alignment: back-translated into
// degenerate elements and encoded into the 6-bit FabP instruction set.
type Query struct {
	protein bio.ProtSeq
	program isa.Program
	// digest is the SHA-256 of the packed instruction program — the
	// query's contribution to the scan-result cache key (see scan.go).
	digest [sha256.Size]byte
}

// NewQuery parses a one-letter-code protein string (e.g. "MKWVTF"; '*'
// allowed for stop) and prepares it for alignment. Unusable input
// matches ErrBadQuery via errors.Is.
func NewQuery(protein string) (*Query, error) {
	p, err := bio.ParseProtSeq(protein)
	if err != nil {
		return nil, badQuery(err)
	}
	if len(p) == 0 {
		return nil, badQueryf("fabp: empty query")
	}
	prog, err := isa.EncodeProtein(p)
	if err != nil {
		return nil, badQuery(err)
	}
	return &Query{protein: p, program: prog, digest: sha256.Sum256(prog.Pack())}, nil
}

// Residues returns the query length in amino acids.
func (q *Query) Residues() int { return len(q.protein) }

// Elements returns the encoded length in back-translated elements (3 ×
// Residues).
func (q *Query) Elements() int { return len(q.program) }

// MaxScore returns the highest achievable alignment score.
func (q *Query) MaxScore() int { return len(q.program) }

// Protein returns the query in one-letter codes.
func (q *Query) Protein() string { return q.protein.String() }

// Degenerate renders the back-translated query in the paper's notation,
// e.g. "AUG-UU(U/C)-UCD".
func (q *Query) Degenerate() string {
	return backtrans.Render(backtrans.BackTranslate(q.protein))
}

// Disassemble lists the encoded 6-bit instructions with their semantics.
func (q *Query) Disassemble() string { return q.program.Disassemble() }

// Instructions returns the encoded program as raw 6-bit values (one per
// byte), the host-to-FPGA transfer format.
func (q *Query) Instructions() []byte { return q.program.Pack() }

// SuggestThreshold computes the smallest hit threshold whose expected
// chance-hit count over a refLen-nucleotide scan stays at or below
// maxExpectedFP, from the exact null score distribution. It fills the gap
// the paper leaves at its "user-defined threshold".
func (q *Query) SuggestThreshold(refLen int, maxExpectedFP float64) (int, error) {
	probe, err := core.NewEngine(q.program, 0)
	if err != nil {
		return 0, err
	}
	return probe.SuggestThreshold(refLen, maxExpectedFP)
}

// NullMeanScore returns the expected score of a random window — the
// background level thresholds must clear.
func (q *Query) NullMeanScore() float64 {
	probe, err := core.NewEngine(q.program, 0)
	if err != nil {
		return 0
	}
	return probe.MeanScore()
}

// Reference is a nucleotide database sequence (DNA or RNA; T and U are
// equivalent). It is a view of a database: the 2-bit payload, content
// digest and bit-planes its scans read are the database's, and its scans
// return position hits instead of record-attributed ones.
type Reference struct {
	d *db.Database
}

// newReference wraps letters as a one-record database.
func newReference(seq bio.NucSeq) *Reference {
	return &Reference{d: db.FromPacked("", bio.Pack(seq))}
}

// NewReference parses a nucleotide string.
func NewReference(seq string) (*Reference, error) {
	s, err := bio.ParseNucSeq(seq)
	if err != nil {
		return nil, err
	}
	return newReference(s), nil
}

// NewReferenceIUPAC parses a nucleotide string that may contain IUPAC
// ambiguity codes (N, R, Y, ...), as downloaded NCBI data does. Ambiguous
// positions resolve deterministically to a member of their set; the count
// of resolved positions is returned so callers can reject low-quality
// input.
func NewReferenceIUPAC(seq string) (*Reference, int, error) {
	s, ambiguous, err := bio.ParseNucSeqIUPAC(seq)
	if err != nil {
		return nil, 0, err
	}
	return newReference(s), ambiguous, nil
}

// ReadReferenceFasta concatenates every record of a FASTA stream into one
// reference and returns it along with the per-record offsets (record i
// starts at offsets[i]).
func ReadReferenceFasta(r io.Reader) (*Reference, []int, error) {
	fr := bio.NewFastaReader(r)
	recs, err := fr.ReadAll()
	if err != nil {
		return nil, nil, err
	}
	if len(recs) == 0 {
		return nil, nil, fmt.Errorf("fabp: FASTA stream holds no records")
	}
	var seq bio.NucSeq
	offsets := make([]int, len(recs))
	for i, rec := range recs {
		offsets[i] = len(seq)
		s, err := rec.Nuc()
		if err != nil {
			return nil, nil, fmt.Errorf("fabp: record %s: %w", rec.ID, err)
		}
		seq = append(seq, s...)
	}
	return newReference(seq), offsets, nil
}

// Len returns the reference length in nucleotides.
func (r *Reference) Len() int { return r.d.Len() }

// String renders the reference as RNA letters (use with care on large
// references).
func (r *Reference) String() string { return r.d.Seq().String() }

// Kernel selects an alignment implementation. All kernels are bit-exact
// with each other and with the generated netlist; they differ only in
// speed and memory traffic.
type Kernel int

const (
	// KernelAuto runs the bit-parallel kernel on every target, whatever
	// its length. The default.
	KernelAuto Kernel = iota
	// KernelScalar always runs the scalar table-lookup engine.
	KernelScalar
	// KernelBitParallel always runs the SIMD-within-register kernel (the
	// algorithm of the paper's GPU implementation).
	KernelBitParallel
)

// String renders the kernel in the stringly form ParseKernel accepts.
func (k Kernel) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case KernelScalar:
		return "scalar"
	case KernelBitParallel:
		return "bitparallel"
	}
	return fmt.Sprintf("Kernel(%d)", int(k))
}

// ParseKernel converts the stringly kernel name ("auto", "scalar",
// "bitparallel") to the typed enum — the bridge from flags and config
// files to WithKernelType. An unknown name matches ErrBadOption.
func ParseKernel(s string) (Kernel, error) {
	switch s {
	case "auto":
		return KernelAuto, nil
	case "scalar":
		return KernelScalar, nil
	case "bitparallel":
		return KernelBitParallel, nil
	}
	return 0, badOptionf("fabp: unknown kernel %q (auto, scalar, bitparallel)", s)
}

// Aligner runs the FabP alignment on a prepared query. It is the bit-exact
// software model of the accelerator (proven equivalent to the generated
// netlist in the test suite) and safe for concurrent use once built.
type Aligner struct {
	query *Query
	// kernel is the compiled fused bit-parallel query. The scalar engine
	// (a 64-byte truth table per element) is built on first scalar use —
	// most aligners never take that path.
	kernel     *bitpar.Kernel
	engineOnce sync.Once
	eng        *core.Engine
	mode       Kernel
	// pool executes database-scan shards; shared process-wide unless
	// WithParallelism built a private one.
	pool *sched.Pool
	// shardLen is the shard size in window starts (0 = sched default).
	shardLen int
	// metrics is where this aligner reports (DefaultMetrics unless
	// WithTelemetry supplied a private collector); tm holds the resolved
	// per-metric handles the scan paths write through.
	metrics *Metrics
	tm      alignerMetrics
	// retryPolicy bounds automatic re-execution of failed/straggling
	// shards (zero = single attempt); partial opts database scans into
	// degraded completion with a *PartialError. See resilience.go.
	retryPolicy RetryPolicy
	partial     bool
}

// AlignerOption customizes NewAligner.
type AlignerOption func(*alignerConfig)

type alignerConfig struct {
	threshold   int
	thresholdOK bool
	fraction    float64
	parallelism int
	kernel      Kernel
	shardLen    int
	metrics     *Metrics
	retryPolicy RetryPolicy
	partial     bool
	err         error
}

// WithThreshold sets the absolute hit threshold (0..MaxScore).
func WithThreshold(t int) AlignerOption {
	return func(c *alignerConfig) { c.threshold = t; c.thresholdOK = true }
}

// WithThresholdFraction sets the threshold as a fraction of MaxScore; the
// paper's experiments use 0.8-0.9. The fraction must lie in (0, 1] and the
// resulting threshold rounds to the nearest score (so 0.9 of a 10-element
// query is 9, not the truncated 8.999… → 8).
func WithThresholdFraction(f float64) AlignerOption {
	return func(c *alignerConfig) {
		if err := checkFraction(f); err != nil {
			c.err = err
			return
		}
		c.thresholdOK = false
		c.fraction = f
	}
}

// checkFraction is the threshold-fraction contract of the option,
// AlignDatabaseBatchContext and Session: f in (0, 1], with no default.
func checkFraction(f float64) error {
	if f <= 0 || f > 1 || f != f {
		return badOptionf("fabp: threshold fraction %v outside (0,1]", f)
	}
	return nil
}

// WithParallelism bounds the worker goroutines of the aligner's shard
// pool — the only source of parallelism for either kernel. Zero is the
// documented default (GOMAXPROCS on the shared process-wide pool);
// negative values are an error.
func WithParallelism(p int) AlignerOption {
	return func(c *alignerConfig) {
		if p < 0 {
			c.err = badOptionf("fabp: negative parallelism %d (0 = all cores)", p)
			return
		}
		c.parallelism = p
	}
}

// WithTelemetry directs the aligner's metrics to a private collector
// (see NewMetrics) instead of the process-wide DefaultMetrics. The shared
// shard pool remains a process-wide reporter; an aligner that also sets
// WithParallelism gets a private pool whose pool.* metrics follow the
// private collector.
func WithTelemetry(m *Metrics) AlignerOption {
	return func(c *alignerConfig) {
		if m == nil {
			c.err = badOptionf("fabp: nil Metrics (use NewMetrics or DefaultMetrics)")
			return
		}
		c.metrics = m
	}
}

// WithShardLen overrides the shard size, in window starts, used by
// database scans (0 = the scheduler default; rounded up to the 64-position
// block granularity).
func WithShardLen(n int) AlignerOption {
	return func(c *alignerConfig) {
		if n < 0 {
			c.err = badOptionf("fabp: negative shard length %d", n)
			return
		}
		c.shardLen = n
	}
}

// WithKernelType selects the alignment implementation by typed enum:
// KernelAuto (default), KernelScalar or KernelBitParallel. Out-of-range
// values are an error at NewAligner.
func WithKernelType(k Kernel) AlignerOption {
	return func(c *alignerConfig) {
		switch k {
		case KernelAuto, KernelScalar, KernelBitParallel:
			c.kernel = k
		default:
			c.err = badOptionf("fabp: unknown kernel %v", k)
		}
	}
}

// NewAligner builds an aligner for the query. Without options the
// threshold defaults to 80 % of the maximum score and telemetry reports
// to DefaultMetrics.
func NewAligner(q *Query, opts ...AlignerOption) (*Aligner, error) {
	cfg := alignerConfig{fraction: 0.8, kernel: KernelAuto, metrics: DefaultMetrics()}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.err != nil {
		return nil, cfg.err
	}
	threshold := cfg.threshold
	if !cfg.thresholdOK {
		t, err := core.ThresholdFromFraction(cfg.fraction, q.MaxScore())
		if err != nil {
			return nil, badOption(err)
		}
		threshold = t
	}
	kernel, err := bitpar.NewKernel(q.program, threshold)
	if err != nil {
		return nil, badOption(err)
	}
	pool := sched.Shared()
	if cfg.parallelism > 0 {
		pool = sched.NewPool(cfg.parallelism)
		pool.SetMetrics(cfg.metrics.reg)
	}
	return &Aligner{
		query: q, kernel: kernel, mode: cfg.kernel,
		pool: pool, shardLen: cfg.shardLen,
		metrics: cfg.metrics, tm: newAlignerMetrics(cfg.metrics.reg),
		retryPolicy: cfg.retryPolicy, partial: cfg.partial,
	}, nil
}

// engine returns the scalar engine, building it on first use.
func (a *Aligner) engine() *core.Engine {
	a.engineOnce.Do(func() {
		// NewKernel already validated the program and threshold.
		a.eng, _ = core.NewEngine(a.query.program, a.kernel.Threshold())
	})
	return a.eng
}

// Metrics returns the collector this aligner reports to (DefaultMetrics
// unless WithTelemetry supplied a private one).
func (a *Aligner) Metrics() *Metrics { return a.metrics }

// useBitpar reports whether scans run the bit-parallel kernel: always,
// unless the aligner was built with an explicit KernelScalar.
func (a *Aligner) useBitpar() bool { return a.mode != KernelScalar }

// Kernel returns the configured kernel selection.
func (a *Aligner) Kernel() Kernel { return a.mode }

// Threshold returns the configured hit threshold.
func (a *Aligner) Threshold() int { return a.kernel.Threshold() }

// Align scans the reference and returns every hit in position order. It
// is AlignContext under context.Background(), which never cancels: its
// only error is a shard that fault injection (package
// internal/faultinject) fails past the retry policy, and then Align
// returns no hits (or, under WithPartialResults, the surviving ones).
func (a *Aligner) Align(ref *Reference) []Hit {
	hits, _ := a.AlignContext(context.Background(), ref)
	return hits
}

// AlignContext scans the reference under a context and returns every hit
// in position order. Cancellation and deadlines are honored at shard
// boundaries (checkpoints between shards, running shards finish), so the
// call returns ctx.Err() within one shard of the cancel and records the
// abort on align.canceled / align.deadline.exceeded.
//
// The call takes Scan's path: when the scan-result cache is enabled
// (SetScanCacheCapacity), repeats are answered from memory and concurrent
// identical scans collapse into one.
func (a *Aligner) AlignContext(ctx context.Context, ref *Reference) ([]Hit, error) {
	res, _, err := a.plan(ScanRequest{Reference: ref}).run(ctx)
	if res == nil {
		return nil, err
	}
	return res.Hits, err
}

// AlignStream scans a nucleotide stream of arbitrary size (raw letters,
// whitespace tolerated) in bounded memory, carrying windows across chunk
// boundaries, and delivers hits to emit in position order. Return an error
// from emit to stop early.
//
// Every kernel takes the same chunked path: each chunk is packed into
// bit-planes once and scanned on the shard executor every in-memory scan
// uses — the scalar engine reading the chunk's letters back from its
// planes — so under WithRetryPolicy a chunk's reads and shards retry like
// any other scan's. All modes produce identical hits.
func (a *Aligner) AlignStream(r io.Reader, emit func(Hit) error) error {
	return a.AlignStreamContext(context.Background(), r, emit)
}

// AlignStreamContext is AlignStream with cooperative cancellation: the
// context is checked before every chunk read, so a slow or unbounded
// reader cannot pin the scan past its deadline — the call returns
// ctx.Err() at the next chunk boundary (a Read already blocked in the
// reader is not interrupted; wrap the reader if its source needs
// unblocking). Aborts are recorded on align.canceled /
// align.deadline.exceeded. It is this aligner's Scan of
// ScanRequest{Stream, Emit}.
func (a *Aligner) AlignStreamContext(ctx context.Context, r io.Reader, emit func(Hit) error) error {
	req := ScanRequest{Stream: r, Emit: func(_ int, h Hit) error { return emit(h) }}
	_, _, err := a.plan(req).run(ctx)
	return err
}

// EValueOf returns the expected number of random windows reaching score in
// a refLen-nucleotide scan, from the exact null score distribution — the
// significance annotation for a reported hit.
func (a *Aligner) EValueOf(score, refLen int) float64 {
	return a.engine().EValue(score, refLen)
}

// Best returns the single highest-scoring position regardless of the
// threshold (ok=false when the reference is shorter than the query). It
// dispatches through the same kernel rule as Align — the scalar engine
// only under WithKernelType(KernelScalar), the bit-parallel best-hit scan
// over the reference's planes otherwise — and is instrumented
// like every other scan (align.queries.started, align.latency, kernel
// counters).
func (a *Aligner) Best(ref *Reference) (Hit, bool) {
	a.tm.queries.Inc()
	t0 := time.Now()
	defer func() { observeSince(a.tm.alignLatency, t0) }()
	a.tm.kernelChosen(a.useBitpar())
	if a.useBitpar() {
		h, ok := a.kernel.BestHitPlanes(planesOf(ref.d))
		return Hit{Pos: h.Pos, Score: h.Score}, ok
	}
	h, ok := a.engine().BestHit(ref.d.Seq())
	return Hit{Pos: h.Pos, Score: h.Score}, ok
}

// ScoreAt returns the alignment score at one reference position,
// instrumented like a (single-window) scan.
func (a *Aligner) ScoreAt(ref *Reference, pos int) (int, error) {
	if pos < 0 || pos+a.query.Elements() > ref.Len() {
		return 0, fmt.Errorf("fabp: position %d out of range for window of %d elements", pos, a.query.Elements())
	}
	a.tm.queries.Inc()
	t0 := time.Now()
	// The window and the two letters of comparison context before it.
	from := max(pos-2, 0)
	score := a.engine().Score(ref.d.Packed().Slice(from, pos+a.query.Elements()), pos-from)
	observeSince(a.tm.alignLatency, t0)
	return score, nil
}

// ExperimentNames lists the reproducible tables/figures for RunExperiment.
func ExperimentNames() []string { return experiments.Names() }

// RunExperiment regenerates one of the paper's tables or figures (see
// ExperimentNames: "fig6a", "fig6b", "table1", "accuracy", ...) and
// returns it rendered as text.
func RunExperiment(name string) (string, error) {
	t, err := experiments.Run(name)
	if err != nil {
		return "", err
	}
	return t.Render(), nil
}

// RunAllExperiments renders every registered experiment, separated by
// blank lines, in name order.
func RunAllExperiments() (string, error) {
	var b strings.Builder
	for _, name := range ExperimentNames() {
		t, err := experiments.Run(name)
		if err != nil {
			return "", fmt.Errorf("fabp: experiment %s: %w", name, err)
		}
		b.WriteString(t.Render())
		b.WriteByte('\n')
	}
	return b.String(), nil
}
