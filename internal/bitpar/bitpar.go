// Package bitpar implements the bit-parallel (SIMD-within-register) FabP
// kernel: the algorithm the paper's "highly optimized GPU implementation"
// uses, evaluating the two-LUT comparator for 64 alignment positions per
// machine word. The reference is held as two bit-planes (one per
// nucleotide-encoding bit); each query element compiles to a handful of
// bitwise operations plus a vertical-counter score accumulation. The fused
// kernel in batch.go is the one scan loop; Kernel is its K=1 view.
//
// It is bit-exact with core.Engine / the generated netlist (asserted in
// tests) and roughly an order of magnitude faster than the scalar engine,
// which both makes large experiments tractable and substantiates the GPU
// performance model's cells-per-second calibration.
package bitpar

import (
	"slices"
	"sync/atomic"

	"fabp/internal/backtrans"
	"fabp/internal/bio"
	"fabp/internal/isa"
)

// Hit mirrors core.Hit (bitpar stays independent of core so either can
// cross-check the other).
type Hit struct {
	Pos   int
	Score int
}

// planes is the bit-sliced reference: bit j of b0[w] is the low encoding
// bit of nucleotide 64w+j; b1 the high bit. One zero word of padding at
// each end keeps fetches branch-light.
type planes struct {
	b0, b1 []uint64
	n      int
}

// packPlanes converts a reference into bit-planes (bulk table-driven
// packing; see packSpan in planebuilder.go).
func packPlanes(ref bio.NucSeq) *planes {
	words := (len(ref) + 63) / 64
	p := &planes{
		b0: make([]uint64, words+2),
		b1: make([]uint64, words+2),
		n:  len(ref),
	}
	packSpan(p.b0, p.b1, 0, ref)
	return p
}

// fetch returns the 64 plane bits starting at element offset off (may be
// negative or beyond the end; out-of-range bits read 0 = A, matching the
// hardware's reset state).
func fetch(plane []uint64, off int) uint64 {
	// plane has one padding word at the front.
	off += 64
	w := off >> 6
	s := uint(off & 63)
	if w < 0 || w >= len(plane) {
		return 0
	}
	v := plane[w] >> s
	if s != 0 && w+1 < len(plane) {
		v |= plane[w+1] << (64 - s)
	}
	return v
}

// compiledElem is one query element's bit-parallel form: accept masks over
// the current nucleotide for both values of the dependent bit S, plus
// which plane supplies S.
type compiledElem struct {
	dep backtrans.DepSource
	// mask0/mask1: bit v set ⇔ the element matches nucleotide v when
	// S=0 / S=1. Equal masks mean no dependency.
	mask0, mask1 uint8
}

func compile(ins isa.Instruction) compiledElem {
	var c compiledElem
	elem, err := isa.Decode(ins)
	if err == nil && elem.Type == backtrans.TypeIII {
		c.dep = elem.Func.Dependency()
	}
	for v := bio.Nucleotide(0); v < 4; v++ {
		// Choose prev nucleotides that force S to each value through the
		// element's own dependency; for DepNone both probes coincide.
		if ins.Matches(v, prevFor(c.dep, 0), prevFor2(c.dep, 0)) {
			c.mask0 |= 1 << v
		}
		if ins.Matches(v, prevFor(c.dep, 1), prevFor2(c.dep, 1)) {
			c.mask1 |= 1 << v
		}
	}
	return c
}

// prevFor returns a prev1 nucleotide whose relevant bit equals s (A=00,
// G=10 toggle bit1; C=01 toggles bit0 — covered by prevFor2).
func prevFor(dep backtrans.DepSource, s uint8) bio.Nucleotide {
	if dep == backtrans.DepPrev1Hi && s == 1 {
		return bio.G
	}
	return bio.A
}

func prevFor2(dep backtrans.DepSource, s uint8) bio.Nucleotide {
	switch dep {
	case backtrans.DepPrev2Hi:
		if s == 1 {
			return bio.G
		}
	case backtrans.DepPrev2Lo:
		if s == 1 {
			return bio.C
		}
	}
	return bio.A
}

// Kernel is a compiled bit-parallel query: a thin K=1 view over the fused
// BatchKernel, whose scan loop it shares.
type Kernel struct {
	bk BatchKernel
}

// NewKernel compiles an encoded query for the given hit threshold.
func NewKernel(prog isa.Program, threshold int) (*Kernel, error) {
	if err := validate(prog, threshold); err != nil {
		return nil, err
	}
	return &Kernel{bk: *newBatchKernel([]batchQuery{compileQuery(prog).withThreshold(threshold)})}, nil
}

// Batch returns the kernel as the one-query batch it is, for callers
// that drive K = 1 and fused scans through one code path.
func (k *Kernel) Batch() *BatchKernel { return &k.bk }

// QueryElems returns the compiled query length.
func (k *Kernel) QueryElems() int { return k.bk.QueryElems(0) }

// Threshold returns the configured hit threshold.
func (k *Kernel) Threshold() int { return k.bk.Threshold(0) }

// Planes is a reference packed into bit-planes, reusable across many
// kernels — the batch workload packs the database once and scans it with
// every query.
type Planes struct {
	p *planes
}

// packsTotal counts PackReference calls process-wide; warm-start tests
// assert it stays flat across a load-and-scan of a plane-carrying file.
var packsTotal atomic.Uint64

// PackReference packs a reference for repeated AlignPlanes calls.
func PackReference(ref bio.NucSeq) *Planes {
	packsTotal.Add(1)
	return &Planes{p: packPlanes(ref)}
}

// PackCount returns the cumulative PackReference calls this process has
// made — the "did we recompute?" probe of the warm-start contract.
func PackCount() uint64 { return packsTotal.Load() }

// Len returns the packed reference length in nucleotides.
func (pp *Planes) Len() int { return pp.p.n }

// SizeBytes returns the packed footprint (both bit-planes, including
// their padding words) — what a resident cache entry costs.
func (pp *Planes) SizeBytes() int64 {
	return int64(len(pp.p.b0)+len(pp.p.b1)) * 8
}

// AppendLetters appends the packed nucleotides [lo, hi) to dst and returns
// it — the letter view through which the scalar engine reads one shard of
// a packed target.
func (pp *Planes) AppendLetters(dst bio.NucSeq, lo, hi int) bio.NucSeq {
	p := pp.p
	dst = slices.Grow(dst, hi-lo)
	for j := lo; j < hi; j++ {
		w, s := 1+j>>6, uint(j&63)
		dst = append(dst, bio.Nucleotide(p.b0[w]>>s&1|(p.b1[w]>>s&1)<<1))
	}
	return dst
}

// AlignPlanes scans a pre-packed reference (see PackReference).
func (k *Kernel) AlignPlanes(pp *Planes) []Hit {
	return k.AlignPlanesRange(pp, 0, k.bk.Starts(pp.Len()))
}

// AlignPlanesRange scans only the windows starting in [lo, hi) of a
// pre-packed reference — the shard primitive: a scheduler tiles the window
// starts, every shard reads the shared planes (including the Lq−1 overlap
// past its end and the dependent-bit context before its start), and
// per-shard hit lists concatenate into exactly AlignPlanes' output.
func (k *Kernel) AlignPlanesRange(pp *Planes, lo, hi int) []Hit {
	var dst [1][]Hit
	k.bk.AlignPlanesRange(pp, lo, hi, dst[:])
	return dst[0]
}

// Align scans the reference and returns every window position whose score
// reaches the threshold, in position order. It runs on the calling
// goroutine; callers parallelize by sharding AlignPlanesRange.
func (k *Kernel) Align(ref bio.NucSeq) []Hit {
	return k.AlignPlanes(&Planes{p: packPlanes(ref)})
}

// BestHit returns the highest-scoring window position (ties broken by
// lower position) regardless of the configured threshold, or ok=false
// when the reference is shorter than the query — the bit-parallel
// counterpart of core.Engine.BestHit: a budget-L fused scan (no lane ever
// dies) with a best-lane reduction over the same counters.
func (k *Kernel) BestHit(ref bio.NucSeq) (Hit, bool) {
	return k.BestHitPlanes(&Planes{p: packPlanes(ref)})
}

// BestHitPlanes is BestHit over a pre-packed reference (see
// PackReference), so session-resident databases find their best
// sub-threshold position without repacking.
func (k *Kernel) BestHitPlanes(pp *Planes) (Hit, bool) {
	return newBatchKernel([]batchQuery{k.bk.queries[0].withThreshold(0)}).bestPlanes(pp.p)
}

// laneScore extracts lane j's count from the vertical counters.
func laneScore(counters []uint64, j int) int {
	score := 0
	for b := range counters {
		score |= int(counters[b]>>uint(j)&1) << uint(b)
	}
	return score
}

// geThresh returns a bitmask of lanes whose vertical counter is >= the
// threshold, using the same LSB-first comparison as the hardware's
// CompareGEConst.
func geThresh(counters []uint64, threshold int) uint64 {
	if threshold == 0 {
		return ^uint64(0)
	}
	ge := ^uint64(0)
	for b := range counters {
		if threshold>>uint(b)&1 == 1 {
			ge = counters[b] & ge
		} else {
			ge = counters[b] | ge
		}
	}
	return ge
}

func lowMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}
