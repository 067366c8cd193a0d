// batch.go implements the fused kernel, the package's one scan loop: K
// compiled queries scan one reference in a single pass over the
// bit-planes (K = 1 for a single-query Kernel). The paper's architecture
// is bandwidth-bound — the reference streams past a resident query — so
// K separate plane traversals are the hot-path waste. The fused kernel
// stages each plane word pair (c0, c1) once per 64-lane block, lazily and
// only as far as a query with live lanes needs it, and runs every query
// over the staged block, turning K passes of memory traffic into one (the
// amortization streaming FPGA aligners get from batching queries against
// a tile-resident reference).
package bitpar

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"fabp/internal/backtrans"
	"fabp/internal/isa"
)

// stageChunk is the lazy-staging granularity in elements: a query that
// reaches element i of a block first stages the plane words up to the end
// of i's 32-element chunk (unless a batch-mate already did).
const stageChunk = 32

// batchQuery is one query's compiled state inside a BatchKernel.
//
// The fused kernel scores by *mismatch budget* rather than full-width
// score counting: a lane is a hit iff its mismatch count stays within
// budget = len(elems) − threshold, so the vertical counters only need to
// count to the budget (ctrW bits) instead of to the full score. That
// narrows the carry chain enough to keep every counter plane in a
// register, and a lane whose counter overflows is dead for good (the
// sticky plane) — once all 64 lanes of a block are dead the query's
// remaining elements are skipped, and their plane words are never staged.
// Surviving lanes' scores stay exact: score = len(elems) − mismatches.
type batchQuery struct {
	elems []fusedElem
	// deps holds the S=1 mux masks of the elements with a dependent bit,
	// indexed by fusedElem.alt; most elements have none.
	deps      []muxMasks
	threshold int
	// budget is the mismatch allowance: len(elems) − threshold.
	budget int
	// ctrW is the counter width in bit-planes: the smallest width whose
	// capacity 2^ctrW exceeds the budget (0 for exact-match queries, whose
	// sticky plane alone decides).
	ctrW int
	// satAll marks budget+1 == 2^ctrW: within-width counts can never
	// exceed the budget, so hit extraction reduces to ^sticky.
	satAll bool
	// ctrOff is the query's offset into the flat vertical-counter scratch.
	ctrOff int
}

// muxMasks is a 4-bit accept truth table pre-expanded into all-ones/zero
// word masks arranged as a two-level mux over the plane words, so a match
// plane is
//
//	lo = a ^ (w0 & ac)        // w0 ? c : a   (ac = a^c)
//	hi = g ^ (w0 & gu)        // w0 ? u : g   (gu = g^u)
//	m  = lo ^ (w1 & (lo^hi))  // w1 ? hi : lo
//
// — seven branchless ops over the block's staged words.
type muxMasks struct {
	a, ac, g, gu uint64
}

// fusedElem is one query element in fused mux form: the S=0 accept
// function inline and, for a dependent element, the index of its S=1
// function in batchQuery.deps (40 bytes instead of carrying both sets).
type fusedElem struct {
	muxMasks
	dep backtrans.DepSource
	alt uint32
}

// expandMux turns a 4-bit accept truth table into the mux-form word masks.
func expandMux(mask uint8) muxMasks {
	a := -uint64(mask & 1)
	c := -uint64(mask >> 1 & 1)
	g := -uint64(mask >> 2 & 1)
	u := -uint64(mask >> 3 & 1)
	return muxMasks{a: a, ac: a ^ c, g: g, gu: g ^ u}
}

// match evaluates the mux form over one staged word pair.
func (m *muxMasks) match(w0, w1 uint64) uint64 {
	lo := m.a ^ (w0 & m.ac)
	hi := m.g ^ (w0 & m.gu)
	return lo ^ (w1 & (lo ^ hi))
}

// BatchKernel is a set of compiled queries that scan a reference together,
// one plane pass per tile for the whole batch.
type BatchKernel struct {
	queries  []batchQuery
	maxElems int
	minElems int
	// ctrWords is the flat counter scratch size: sum of every query's ctrW.
	ctrWords int
}

// batchScratch is one scan call's reusable state, pooled process-wide and
// sized for the kernel on Get. w0s/w1s hold the block's staged plane
// words, offset by two so steps −2 and −1 (the dependent-bit context
// before the block) sit at indexes 0 and 1; staged counts the elements
// staged so far for the block at p0.
type batchScratch struct {
	p        *planes
	p0       int
	staged   int
	w0s, w1s []uint64
	counters []uint64
	// sticky[qi] marks lanes whose mismatch counter overflowed — dead for
	// the rest of the block.
	sticky []uint64
	// words backs w0s, w1s, counters and sticky: one allocation per size.
	words []uint64
	hits  [][]Hit
}

var scratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// Scratch is kernel scan state one caller keeps across a sequence of scans
// — a stream's inline chunk scans — instead of taking it from the
// process-wide pool on every call, so the sequence allocates nothing once
// the scratch has grown. The zero value is ready to use; a Scratch serves
// one scan at a time.
type Scratch struct{ s batchScratch }

// size fits s to bk for a scan of p. Every hits[qi] comes back empty
// (alignPlanesRange drains them before returning).
func (bk *BatchKernel) size(s *batchScratch, p *planes) {
	s.p = p
	m, k := bk.maxElems+2, len(bk.queries)
	n := 2*m + bk.ctrWords + k
	s.words = slices.Grow(s.words[:0], n)[:n]
	s.w0s, s.w1s = s.words[:m:m], s.words[m:2*m:2*m]
	s.counters, s.sticky = s.words[2*m:n-k:n-k], s.words[n-k:]
	s.hits = slices.Grow(s.hits[:0], k)[:k]
}

// validate checks one program/threshold pair.
func validate(prog isa.Program, threshold int) error {
	if len(prog) == 0 {
		return fmt.Errorf("bitpar: empty program")
	}
	if threshold < 0 || threshold > len(prog) {
		return fmt.Errorf("bitpar: threshold %d outside [0,%d]", threshold, len(prog))
	}
	return nil
}

// compileQuery compiles a validated program into fused elements.
func compileQuery(prog isa.Program) batchQuery {
	q := batchQuery{elems: make([]fusedElem, len(prog))}
	for j, ins := range prog {
		c := compile(ins)
		f := &q.elems[j]
		f.muxMasks = expandMux(c.mask0)
		if c.mask0 != c.mask1 {
			f.dep = c.dep
			f.alt = uint32(len(q.deps))
			q.deps = append(q.deps, expandMux(c.mask1))
		}
	}
	return q
}

// withThreshold sets the query's threshold and the budget counters it
// implies.
func (q batchQuery) withThreshold(threshold int) batchQuery {
	q.threshold = threshold
	q.budget = len(q.elems) - threshold
	q.ctrW = bits.Len(uint(q.budget))
	q.satAll = q.budget+1 == 1<<q.ctrW
	return q
}

// newBatchKernel lays out compiled queries: counter offsets and the
// longest/shortest query lengths.
func newBatchKernel(queries []batchQuery) *BatchKernel {
	bk := &BatchKernel{queries: queries}
	for i := range bk.queries {
		q := &bk.queries[i]
		q.ctrOff = bk.ctrWords
		bk.ctrWords += q.ctrW
		bk.maxElems = max(bk.maxElems, len(q.elems))
		if bk.minElems == 0 || len(q.elems) < bk.minElems {
			bk.minElems = len(q.elems)
		}
	}
	return bk
}

// NewBatchKernel compiles every program for its threshold. Thresholds are
// absolute per-query scores, validated like NewKernel's.
func NewBatchKernel(progs []isa.Program, thresholds []int) (*BatchKernel, error) {
	if len(progs) == 0 {
		return nil, fmt.Errorf("bitpar: empty batch")
	}
	if len(progs) != len(thresholds) {
		return nil, fmt.Errorf("bitpar: %d programs but %d thresholds", len(progs), len(thresholds))
	}
	queries := make([]batchQuery, len(progs))
	for i := range progs {
		if err := validate(progs[i], thresholds[i]); err != nil {
			return nil, fmt.Errorf("bitpar: batch query %d: %w", i, err)
		}
		queries[i] = compileQuery(progs[i]).withThreshold(thresholds[i])
	}
	return newBatchKernel(queries), nil
}

// NumQueries returns the batch width K.
func (bk *BatchKernel) NumQueries() int { return len(bk.queries) }

// MaxElems returns the longest query's element count — the overlap the
// shard carry must respect (every shard reads MaxElems−1 elements past its
// end so the longest query's windows complete).
func (bk *BatchKernel) MaxElems() int { return bk.maxElems }

// MinElems returns the shortest query's element count.
func (bk *BatchKernel) MinElems() int { return bk.minElems }

// QueryElems returns query qi's compiled length.
func (bk *BatchKernel) QueryElems(qi int) int { return len(bk.queries[qi].elems) }

// Threshold returns query qi's absolute hit threshold.
func (bk *BatchKernel) Threshold(qi int) int { return bk.queries[qi].threshold }

// Starts returns the batch scan range for a reference of refLen elements:
// the union of every query's valid window starts, [0, refLen−MinElems].
// Shorter queries have more valid starts, so the range follows the
// shortest; per-query validity is enforced lane by lane during the scan.
func (bk *BatchKernel) Starts(refLen int) int {
	return refLen - bk.minElems + 1
}

// AlignPlanes scans the whole packed reference once for every query and
// returns per-query hit lists in position order.
func (bk *BatchKernel) AlignPlanes(pp *Planes) [][]Hit {
	return bk.AlignPlanesRange(pp, 0, bk.Starts(pp.Len()), nil)
}

// AlignPlanesRange scans window starts [lo, hi) of a pre-packed reference
// once for the whole batch — the fused shard primitive. Each query's hits
// land in dst[qi] (appended; pass nil to allocate), clamped to that
// query's own valid starts, in position order. Per-shard hit lists
// concatenate into exactly AlignPlanes' output, so a scheduler can tile
// [0, Starts) and merge stream-wise.
func (bk *BatchKernel) AlignPlanesRange(pp *Planes, lo, hi int, dst [][]Hit) [][]Hit {
	s := scratchPool.Get().(*batchScratch)
	dst = bk.alignPlanesRange(pp, lo, hi, dst, s)
	scratchPool.Put(s)
	return dst
}

// AlignPlanesRangeScratch is AlignPlanesRange on caller-owned scratch (see
// Scratch), for a caller that scans many ranges in sequence.
func (bk *BatchKernel) AlignPlanesRangeScratch(pp *Planes, lo, hi int, dst [][]Hit, sc *Scratch) [][]Hit {
	return bk.alignPlanesRange(pp, lo, hi, dst, &sc.s)
}

// alignPlanesRange is AlignPlanesRange on the given scratch.
func (bk *BatchKernel) alignPlanesRange(pp *Planes, lo, hi int, dst [][]Hit, s *batchScratch) [][]Hit {
	if dst == nil {
		dst = make([][]Hit, len(bk.queries))
	}
	p := pp.p
	hi = min(hi, bk.Starts(p.n))
	lo = max(lo, 0)
	if lo >= hi {
		return dst
	}
	bk.size(s, p)
	// Blocks are 64-position aligned: scan from the aligned start and mask
	// the lanes below lo.
	for p0 := lo &^ 63; p0 < hi; p0 += 64 {
		bk.scanBlock(p0, hi, s)
		bk.extractBlock(p0, lo, hi, s)
	}
	for qi := range bk.queries {
		if len(s.hits[qi]) > 0 {
			dst[qi] = append(dst[qi], s.hits[qi]...)
			s.hits[qi] = s.hits[qi][:0]
		}
	}
	s.p = nil
	return dst
}

// queryStarts is query q's valid window-start limit within a scan range
// ending at hi.
func (s *batchScratch) queryStarts(q *batchQuery, hi int) int {
	return min(hi, s.p.n-len(q.elems)+1)
}

// scanBlock runs every query over the 64-lane block at p0 with its
// mismatch counter planes held in registers (specialized by counter
// width), so the carry-save walk never touches memory; a query whose 64
// lanes all overflow their budget stops early. Plane words are staged on
// demand (see stage): each is fetched at most once per block and shared
// by every query, and the dependent-bit selectors come for free (the word
// at step i−1/i−2 is just an earlier staged entry).
func (bk *BatchKernel) scanBlock(p0, hi int, s *batchScratch) {
	s.p0, s.staged = p0, 0
	s.w0s[0], s.w1s[0] = fetch(s.p.b0, p0-2), fetch(s.p.b1, p0-2)
	s.w0s[1], s.w1s[1] = fetch(s.p.b0, p0-1), fetch(s.p.b1, p0-1)
	for qi := range bk.queries {
		q := &bk.queries[qi]
		// A block lying wholly past a query's last valid start (or past
		// the scan range) contributes nothing to it: skip it (extractBlock
		// applies the same clamp, so the stale scratch is never read).
		if p0 >= s.queryStarts(q, hi) {
			continue
		}
		ctr := s.counters[q.ctrOff:]
		switch q.ctrW {
		case 0:
			s.sticky[qi] = scanQ0(q, s)
		case 1:
			ctr[0], s.sticky[qi] = scanQ1(q, s)
		case 2:
			ctr[0], ctr[1], s.sticky[qi] = scanQ2(q, s)
		case 3:
			ctr[0], ctr[1], ctr[2], s.sticky[qi] = scanQ3(q, s)
		case 4:
			ctr[0], ctr[1], ctr[2], ctr[3], s.sticky[qi] = scanQ4(q, s)
		case 5:
			ctr[0], ctr[1], ctr[2], ctr[3], ctr[4], s.sticky[qi] = scanQ5(q, s)
		case 6:
			ctr[0], ctr[1], ctr[2], ctr[3], ctr[4], ctr[5], s.sticky[qi] = scanQ6(q, s)
		default:
			s.sticky[qi] = scanQGen(q, s, ctr[:q.ctrW])
		}
	}
}

// stage extends the block's staged plane words to cover elements
// [0, n). Only the block's live queries call it, so words past the point
// where every query's lanes died are never fetched. Every staged window
// lies inside the planes: a scanned query's lane 0 is a valid start, so
// p0+n−1 < len(reference).
func (s *batchScratch) stage(n int) {
	b0, b1 := s.p.b0, s.p.b1
	for i := s.staged; i < n; i++ {
		off := s.p0 + i + 64 // planes carry one front padding word
		w, sh := off>>6, uint(off&63)
		// A shift by 64 yields 0, so sh == 0 needs no branch.
		s.w0s[2+i] = b0[w]>>sh | b0[w+1]<<(64-sh)
		s.w1s[2+i] = b1[w]>>sh | b1[w+1]<<(64-sh)
	}
	s.staged = n
}

// chunk stages the words for query q's elements [base, base+stageChunk)
// and returns those elements with their staged windows: element i's words
// sit at w0a[i+2]/w1a[i+2], its dependent-bit selectors (steps i−1 and
// i−2) at w1a[i+1], w1a[i] and w0a[i].
func (s *batchScratch) chunk(q *batchQuery, base int) (elems []fusedElem, w0a, w1a []uint64) {
	end := min(base+stageChunk, len(q.elems))
	if s.staged < end {
		s.stage(end)
	}
	elems = q.elems[base:end]
	n := len(elems) + 2
	return elems, s.w0s[base:][:n:n], s.w1s[base:][:n:n]
}

// depMatch muxes a dependent element's S=1 match plane into m on the
// selected earlier-reference bit-plane, exactly like the hardware's
// multiplexer LUT.
func depMatch(e *fusedElem, m uint64, deps []muxMasks, w0a, w1a []uint64, i int) uint64 {
	m1 := deps[e.alt].match(w0a[i+2], w1a[i+2])
	var sel uint64
	switch e.dep {
	case backtrans.DepPrev1Hi:
		sel = w1a[i+1]
	case backtrans.DepPrev2Hi:
		sel = w1a[i]
	case backtrans.DepPrev2Lo:
		sel = w0a[i]
	}
	return m ^ sel&(m^m1) // lane-wise mux: sel ? m1 : m
}

// The scanQ* family runs one query's elements over the staged block with
// its mismatch counter planes in registers; each returns the final
// counter planes and the sticky overflow mask. The bodies are unrolled
// per counter width because Go keeps the named locals in registers only
// when the carry-save chain is written out straight-line — the whole
// point of the narrow budget counters. Widths 0–6 cover every budget up
// to 63 mismatches.

// scanQ0 is the exact-match (budget 0) scan: any mismatch kills the lane,
// so the sticky plane alone accumulates.
func scanQ0(q *batchQuery, s *batchScratch) (sticky uint64) {
	for base := 0; base < len(q.elems); base += stageChunk {
		elems, w0a, w1a := s.chunk(q, base)
		for i := range elems {
			e := &elems[i]
			m := e.match(w0a[i+2], w1a[i+2])
			if e.dep != backtrans.DepNone {
				m = depMatch(e, m, q.deps, w0a, w1a, i)
			}
			sticky |= ^m
			if sticky == ^uint64(0) {
				return
			}
		}
	}
	return
}

func scanQ1(q *batchQuery, s *batchScratch) (c0, sticky uint64) {
	for base := 0; base < len(q.elems); base += stageChunk {
		elems, w0a, w1a := s.chunk(q, base)
		for i := range elems {
			e := &elems[i]
			m := e.match(w0a[i+2], w1a[i+2])
			if e.dep != backtrans.DepNone {
				m = depMatch(e, m, q.deps, w0a, w1a, i)
			}
			miss := ^m
			x := c0 & miss
			c0 ^= miss
			sticky |= x
			if sticky == ^uint64(0) {
				return
			}
		}
	}
	return
}

func scanQ2(q *batchQuery, s *batchScratch) (c0, c1, sticky uint64) {
	for base := 0; base < len(q.elems); base += stageChunk {
		elems, w0a, w1a := s.chunk(q, base)
		for i := range elems {
			e := &elems[i]
			m := e.match(w0a[i+2], w1a[i+2])
			if e.dep != backtrans.DepNone {
				m = depMatch(e, m, q.deps, w0a, w1a, i)
			}
			miss := ^m
			x := c0 & miss
			c0 ^= miss
			y := c1 & x
			c1 ^= x
			sticky |= y
			if sticky == ^uint64(0) {
				return
			}
		}
	}
	return
}

func scanQ3(q *batchQuery, s *batchScratch) (c0, c1, c2, sticky uint64) {
	for base := 0; base < len(q.elems); base += stageChunk {
		elems, w0a, w1a := s.chunk(q, base)
		for i := range elems {
			e := &elems[i]
			m := e.match(w0a[i+2], w1a[i+2])
			if e.dep != backtrans.DepNone {
				m = depMatch(e, m, q.deps, w0a, w1a, i)
			}
			miss := ^m
			x := c0 & miss
			c0 ^= miss
			y := c1 & x
			c1 ^= x
			x = c2 & y
			c2 ^= y
			sticky |= x
			if sticky == ^uint64(0) {
				return
			}
		}
	}
	return
}

func scanQ4(q *batchQuery, s *batchScratch) (c0, c1, c2, c3, sticky uint64) {
	for base := 0; base < len(q.elems); base += stageChunk {
		elems, w0a, w1a := s.chunk(q, base)
		for i := range elems {
			e := &elems[i]
			m := e.match(w0a[i+2], w1a[i+2])
			if e.dep != backtrans.DepNone {
				m = depMatch(e, m, q.deps, w0a, w1a, i)
			}
			miss := ^m
			x := c0 & miss
			c0 ^= miss
			y := c1 & x
			c1 ^= x
			x = c2 & y
			c2 ^= y
			y = c3 & x
			c3 ^= x
			sticky |= y
			if sticky == ^uint64(0) {
				return
			}
		}
	}
	return
}

func scanQ5(q *batchQuery, s *batchScratch) (c0, c1, c2, c3, c4, sticky uint64) {
	for base := 0; base < len(q.elems); base += stageChunk {
		elems, w0a, w1a := s.chunk(q, base)
		for i := range elems {
			e := &elems[i]
			m := e.match(w0a[i+2], w1a[i+2])
			if e.dep != backtrans.DepNone {
				m = depMatch(e, m, q.deps, w0a, w1a, i)
			}
			miss := ^m
			x := c0 & miss
			c0 ^= miss
			y := c1 & x
			c1 ^= x
			x = c2 & y
			c2 ^= y
			y = c3 & x
			c3 ^= x
			x = c4 & y
			c4 ^= y
			sticky |= x
			if sticky == ^uint64(0) {
				return
			}
		}
	}
	return
}

func scanQ6(q *batchQuery, s *batchScratch) (c0, c1, c2, c3, c4, c5, sticky uint64) {
	for base := 0; base < len(q.elems); base += stageChunk {
		elems, w0a, w1a := s.chunk(q, base)
		for i := range elems {
			e := &elems[i]
			m := e.match(w0a[i+2], w1a[i+2])
			if e.dep != backtrans.DepNone {
				m = depMatch(e, m, q.deps, w0a, w1a, i)
			}
			miss := ^m
			x := c0 & miss
			c0 ^= miss
			y := c1 & x
			c1 ^= x
			x = c2 & y
			c2 ^= y
			y = c3 & x
			c3 ^= x
			x = c4 & y
			c4 ^= y
			y = c5 & x
			c5 ^= x
			sticky |= y
			if sticky == ^uint64(0) {
				return
			}
		}
	}
	return
}

// scanQGen is the fallback for budgets of 64 mismatches or more (ctrW ≥
// 7): the carry-save walk spills to the counter scratch, still over the
// lazily staged block. Only low thresholds on long queries, and the
// budget-L best-hit scan of queries over 63 elements, land here.
func scanQGen(q *batchQuery, s *batchScratch, ctr []uint64) (sticky uint64) {
	clear(ctr)
	for base := 0; base < len(q.elems); base += stageChunk {
		elems, w0a, w1a := s.chunk(q, base)
		for i := range elems {
			e := &elems[i]
			m := e.match(w0a[i+2], w1a[i+2])
			if e.dep != backtrans.DepNone {
				m = depMatch(e, m, q.deps, w0a, w1a, i)
			}
			carry := ^m
			for b := 0; b < len(ctr) && carry != 0; b++ {
				old := ctr[b]
				ctr[b] = old ^ carry
				carry = old & carry
			}
			sticky |= carry
			if sticky == ^uint64(0) {
				return
			}
		}
	}
	return
}

// extractBlock pulls each query's within-budget lanes out of the block at
// p0, clamped to the scan range [lo, hi) and to the query's own valid
// window starts. A lane is a hit iff it is not sticky-dead and its
// mismatch count stays at or below the budget; its exact score is the
// query length minus its mismatches.
func (bk *BatchKernel) extractBlock(p0, lo, hi int, s *batchScratch) {
	for qi := range bk.queries {
		q := &bk.queries[qi]
		hiq := s.queryStarts(q, hi)
		if p0 >= hiq {
			continue
		}
		ctr := s.counters[q.ctrOff : q.ctrOff+q.ctrW]
		ge := ^s.sticky[qi]
		if !q.satAll {
			ge &^= geThresh(ctr, q.budget+1)
		}
		ge &= lowMask(hiq - p0)
		if lo > p0 {
			ge &^= lowMask(lo - p0)
		}
		for ge != 0 {
			j := bits.TrailingZeros64(ge)
			ge &= ge - 1
			s.hits[qi] = append(s.hits[qi], Hit{Pos: p0 + j, Score: len(q.elems) - laneScore(ctr, j)})
		}
	}
}

// bestPlanes is the budget-L scan behind Kernel.BestHit: with a budget of
// the whole query no lane ever dies, so every window's exact mismatch
// count survives in the counters, and a bit-sliced minimum per block (the
// lowest lane on ties) finds the best window. bk holds one query.
func (bk *BatchKernel) bestPlanes(p *planes) (Hit, bool) {
	q := &bk.queries[0]
	n := bk.Starts(p.n)
	if n <= 0 {
		return Hit{}, false
	}
	best := Hit{Score: -1}
	s := scratchPool.Get().(*batchScratch)
	bk.size(s, p)
	ctr := s.counters[:q.ctrW]
	for p0 := 0; p0 < n; p0 += 64 {
		bk.scanBlock(p0, n, s)
		lanes := lowMask(n - p0)
		for b := len(ctr) - 1; b >= 0; b-- {
			if zero := lanes &^ ctr[b]; zero != 0 {
				lanes = zero
			}
		}
		j := bits.TrailingZeros64(lanes)
		if sc := len(q.elems) - laneScore(ctr, j); sc > best.Score {
			best = Hit{Pos: p0 + j, Score: sc}
		}
	}
	s.p = nil
	scratchPool.Put(s)
	return best, true
}
