// batch.go implements the fused kernel, the package's one scan loop: K
// compiled queries scan one reference in a single pass over the
// bit-planes (K = 1 for a single-query Kernel). The paper's architecture
// is bandwidth-bound — the reference streams past a resident query — so
// K separate plane traversals are the hot-path waste. A query scanned
// alone computes each element's window in registers from the two plane
// words it straddles, as FabP wires each comparator to a fixed offset of
// the beat. A fused batch stages each window once per 64-lane block,
// lazily and only as far as a query with live lanes needs it, and every
// query reads the shared copy, turning K passes into one.
package bitpar

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"fabp/internal/backtrans"
	"fabp/internal/isa"
)

// stageChunk is the window granularity in query positions: a chunk lies
// within two plane words (32 divides 64), and in a fused batch the query
// that first reaches position i of a block stages the windows up to the
// end of i's chunk (unless a batch-mate already did).
const stageChunk = 32

// batchQuery is one query's compiled state inside a BatchKernel.
//
// The fused kernel scores by *mismatch budget* rather than full-width
// score counting: a lane is a hit iff its mismatch count stays within
// budget = n − threshold, so the vertical counters only need to count to
// the budget (ctrW bits) instead of to the full score. That narrows the
// carry chain enough to keep every counter plane in a register, and a lane
// whose counter overflows is dead for good (the sticky plane) — once all
// 64 lanes of a block are dead the query's remaining elements are skipped,
// and their windows are never read. Surviving lanes' scores stay exact:
// score = n − mismatches.
type batchQuery struct {
	// n is the query length in elements.
	n int
	// elems are the elements without a dependent bit, in query order;
	// chunk c of them is elems[chunks[c]:chunks[c+1]].
	elems  []fusedElem
	chunks []int
	// deps are the elements with a dependent bit (the third nucleotide of
	// Leu, Arg and stop), added after the register walk (see scanDeps).
	deps      []depElem
	threshold int
	// budget is the mismatch allowance: n − threshold.
	budget int
	// ctrW is the counter width in bit-planes: the smallest width of at
	// least 2 whose capacity 2^ctrW exceeds the budget.
	ctrW int
	// bias is every counter's starting value, 2^ctrW − 1 − budget: a
	// counter overflows into the sticky plane exactly when its lane's
	// mismatches exceed the budget, so the sticky plane alone decides hits.
	bias int
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
// — seven branchless ops over one window's plane words.
type muxMasks struct {
	a, ac, g, gu uint64
}

// fusedElem is one element without a dependent bit: its accept function
// in mux form and its position in the query.
type fusedElem struct {
	muxMasks
	pos int
}

// depElem is one element with a dependent bit: its S=0 element, its S=1
// accept function and the earlier-reference bit-plane that supplies S.
type depElem struct {
	fusedElem
	s1  muxMasks
	dep backtrans.DepSource
}

// expandMux turns a 4-bit accept truth table into the mux-form word masks.
func expandMux(mask uint8) muxMasks {
	a := -uint64(mask & 1)
	c := -uint64(mask >> 1 & 1)
	g := -uint64(mask >> 2 & 1)
	u := -uint64(mask >> 3 & 1)
	return muxMasks{a: a, ac: a ^ c, g: g, gu: g ^ u}
}

// match evaluates the mux form over one window's plane words.
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
// sized for the kernel on Get. A fused batch (K > 1) stages the windows of
// the block at p0 in w0s/w1s, and staged counts the positions staged so
// far; a query scanned alone leaves both empty.
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
	m, k := bk.maxElems, len(bk.queries)
	if k == 1 {
		m = 0 // a lone query stages nothing
	}
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
	q := batchQuery{n: len(prog), elems: make([]fusedElem, 0, len(prog))}
	for j, ins := range prog {
		if j%stageChunk == 0 {
			q.chunks = append(q.chunks, len(q.elems))
		}
		c := compile(ins)
		e := fusedElem{expandMux(c.mask0), j}
		if c.mask0 != c.mask1 {
			q.deps = append(q.deps, depElem{e, expandMux(c.mask1), c.dep})
		} else {
			q.elems = append(q.elems, e)
		}
	}
	q.chunks = append(q.chunks, len(q.elems))
	return q
}

// withThreshold sets the query's threshold and the budget counters it
// implies.
func (q batchQuery) withThreshold(threshold int) batchQuery {
	q.threshold = threshold
	q.budget = q.n - threshold
	q.ctrW = max(bits.Len(uint(q.budget)), 2)
	q.bias = 1<<q.ctrW - 1 - q.budget
	return q
}

// ctr0 is counter plane b's starting value: bit b of the bias in every
// lane.
func (q *batchQuery) ctr0(b int) uint64 { return -(uint64(q.bias) >> b & 1) }

// newBatchKernel lays out compiled queries: counter offsets and the
// longest/shortest query lengths.
func newBatchKernel(queries []batchQuery) *BatchKernel {
	bk := &BatchKernel{queries: queries}
	for i := range bk.queries {
		q := &bk.queries[i]
		q.ctrOff = bk.ctrWords
		bk.ctrWords += q.ctrW
		bk.maxElems = max(bk.maxElems, q.n)
		if bk.minElems == 0 || q.n < bk.minElems {
			bk.minElems = q.n
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
func (bk *BatchKernel) QueryElems(qi int) int { return bk.queries[qi].n }

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
	return min(hi, s.p.n-q.n+1)
}

// scanBlock runs every query over the 64-lane block at p0 with its
// mismatch counter planes held in registers (specialized by counter
// width), so the carry-save walk never touches memory; a query whose 64
// lanes all overflow their budget stops early. Where the walk reads its
// windows follows from K alone (see chunk).
func (bk *BatchKernel) scanBlock(p0, hi int, s *batchScratch) {
	s.p0, s.staged = p0, 0
	for qi := range bk.queries {
		q := &bk.queries[qi]
		// A block lying wholly past a query's last valid start (or past
		// the scan range) contributes nothing to it: skip it (extractBlock
		// applies the same clamp, so the stale scratch is never read).
		if p0 >= s.queryStarts(q, hi) {
			continue
		}
		ctr, sticky := s.counters[q.ctrOff:q.ctrOff+q.ctrW], uint64(0)
		switch q.ctrW {
		case 2:
			ctr[0], ctr[1], sticky = scanQ2(q, s)
		case 3:
			ctr[0], ctr[1], ctr[2], sticky = scanQ3(q, s)
		case 4:
			ctr[0], ctr[1], ctr[2], ctr[3], sticky = scanQ4(q, s)
		case 5:
			ctr[0], ctr[1], ctr[2], ctr[3], ctr[4], sticky = scanQ5(q, s)
		case 6:
			ctr[0], ctr[1], ctr[2], ctr[3], ctr[4], ctr[5], sticky = scanQ6(q, s)
		default:
			sticky = scanQGen(q, s, ctr)
		}
		s.sticky[qi] = s.scanDeps(q, ctr, sticky)
	}
}

// window is the 64 plane bits starting sh bits into lo and running on
// into hi. Both shift counts provably stay below 64, so the compiler emits
// no oversize-shift guard; sh == 0 yields lo alone.
func window(lo, hi uint64, sh uint) uint64 {
	return lo>>sh | hi<<1<<(^sh&63)
}

// stage extends the fused block's staged windows to cover positions
// [0, n). Only the block's live queries call it, so windows past the point
// where every query's lanes died are never computed. Every staged window
// lies inside the planes: a scanned query's lane 0 is a valid start, so
// p0+n−1 < len(reference).
func (s *batchScratch) stage(n int) {
	b0, b1 := s.p.b0, s.p.b1
	for i := s.staged; i < n; i++ {
		off := s.p0 + i + 64 // planes carry one front padding word
		w, sh := off>>6, uint(off&63)
		s.w0s[i] = window(b0[w], b0[w+1], sh)
		s.w1s[i] = window(b1[w], b1[w+1], sh)
	}
	s.staged = n
}

// windows is one query's window source for one chunk of the block. Alone
// (K = 1) the query computes each window in registers from the two words
// of each plane the chunk straddles, as FabP wires each comparator to a
// fixed offset of the beat; in a fused batch it reads the windows staged
// once for every query.
type windows struct {
	lo0, hi0, lo1, hi1 uint64   // K = 1: words w and w+1 of b0 and b1
	w0s, w1s           []uint64 // K > 1: the block's staged windows
}

// chunk returns query q's elements in chunk c of the block and their
// window source, staging a fused batch's windows up to the chunk's end. A
// K = 1 chunk reads at most up to the planes' tail padding word: its first
// position lies in the window of lane 0, a valid start.
func (s *batchScratch) chunk(q *batchQuery, c int) ([]fusedElem, windows) {
	elems := q.elems[q.chunks[c]:q.chunks[c+1]]
	if len(s.w0s) == 0 {
		w := s.p0>>6 + 1 + c*stageChunk>>6
		b0, b1 := s.p.b0[w:w+2:w+2], s.p.b1[w:w+2:w+2]
		return elems, windows{lo0: b0[0], hi0: b0[1], lo1: b1[0], hi1: b1[1]}
	}
	if end := min((c+1)*stageChunk, q.n); s.staged < end {
		s.stage(end)
	}
	return elems, windows{w0s: s.w0s, w1s: s.w1s}
}

// at returns the window of query position pos: the reference's b0 and b1
// bits at window starts p0 … p0+63, offset by pos.
func (c *windows) at(pos int) (w0, w1 uint64) {
	if len(c.w0s) > 0 {
		return c.w0s[pos], c.w1s[pos]
	}
	sh := uint(pos) & 63
	return window(c.lo0, c.hi0, sh), window(c.lo1, c.hi1, sh)
}

// scanDeps adds query q's dependent elements to the counter planes the
// register walk left in ctr and returns the updated sticky mask. Counting
// commutes, so adding them last is exact. Each element muxes its S=1
// match plane into its S=0 one on the selected earlier-reference
// bit-plane, exactly like the hardware's multiplexer LUT; being few, they
// read their windows straight from the planes.
func (s *batchScratch) scanDeps(q *batchQuery, ctr []uint64, sticky uint64) uint64 {
	b0, b1 := s.p.b0, s.p.b1
	for i := 0; i < len(q.deps) && sticky != ^uint64(0); i++ {
		d := &q.deps[i]
		at := s.p0 + d.pos
		w0, w1 := fetch(b0, at), fetch(b1, at)
		var sel uint64
		switch d.dep {
		case backtrans.DepPrev1Hi:
			sel = fetch(b1, at-1)
		case backtrans.DepPrev2Hi:
			sel = fetch(b1, at-2)
		case backtrans.DepPrev2Lo:
			sel = fetch(b0, at-2)
		}
		m := d.match(w0, w1)
		m ^= sel & (m ^ d.s1.match(w0, w1)) // lane-wise mux: sel ? m1 : m
		sticky |= addMiss(ctr, ^m)
	}
	return sticky
}

// addMiss ripples a miss plane into counter planes held in memory and
// returns the carry out of the top plane.
func addMiss(ctr []uint64, carry uint64) uint64 {
	for b := 0; b < len(ctr) && carry != 0; b++ {
		old := ctr[b]
		ctr[b] = old ^ carry
		carry = old & carry
	}
	return carry
}

// The scanQ* family walks one query's elements over the block with its
// mismatch counter planes in registers, starting from the bias; each
// returns the final counter planes and the sticky overflow mask. Only the
// counter chain is unrolled per width (the window source and the match
// are shared), because Go keeps the named locals in registers only when
// the carry-save chain is written out straight-line — the whole point of
// the narrow budget counters. Widths 2–6 cover every budget up to 63
// mismatches.

func scanQ2(q *batchQuery, s *batchScratch) (c0, c1, sticky uint64) {
	c0, c1 = q.ctr0(0), q.ctr0(1)
	for c := range len(q.chunks) - 1 {
		elems, win := s.chunk(q, c)
		for i := range elems {
			e := &elems[i]
			miss := ^e.match(win.at(e.pos))
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
	c0, c1, c2 = q.ctr0(0), q.ctr0(1), q.ctr0(2)
	for c := range len(q.chunks) - 1 {
		elems, win := s.chunk(q, c)
		for i := range elems {
			e := &elems[i]
			miss := ^e.match(win.at(e.pos))
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
	c0, c1, c2, c3 = q.ctr0(0), q.ctr0(1), q.ctr0(2), q.ctr0(3)
	for c := range len(q.chunks) - 1 {
		elems, win := s.chunk(q, c)
		for i := range elems {
			e := &elems[i]
			miss := ^e.match(win.at(e.pos))
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
	c0, c1, c2, c3, c4 = q.ctr0(0), q.ctr0(1), q.ctr0(2), q.ctr0(3), q.ctr0(4)
	for c := range len(q.chunks) - 1 {
		elems, win := s.chunk(q, c)
		for i := range elems {
			e := &elems[i]
			miss := ^e.match(win.at(e.pos))
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
	c0, c1, c2, c3, c4, c5 = q.ctr0(0), q.ctr0(1), q.ctr0(2), q.ctr0(3), q.ctr0(4), q.ctr0(5)
	for c := range len(q.chunks) - 1 {
		elems, win := s.chunk(q, c)
		for i := range elems {
			e := &elems[i]
			miss := ^e.match(win.at(e.pos))
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
// 7): the carry-save walk spills to the counter scratch. Only low
// thresholds on long queries, and the budget-L best-hit scan of queries
// over 63 elements, land here.
func scanQGen(q *batchQuery, s *batchScratch, ctr []uint64) (sticky uint64) {
	for b := range ctr {
		ctr[b] = q.ctr0(b)
	}
	for c := range len(q.chunks) - 1 {
		elems, win := s.chunk(q, c)
		for i := range elems {
			e := &elems[i]
			if sticky |= addMiss(ctr, ^e.match(win.at(e.pos))); sticky == ^uint64(0) {
				return
			}
		}
	}
	return
}

// extractBlock pulls each query's within-budget lanes out of the block at
// p0, clamped to the scan range [lo, hi) and to the query's own valid
// window starts. A lane is a hit iff it is not sticky-dead (its mismatches
// stayed within the budget); its exact score is the query length minus
// its mismatches, the counter less the bias.
func (bk *BatchKernel) extractBlock(p0, lo, hi int, s *batchScratch) {
	for qi := range bk.queries {
		q := &bk.queries[qi]
		hiq := s.queryStarts(q, hi)
		if p0 >= hiq {
			continue
		}
		ctr := s.counters[q.ctrOff : q.ctrOff+q.ctrW]
		ge := ^s.sticky[qi] & lowMask(hiq-p0)
		if lo > p0 {
			ge &^= lowMask(lo - p0)
		}
		for ge != 0 {
			j := bits.TrailingZeros64(ge)
			ge &= ge - 1
			s.hits[qi] = append(s.hits[qi], Hit{Pos: p0 + j, Score: q.n + q.bias - laneScore(ctr, j)})
		}
	}
}

// bestPlanes is the budget-L scan behind Kernel.BestHitPlanes: with a
// budget of the whole query no lane ever dies, so every window's exact
// mismatch count survives in the counters, and a bit-sliced minimum per
// block (the lowest lane on ties) finds the best window. bk holds one
// query.
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
		if sc := q.n + q.bias - laneScore(ctr, j); sc > best.Score {
			best = Hit{Pos: p0 + j, Score: sc}
		}
	}
	s.p = nil
	scratchPool.Put(s)
	return best, true
}
