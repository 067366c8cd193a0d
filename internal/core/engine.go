package core

import (
	"fmt"
	"slices"

	"fabp/internal/bio"
	"fabp/internal/isa"
)

// Hit is one alignment position whose score reached the threshold — what
// FabP's write-back buffer returns to the host.
type Hit struct {
	// Pos is the reference element offset where the query window starts.
	Pos int
	// Score is the number of matching elements (0..3·Lq).
	Score int
}

// Engine is the bit-exact software model of the FabP datapath. Its results
// are proven equal to the generated netlist's cycle-accurate simulation in
// tests, and it scales to full-size references.
type Engine struct {
	prog      isa.Program
	threshold int
	// matchTab[i] is a 64-entry truth table: bit ctx tells whether query
	// element i matches a reference element whose 6-bit context is
	// ctx = prev2<<4 | prev1<<2 | cur. This is the software rendering of
	// the per-element comparator LUT pair.
	matchTab []([64]uint8)
}

// NewEngine prepares an engine for the given encoded query and score
// threshold.
func NewEngine(prog isa.Program, threshold int) (*Engine, error) {
	if len(prog) == 0 {
		return nil, fmt.Errorf("core: empty query program")
	}
	if threshold < 0 || threshold > len(prog) {
		return nil, fmt.Errorf("core: threshold %d outside [0,%d]", threshold, len(prog))
	}
	e := &Engine{
		prog:      prog,
		threshold: threshold,
		matchTab:  make([][64]uint8, len(prog)),
	}
	for i, ins := range prog {
		for ctx := 0; ctx < 64; ctx++ {
			cur := bio.Nucleotide(ctx & 3)
			prev1 := bio.Nucleotide(ctx >> 2 & 3)
			prev2 := bio.Nucleotide(ctx >> 4 & 3)
			if ins.Matches(cur, prev1, prev2) {
				e.matchTab[i][ctx] = 1
			}
		}
	}
	return e, nil
}

// QueryElems returns the query length in elements (3·Lq).
func (e *Engine) QueryElems() int { return len(e.prog) }

// Threshold returns the configured hit threshold.
func (e *Engine) Threshold() int { return e.threshold }

// contexts computes the per-position 6-bit comparison context of the
// reference: ctx[j] = ref[j-2]<<4 | ref[j-1]<<2 | ref[j], with out-of-range
// history reading as A — exactly the reset state of the hardware reference
// buffer.
func contexts(ref bio.NucSeq) []uint8 { return AppendContexts(nil, ref) }

// Score computes the alignment score for the window starting at position
// pos. It panics if the window exceeds the reference.
func (e *Engine) Score(ref bio.NucSeq, pos int) int {
	score := 0
	for i := range e.prog {
		j := pos + i
		ctx := uint8(ref[j] & 3)
		if j >= 1 {
			ctx |= uint8(ref[j-1]&3) << 2
		}
		if j >= 2 {
			ctx |= uint8(ref[j-2]&3) << 4
		}
		score += int(e.matchTab[i][ctx])
	}
	return score
}

// Align scans the whole reference and returns every position whose score
// reaches the threshold, in position order. It runs on the calling
// goroutine; callers that want parallelism shard AlignContexts on a
// scheduler.
func (e *Engine) Align(ref bio.NucSeq) []Hit {
	n := len(ref) - len(e.prog) + 1
	if n <= 0 {
		return nil
	}
	return e.alignRange(contexts(ref), 0, n)
}

// AppendContexts appends the per-position comparison contexts of ref to
// dst and returns it — the input of AlignContexts, built into a buffer the
// caller reuses, as a scalar shard does for every piece of its range.
func AppendContexts(dst []uint8, ref bio.NucSeq) []uint8 {
	dst = slices.Grow(dst, len(ref))
	var ctx uint8
	for _, nt := range ref {
		ctx = ctx<<2&0x3F | uint8(nt&3)
		dst = append(dst, ctx)
	}
	return dst
}

// AlignContexts scores the windows starting in [lo, hi) over a shared
// context array (see AppendContexts), in position order. Out-of-range
// bounds are clamped. Concatenating adjacent ranges reproduces Align
// exactly.
func (e *Engine) AlignContexts(ctxs []uint8, lo, hi int) []Hit {
	n := len(ctxs) - len(e.prog) + 1
	if hi > n {
		hi = n
	}
	if lo < 0 {
		lo = 0
	}
	if lo >= hi {
		return nil
	}
	return e.alignRange(ctxs, lo, hi)
}

// alignRange scores window starts in [lo, hi).
func (e *Engine) alignRange(ctxs []uint8, lo, hi int) []Hit {
	var hits []Hit
	m := len(e.prog)
	for p := lo; p < hi; p++ {
		score := 0
		window := ctxs[p : p+m]
		for i, tab := range e.matchTab {
			score += int(tab[window[i]])
		}
		if score >= e.threshold {
			hits = append(hits, Hit{Pos: p, Score: score})
		}
	}
	return hits
}

// BestHit returns the highest-scoring position (ties broken by lower
// position) regardless of threshold, or ok=false for an empty scan range.
func (e *Engine) BestHit(ref bio.NucSeq) (Hit, bool) {
	n := len(ref) - len(e.prog) + 1
	if n <= 0 {
		return Hit{}, false
	}
	ctxs := contexts(ref)
	best := Hit{Pos: 0, Score: -1}
	m := len(e.prog)
	for p := 0; p < n; p++ {
		score := 0
		window := ctxs[p : p+m]
		for i, tab := range e.matchTab {
			score += int(tab[window[i]])
		}
		if score > best.Score {
			best = Hit{Pos: p, Score: score}
		}
	}
	return best, true
}
