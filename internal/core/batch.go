package core

import (
	"fmt"

	"fabp/internal/bio"
	"fabp/internal/isa"
)

// Batch aligns many queries against one reference in a single pass over
// the data — the paper's evaluation workload shape (thousands of queries
// sampled from NCBI nr against one database). The reference context array
// is computed once and shared by every query. It is the serial golden
// model the fused batch kernel is checked against.
type Batch struct {
	engines []*Engine
}

// NewBatch prepares engines for every (program, threshold) pair.
func NewBatch(progs []isa.Program, thresholds []int) (*Batch, error) {
	if len(progs) == 0 {
		return nil, fmt.Errorf("core: empty batch")
	}
	if len(progs) != len(thresholds) {
		return nil, fmt.Errorf("core: %d programs but %d thresholds", len(progs), len(thresholds))
	}
	b := &Batch{}
	for i := range progs {
		e, err := NewEngine(progs[i], thresholds[i])
		if err != nil {
			return nil, fmt.Errorf("core: batch query %d: %w", i, err)
		}
		b.engines = append(b.engines, e)
	}
	return b, nil
}

// NewBatchUniform prepares a batch where every query uses the same
// threshold fraction of its own maximum score (validated and rounded by
// ThresholdFromFraction).
func NewBatchUniform(progs []isa.Program, thresholdFrac float64) (*Batch, error) {
	thresholds := make([]int, len(progs))
	for i, p := range progs {
		t, err := ThresholdFromFraction(thresholdFrac, len(p))
		if err != nil {
			return nil, err
		}
		thresholds[i] = t
	}
	return NewBatch(progs, thresholds)
}

// Len returns the number of queries in the batch.
func (b *Batch) Len() int { return len(b.engines) }

// Align scans the reference once and returns per-query hit lists, each in
// position order.
func (b *Batch) Align(ref bio.NucSeq) [][]Hit {
	ctxs := contexts(ref)
	results := make([][]Hit, len(b.engines))
	for qi, e := range b.engines {
		results[qi] = e.AlignContexts(ctxs, 0, len(ref))
	}
	return results
}

// BestHits returns, per query, the single best-scoring position regardless
// of thresholds (ok false where the reference is too short).
func (b *Batch) BestHits(ref bio.NucSeq) []Hit {
	out := make([]Hit, len(b.engines))
	for i, e := range b.engines {
		if h, ok := e.BestHit(ref); ok {
			out[i] = h
		} else {
			out[i] = Hit{Pos: -1, Score: -1}
		}
	}
	return out
}
