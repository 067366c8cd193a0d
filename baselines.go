package fabp

import (
	"fmt"

	"fabp/internal/bio"
	"fabp/internal/swalign"
)

// SWResult is a Smith-Waterman local alignment.
type SWResult struct {
	// Score is the optimal local alignment score (BLOSUM62, affine gaps).
	Score int
	// AStart/AEnd and BStart/BEnd delimit the aligned regions (half-open).
	AStart, AEnd, BStart, BEnd int
	// CIGAR is the run-length operation string ("12M1D4M").
	CIGAR string
	// Identity is the fraction of identical columns.
	Identity float64
	// Gaps counts gapped columns.
	Gaps int
	// Pretty is the BLAST-style rendered alignment (query/midline/subject
	// blocks).
	Pretty string
}

// SmithWaterman computes the optimal gapped local alignment of two protein
// sequences (one-letter codes) — the DP gold standard FabP approximates
// with substitution-only scoring.
func SmithWaterman(a, b string) (*SWResult, error) {
	pa, err := bio.ParseProtSeq(a)
	if err != nil {
		return nil, fmt.Errorf("fabp: sequence a: %w", err)
	}
	pb, err := bio.ParseProtSeq(b)
	if err != nil {
		return nil, fmt.Errorf("fabp: sequence b: %w", err)
	}
	s := swalign.DefaultScoring()
	r := swalign.Align(pa, pb, s)
	return &SWResult{
		Score:  r.Score,
		AStart: r.AStart, AEnd: r.AEnd,
		BStart: r.BStart, BEnd: r.BEnd,
		CIGAR:    r.CIGAR(),
		Identity: r.Identity(pa, pb),
		Gaps:     r.Gaps(),
		Pretty:   swalign.FormatAlignment(pa, pb, r, s, 60),
	}, nil
}
