package fabp

import (
	"context"

	"fabp/internal/tblastn"
)

// This file wires the protein-search workload (TBLASTN: a protein query
// against the six translated frames of a nucleotide target) through the
// unified Scan spine. Protein searches get the same production surface
// as nucleotide scans — context cancellation, one parallel job per
// reading frame, the content-addressed result cache, serve-layer
// admission — instead of the serial sidecar internal/tblastn used to
// be. See DESIGN.md §15.

// Sentinel option values for ProteinSearchOptions, re-exported from
// internal/tblastn. The zero value of each field selects the BLAST
// default, so maximal sensitivity needs an explicit spelling.
const (
	// MinScoreAll keeps every HSP the extender produces (no raw-score
	// cutoff); the zero MinScore selects the BLAST default (35).
	MinScoreAll = tblastn.MinScoreAll
	// NeighborThresholdAll admits effectively every word pair into the
	// seed index; the zero NeighborThreshold selects the BLAST default (11).
	NeighborThresholdAll = tblastn.NeighborThresholdAll
)

// ProteinSearchOptions tune a TBLASTN-style protein search. The zero
// value selects BLAST-flavoured defaults (all six frames, one-hit
// seeding, MinScore 35).
type ProteinSearchOptions struct {
	// Threads is the scan worker count (0 = 1). The HSP set, order, and
	// stats are invariant under Threads, so it is excluded from the
	// result-cache key.
	Threads int
	// Frames limits the search to the first N translated frames
	// (3 = forward strand only, 6 = full TBLASTN; 0 = 6).
	Frames int
	// MinScore discards HSPs below this raw BLOSUM62 score. Zero selects
	// the BLAST default (35); MinScoreAll keeps every HSP.
	MinScore int
	// NeighborThreshold is the word-pair score to enter the seed index.
	// Zero selects the BLAST default (11); NeighborThresholdAll admits
	// effectively every pair.
	NeighborThreshold int
	// TwoHit requires two non-overlapping same-diagonal word hits before
	// extending (BLAST's default seeding strategy).
	TwoHit bool
	// MaxEValue, when positive, discards HSPs whose Karlin-Altschul
	// E-value exceeds it.
	MaxEValue float64
}

// tblastnOptions maps the facade options onto the pipeline's option set.
func (o *ProteinSearchOptions) tblastnOptions() tblastn.Options {
	return tblastn.Options{
		Threads:           o.Threads,
		Frames:            o.Frames,
		MinScore:          o.MinScore,
		NeighborThreshold: o.NeighborThreshold,
		TwoHit:            o.TwoHit,
		MaxEValue:         o.MaxEValue,
	}
}

// HSP is a high-scoring segment pair from a protein search.
type HSP struct {
	// Frame renders BLAST-style: "+1".."+3", "-1".."-3".
	Frame string
	// QStart/QEnd delimit the query residues (half-open).
	QStart, QEnd int
	// SStart/SEnd delimit the subject positions within the translated
	// frame (half-open).
	SStart, SEnd int
	// NucPos is the forward-strand nucleotide offset of the subject
	// segment.
	NucPos int
	// Score is the raw BLOSUM62 segment score.
	Score int
	// BitScore and EValue are Karlin-Altschul statistics over the
	// translated search space.
	BitScore float64
	EValue   float64
}

// ProteinSearchStats profiles one protein search's pipeline costs.
// All fields are invariant under ProteinSearchOptions.Threads.
type ProteinSearchStats struct {
	// IndexEntries is the query neighborhood index's posting count.
	IndexEntries int
	// WordLookups/WordHits/Extensions count the scan phases; HSPs the
	// surviving segment pairs.
	WordLookups int
	WordHits    int
	Extensions  int
	HSPs        int
}

// proteinKey is the protein-search slice of the scan cache key: the
// resolved pipeline options that determine the result. Threads is
// deliberately absent — the scan is thread-invariant, so results are
// shared across worker counts.
type proteinKey struct {
	neighborThreshold int
	hitWindow         int
	xdrop             int
	minScore          int
	frames            int
	refineMargin      int
	twoHit            bool
	gappedRefine      bool
	keepContained     bool
	maxEValue         float64
}

// proteinKeyOf extracts the cache-key slice from resolved options.
func proteinKeyOf(o *tblastn.Options) proteinKey {
	return proteinKey{
		neighborThreshold: o.NeighborThreshold,
		hitWindow:         o.HitWindow,
		xdrop:             o.XDrop,
		minScore:          o.MinScore,
		frames:            o.Frames,
		refineMargin:      o.RefineMargin,
		twoHit:            o.TwoHit,
		gappedRefine:      o.GappedRefine,
		keepContained:     o.KeepContained,
		maxEValue:         o.MaxEValue,
	}
}

// executeProteinSearch is the plan's cold path: run the pipeline over
// the target's 2-bit payload and shape the result.
func (p *scanPlan) executeProteinSearch(ctx context.Context) (*ScanResult, error) {
	hsps, st, err := tblastn.SearchPackedContext(ctx, p.req.Query.protein, p.target().Packed(), *p.protein)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		// Remaining failures are query-shaped (too short for the word
		// size, or an index with no entries at the resolved threshold).
		return nil, badQuery(err)
	}
	return &ScanResult{
		HSPs: hspsFromInternal(hsps),
		ProteinStats: &ProteinSearchStats{
			IndexEntries: st.IndexEntries,
			WordLookups:  st.WordLookups,
			WordHits:     st.WordHits,
			Extensions:   st.Extensions,
			HSPs:         st.HSPs,
		},
	}, nil
}

// hspsFromInternal converts pipeline HSPs to the facade shape.
func hspsFromInternal(hsps []tblastn.HSP) []HSP {
	out := make([]HSP, len(hsps))
	for i, h := range hsps {
		out[i] = HSP{
			Frame:    h.Frame.String(),
			QStart:   h.QStart,
			QEnd:     h.QEnd,
			SStart:   h.SStart,
			SEnd:     h.SEnd,
			NucPos:   h.NucPos,
			Score:    h.Score,
			BitScore: h.BitScore,
			EValue:   h.EValue,
		}
	}
	return out
}

// SearchProtein runs a TBLASTN-style protein search against ref through
// the Scan spine (result cache included, when enabled): every frame job
// observes ctx as it scans, and the search returns ctx.Err() once it
// fires. It returns the HSPs sorted best-first; use Scan directly for
// stats, cache provenance and MaxHits control.
func SearchProtein(ctx context.Context, query *Query, ref *Reference, opts ProteinSearchOptions) ([]HSP, error) {
	res, err := Scan(ctx, ScanRequest{Query: query, Reference: ref, ProteinSearch: &opts})
	if err != nil {
		return nil, err
	}
	return res.HSPs, nil
}
