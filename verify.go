package fabp

import (
	"context"
	"fmt"
	"sort"

	"fabp/internal/swalign"
)

// VerifiedHit is a FabP hit re-examined by Smith-Waterman: the window's
// translation aligned against the query protein with full gap support —
// the host-side verification stage that upgrades FabP from a filter to a
// complete search pipeline (heuristic prefilter + exact DP, the same
// two-stage shape BLAST uses).
type VerifiedHit struct {
	// Pos and Score are the raw FabP hit.
	Pos, Score int
	// SWScore is the gapped BLOSUM62 local score of the translated window
	// against the query.
	SWScore int
	// Identity is the residue identity of that alignment.
	Identity float64
	// Pretty is the rendered alignment (query vs translated window).
	Pretty string
}

// VerifyOptions tunes AlignVerified.
type VerifyOptions struct {
	// MaxHits bounds how many FabP hits are verified (best-scoring first;
	// 0 = all).
	MaxHits int
	// ContextResidues widens the translated window on each side so gapped
	// alignments can extend past the seed (default 10).
	ContextResidues int
	// MinSWScore drops verified hits scoring below it (0 keeps all).
	MinSWScore int
}

// AlignVerified scans the reference with the FabP engine and verifies each
// hit with gapped Smith-Waterman on the translated window, returning
// verified hits ordered by SW score.
func (a *Aligner) AlignVerified(ref *Reference, opts VerifyOptions) ([]VerifiedHit, error) {
	if opts.ContextResidues == 0 {
		opts.ContextResidues = 10
	}
	scanned, _, err := a.executor().run(context.Background(), planesOf(ref.d), nil)
	if err != nil {
		return nil, err
	}
	raw := scanned[0]
	if opts.MaxHits > 0 && len(raw) > opts.MaxHits {
		// Keep the best-scoring hits.
		sort.Slice(raw, func(i, j int) bool { return raw[i].Score > raw[j].Score })
		raw = raw[:opts.MaxHits]
	}
	scoring := swalign.DefaultScoring()
	out := make([]VerifiedHit, 0, len(raw))
	for _, h := range raw {
		lo := h.Pos - 3*opts.ContextResidues
		if lo < 0 {
			lo = 0
		}
		// Keep the window in the hit's codon frame so the translation
		// lines up with the query's residues.
		lo += (h.Pos - lo) % 3
		hi := h.Pos + a.query.Elements() + 3*opts.ContextResidues
		if hi > ref.Len() {
			hi = ref.Len()
		}
		subject := ref.d.Packed().Slice(lo, hi).Translate(0)
		if len(subject) == 0 {
			continue
		}
		r := swalign.Align(a.query.protein, subject, scoring)
		if r.Score < opts.MinSWScore {
			continue
		}
		out = append(out, VerifiedHit{
			Pos:      h.Pos,
			Score:    h.Score,
			SWScore:  r.Score,
			Identity: r.Identity(a.query.protein, subject),
			Pretty:   swalign.FormatAlignment(a.query.protein, subject, r, scoring, 60),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SWScore != out[j].SWScore {
			return out[i].SWScore > out[j].SWScore
		}
		return out[i].Pos < out[j].Pos
	})
	return out, nil
}

// TranslateWindow translates the reference window starting at pos (frame
// of pos) covering the query's footprint — the subject protein a verified
// hit aligns against.
func (a *Aligner) TranslateWindow(ref *Reference, pos int) (string, error) {
	if pos < 0 || pos+a.query.Elements() > ref.Len() {
		return "", fmt.Errorf("fabp: window out of range")
	}
	return ref.d.Packed().Slice(pos, pos+a.query.Elements()).Translate(0).String(), nil
}
