package fabp

import (
	"context"
	"sort"

	"fabp/internal/bio"
	"fabp/internal/bitpar"
)

// Strand labels which reference strand a hit was found on.
type Strand string

// Strand values.
const (
	// StrandForward is the reference as given.
	StrandForward Strand = "+"
	// StrandReverse is its reverse complement; positions are reported in
	// forward coordinates.
	StrandReverse Strand = "-"
)

// StrandHit is a hit annotated with its strand. Pos is always a forward-
// strand coordinate: for reverse-strand hits it is the lowest-address
// nucleotide of the matching window (whose sequence, read right-to-left
// complemented, the query matched).
type StrandHit struct {
	Pos    int
	Score  int
	Strand Strand
}

// AlignBothStrands scans the reference and its reverse complement — the
// full TBLASTN-style search space (a protein-coding gene can sit on either
// strand; the paper's FabP scans one strand per pass, so a deployment runs
// two passes, doubling scan time). Hits come back in forward-coordinate
// order.
//
// Both strand scans run under the aligner's retry policy. With no error
// to return, each always completes on its surviving shards, as under
// WithPartialResults: a shard that fault injection (package
// internal/faultinject) fails past the policy loses its hits, and the
// strand counts on scan.partial. AlignContext reports such failures as
// errors.
func (a *Aligner) AlignBothStrands(ref *Reference) []StrandHit {
	m := a.query.Elements()
	x := a.executor()
	x.partial = true
	var out []StrandHit
	for _, strand := range []Strand{StrandForward, StrandReverse} {
		pp := ref.planes()
		if strand == StrandReverse {
			pp = bitpar.PackReference(bio.NucSeq(ref.seq).ReverseComplement())
		}
		hits, _, _ := x.run(context.Background(), pp, nil)
		for _, qh := range hits { // the one query's hits
			for _, h := range qh {
				if strand == StrandReverse {
					// Window [h.Pos, h.Pos+m) on the reverse complement maps
					// to forward positions [len-h.Pos-m, len-h.Pos).
					h.Pos = len(ref.seq) - h.Pos - m
				}
				out = append(out, StrandHit{Pos: h.Pos, Score: h.Score, Strand: strand})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos != out[j].Pos {
			return out[i].Pos < out[j].Pos
		}
		return out[i].Strand < out[j].Strand
	})
	return out
}
