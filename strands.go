package fabp

import (
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
func (a *Aligner) AlignBothStrands(ref *Reference) []StrandHit {
	var out []StrandHit
	for _, h := range a.gatherShards(a.referenceScan(ref)) {
		out = append(out, StrandHit{Pos: h.Pos, Score: h.Score, Strand: StrandForward})
	}
	rc := bio.NucSeq(ref.seq).ReverseComplement()
	m := a.query.Elements()
	rcScan, rcStarts := a.shardScan(len(rc), func() *bitpar.Planes {
		return bitpar.PackReference(rc)
	}, func() bio.NucSeq { return rc })
	for _, h := range a.gatherShards(rcScan, rcStarts) {
		// Window [h.Pos, h.Pos+m) on the reverse complement maps to
		// forward positions [len-h.Pos-m, len-h.Pos).
		out = append(out, StrandHit{
			Pos:    len(ref.seq) - h.Pos - m,
			Score:  h.Score,
			Strand: StrandReverse,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos != out[j].Pos {
			return out[i].Pos < out[j].Pos
		}
		return out[i].Strand < out[j].Strand
	})
	return out
}
