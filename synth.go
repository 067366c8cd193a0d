package fabp

import (
	"fmt"
	"math/rand"

	"fabp/internal/bio"
)

// PlantedGene records where a known protein was embedded in a synthetic
// reference.
type PlantedGene struct {
	// Protein is the planted product in one-letter codes.
	Protein string
	// Pos is the nucleotide offset of its first codon.
	Pos int
}

// SyntheticReference builds a deterministic random reference of the given
// nucleotide length with numGenes coding regions of geneLen residues
// planted at non-overlapping positions (codon choice follows human codon
// usage). It reproduces the paper's evaluation workload shape: random
// background with recoverable true positives.
func SyntheticReference(seed int64, length, numGenes, geneLen int) (*Reference, []PlantedGene) {
	rng := rand.New(rand.NewSource(seed))
	seq, genes := bio.SyntheticReference(rng, length, numGenes, geneLen)
	out := make([]PlantedGene, len(genes))
	for i, g := range genes {
		out[i] = PlantedGene{Protein: g.Protein.String(), Pos: g.Pos}
	}
	return newReference(seq), out
}

// MutateProtein derives a diverged copy of a protein under the paper's
// mutation statistics: subRate per-residue substitutions and indelPerKB
// indel events per kilobase of coding sequence (the cited empirical mean is
// 0.09). It reports whether any indel occurred — the §IV-A incidence
// statistic.
func MutateProtein(seed int64, protein string, subRate, indelPerKB float64) (string, bool, error) {
	p, err := bio.ParseProtSeq(protein)
	if err != nil {
		return "", false, err
	}
	m := bio.MutationModel{SubstitutionRate: subRate, IndelRatePerKB: indelPerKB, MaxIndelLen: 3}
	rng := rand.New(rand.NewSource(seed))
	out, stats := m.Mutate(rng, p)
	return out.String(), stats.HasIndel(), nil
}

// RandomProtein samples a protein of n residues from the coding-region
// amino-acid composition (never Stop), deterministically in the seed.
func RandomProtein(seed int64, n int) (string, error) {
	if n <= 0 {
		return "", fmt.Errorf("fabp: protein length must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	return bio.RandomProtSeq(rng, n).String(), nil
}

// ORF is an open reading frame found in a reference.
type ORF struct {
	// Start/End delimit the forward-strand window (half-open, including
	// the stop codon).
	Start, End int
	// Reverse marks reverse-complement-strand ORFs.
	Reverse bool
	// Protein is the translation in one-letter codes (stop excluded).
	Protein string
}

// FindORFs locates every AUG..stop open reading frame of at least
// minResidues coding residues in all six frames of the reference — the
// candidate coding regions a FabP deployment screens queries against.
func FindORFs(ref *Reference, minResidues int) []ORF {
	raw := bio.FindORFs(ref.d.Seq(), minResidues)
	out := make([]ORF, len(raw))
	for i, o := range raw {
		out[i] = ORF{
			Start: o.Start, End: o.End,
			Reverse: o.Reverse,
			Protein: o.Protein.String(),
		}
	}
	return out
}

// BackTranslationTable renders the full amino-acid → degenerate-template →
// instruction mapping (the reproduction of the paper's Fig. 2 and §III-B
// encodings).
func BackTranslationTable() string {
	s, err := RunExperiment("encoding")
	if err != nil {
		return ""
	}
	return s
}
