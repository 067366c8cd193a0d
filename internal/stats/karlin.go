// Package stats implements Karlin-Altschul statistics for local alignment
// scores: the scale parameter lambda (computed from the scoring matrix and
// background residue frequencies by solving the characteristic equation),
// bit scores, E-values and BLAST's effective-length adjustment. The TBLASTN
// baseline reports its HSPs with these, as NCBI's tool does.
package stats

import (
	"fmt"
	"math"
	"sync"

	"fabp/internal/bio"
)

// KarlinParams are the statistical parameters of a scoring system.
type KarlinParams struct {
	// Lambda is the scale of the score distribution (nats per score unit).
	Lambda float64
	// K is the search-space size correction constant.
	K float64
	// H is the relative entropy (nats per aligned pair).
	H float64
}

// robinsonFrequencies are the standard background amino-acid frequencies
// (Robinson & Robinson 1991), the set NCBI BLAST uses for protein Karlin
// statistics, indexed by our dense AminoAcid values (Stop = 0).
var robinsonFrequencies = [bio.NumResidues]float64{
	bio.Ala: 0.07805, bio.Cys: 0.01925, bio.Asp: 0.05364, bio.Glu: 0.06295,
	bio.Phe: 0.03856, bio.Gly: 0.07377, bio.His: 0.02199, bio.Ile: 0.05142,
	bio.Lys: 0.05744, bio.Leu: 0.09019, bio.Met: 0.02243, bio.Asn: 0.04487,
	bio.Pro: 0.05203, bio.Gln: 0.04264, bio.Arg: 0.05129, bio.Ser: 0.07120,
	bio.Thr: 0.05841, bio.Val: 0.06441, bio.Trp: 0.01330, bio.Tyr: 0.03216,
}

// RobinsonFrequency returns the standard background frequency of residue a.
func RobinsonFrequency(a bio.AminoAcid) float64 {
	if a >= bio.NumResidues {
		return 0
	}
	return robinsonFrequencies[a]
}

// SolveLambda finds the unique positive root of
//
//	sum_ij p_i p_j exp(lambda * s_ij) = 1
//
// for a substitution function with negative expected score and at least one
// positive score — the Karlin-Altschul characteristic equation — by
// bisection (the left side is monotonically increasing in lambda past its
// minimum, and <1 at 0+).
func SolveLambda(score func(a, b bio.AminoAcid) int, freq func(bio.AminoAcid) float64) (float64, error) {
	phi := func(lambda float64) float64 {
		sum := 0.0
		for a := bio.AminoAcid(0); a < bio.NumAminoAcids; a++ {
			fa := freq(a)
			if fa == 0 {
				continue
			}
			for b := bio.AminoAcid(0); b < bio.NumAminoAcids; b++ {
				fb := freq(b)
				if fb == 0 {
					continue
				}
				sum += fa * fb * math.Exp(lambda*float64(score(a, b)))
			}
		}
		return sum
	}
	// Sanity: expected score must be negative, else no positive root.
	exp := 0.0
	hasPositive := false
	for a := bio.AminoAcid(0); a < bio.NumAminoAcids; a++ {
		for b := bio.AminoAcid(0); b < bio.NumAminoAcids; b++ {
			s := score(a, b)
			exp += freq(a) * freq(b) * float64(s)
			if s > 0 {
				hasPositive = true
			}
		}
	}
	if exp >= 0 || !hasPositive {
		return 0, fmt.Errorf("stats: scoring system needs negative expectation and a positive score (E=%.4f)", exp)
	}
	// Bracket the root: phi(0)=1 exactly; move right until phi>1.
	lo, hi := 1e-6, 0.05
	for phi(hi) < 1 {
		hi *= 2
		if hi > 100 {
			return 0, fmt.Errorf("stats: lambda root not bracketed")
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if phi(mid) < 1 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// relativeEntropy computes H = lambda * sum q_ij s_ij where q_ij are the
// target frequencies implied by lambda.
func relativeEntropy(lambda float64, score func(a, b bio.AminoAcid) int, freq func(bio.AminoAcid) float64) float64 {
	h := 0.0
	for a := bio.AminoAcid(0); a < bio.NumAminoAcids; a++ {
		for b := bio.AminoAcid(0); b < bio.NumAminoAcids; b++ {
			s := float64(score(a, b))
			q := freq(a) * freq(b) * math.Exp(lambda*s)
			h += q * lambda * s
		}
	}
	return h
}

// UngappedBLOSUM62 returns the ungapped Karlin parameters for BLOSUM62 with
// Robinson background frequencies. Lambda and H are computed from first
// principles (the published NCBI values are λ≈0.3176, H≈0.40); K uses the
// published constant 0.134 (its series expansion is out of scope and it
// only shifts E-values by a constant factor). The parameters are solved
// once per process: every protein search ranks its HSPs with them.
func UngappedBLOSUM62() KarlinParams { return ungappedBLOSUM62() }

var ungappedBLOSUM62 = sync.OnceValue(func() KarlinParams {
	lambda, err := SolveLambda(bio.Blosum62, RobinsonFrequency)
	if err != nil {
		// BLOSUM62 is a valid scoring system; this cannot happen.
		panic(err)
	}
	return KarlinParams{
		Lambda: lambda,
		K:      0.134,
		H:      relativeEntropy(lambda, bio.Blosum62, RobinsonFrequency),
	}
})

// Gapped11x1 returns NCBI's published parameters for BLOSUM62 with
// open=11/extend=1 affine gaps (gapped lambda cannot be derived
// analytically; BLAST uses simulation-fitted values).
func Gapped11x1() KarlinParams {
	return KarlinParams{Lambda: 0.267, K: 0.041, H: 0.14}
}

// BitScore converts a raw score to bits: (lambda·S − ln K) / ln 2.
func (p KarlinParams) BitScore(raw int) float64 {
	return (p.Lambda*float64(raw) - math.Log(p.K)) / math.Ln2
}

// EValue returns the expected number of chance HSPs with score >= raw in a
// search of the given effective space: K·m·n·exp(−lambda·S).
func (p KarlinParams) EValue(raw, queryLen, dbLen int) float64 {
	m, n := p.EffectiveLengths(queryLen, dbLen)
	return p.K * float64(m) * float64(n) * math.Exp(-p.Lambda*float64(raw))
}

// EffectiveLengths applies BLAST's length adjustment: alignments cannot
// start within ~l = ln(K·m·n)/H of a sequence end, so both lengths shrink
// by l (iterated to a fixed point, floored at 1).
func (p KarlinParams) EffectiveLengths(queryLen, dbLen int) (m, n int) {
	if queryLen <= 0 || dbLen <= 0 || p.H <= 0 {
		return max1(queryLen), max1(dbLen)
	}
	l := 0
	for i := 0; i < 20; i++ {
		em := float64(max1(queryLen - l))
		en := float64(max1(dbLen - l))
		next := int(math.Log(p.K*em*en) / p.H)
		if next < 0 {
			next = 0
		}
		if next == l {
			break
		}
		l = next
	}
	return max1(queryLen - l), max1(dbLen - l)
}

func max1(v int) int {
	if v < 1 {
		return 1
	}
	return v
}
