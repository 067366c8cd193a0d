package bio

import "fmt"

// Codon is a triplet of nucleotides, the unit of the genetic code.
type Codon [3]Nucleotide

// NumCodons is the number of distinct codons (4^3).
const NumCodons = 64

// CodonFromIndex reconstructs a codon from its dense index (see Index).
func CodonFromIndex(i int) Codon {
	return Codon{Nucleotide(i>>4) & 3, Nucleotide(i>>2) & 3, Nucleotide(i) & 3}
}

// Index returns the dense codon index in [0,64): first position is the most
// significant base pair.
func (c Codon) Index() int {
	return int(c[0])<<4 | int(c[1])<<2 | int(c[2])
}

// String renders the codon as three RNA letters.
func (c Codon) String() string {
	return string([]byte{c[0].Letter(), c[1].Letter(), c[2].Letter()})
}

// ParseCodon parses a three-letter codon string (DNA or RNA letters).
func ParseCodon(s string) (Codon, error) {
	if len(s) != 3 {
		return Codon{}, fmt.Errorf("bio: codon %q must have exactly 3 letters", s)
	}
	var c Codon
	for i := 0; i < 3; i++ {
		n, err := ParseNucleotide(s[i])
		if err != nil {
			return Codon{}, err
		}
		c[i] = n
	}
	return c, nil
}

// geneticCode maps the dense codon index to the encoded amino acid. The
// string is laid out in codon-index order (AAA, AAC, AAG, AAU, ACA, ...,
// UUU) and spells the standard genetic code (NCBI translation table 1).
const geneticCode = "KNKN" + "TTTT" + "RSRS" + "IIMI" + // AAx ACx AGx AUx
	"QHQH" + "PPPP" + "RRRR" + "LLLL" + // CAx CCx CGx CUx
	"EDED" + "AAAA" + "GGGG" + "VVVV" + // GAx GCx GGx GUx
	"*Y*Y" + "SSSS" + "*CWC" + "LFLF" //   UAx UCx UGx UUx

// codonToAA and aaToCodons are derived from geneticCode at init.
// fieldAA and fieldRevAA translate a codon straight from the 2-bit
// payload: they are indexed by the 6-bit field its three bases occupy
// (lowest-address base in the low bits, see PackedNucSeq). fieldAA reads
// the field forward; fieldRevAA reads it as a reverse-complement codon,
// whose index is the field's bits complemented (n^3 per base).
var (
	codonToAA  [NumCodons]AminoAcid
	aaToCodon  [NumResidues][]Codon
	fieldAA    [NumCodons]AminoAcid
	fieldRevAA [NumCodons]AminoAcid
)

func init() {
	if len(geneticCode) != NumCodons {
		panic("bio: genetic code table must have 64 entries")
	}
	for i := 0; i < NumCodons; i++ {
		aa, err := ParseAminoAcid(geneticCode[i])
		if err != nil {
			panic(err)
		}
		codonToAA[i] = aa
		aaToCodon[aa] = append(aaToCodon[aa], CodonFromIndex(i))
	}
	for f := 0; f < NumCodons; f++ {
		fieldAA[f] = codonToAA[(f&3)<<4|f&12|f>>4]
		fieldRevAA[f] = codonToAA[f^63]
	}
}

// Translate returns the amino acid encoded by c under the standard genetic
// code.
func (c Codon) Translate() AminoAcid { return codonToAA[c.Index()] }

// Codons returns every codon that translates to a, in codon-index order.
// The returned slice is shared; callers must not modify it.
func (a AminoAcid) Codons() []Codon {
	if a >= NumResidues {
		return nil
	}
	return aaToCodon[a]
}

// Degeneracy returns how many codons encode a (1 for Met/Trp, up to 6 for
// Leu/Ser/Arg).
func (a AminoAcid) Degeneracy() int { return len(a.Codons()) }

// StartCodon is AUG, the canonical translation start.
var StartCodon = Codon{A, U, G}
