// Package bio provides the biological substrate for FabP: nucleotide and
// amino-acid alphabets, the standard genetic code, sequence containers,
// 2-bit packing, FASTA I/O, deterministic sequence generators, and the
// empirical mutation models used by the paper's evaluation.
package bio

import "fmt"

// Nucleotide is a 2-bit encoded RNA/DNA base. The numeric values follow the
// FabP paper's reference encoding: A=00, C=01, G=10, U(T)=11. DNA thymine is
// treated as uracil throughout; FabP aligns against DNA and RNA references
// identically.
type Nucleotide uint8

const (
	A Nucleotide = 0 // adenine
	C Nucleotide = 1 // cytosine
	G Nucleotide = 2 // guanine
	U Nucleotide = 3 // uracil (thymine in DNA input)

	// NumNucleotides is the alphabet size.
	NumNucleotides = 4
)

// nucLetters maps Nucleotide values to their RNA letters.
var nucLetters = [NumNucleotides]byte{'A', 'C', 'G', 'U'}

// nucDNALetters maps Nucleotide values to their DNA letters.
var nucDNALetters = [NumNucleotides]byte{'A', 'C', 'G', 'T'}

// String returns the RNA letter for n, or "?" for out-of-range values.
func (n Nucleotide) String() string {
	if n >= NumNucleotides {
		return "?"
	}
	return string(nucLetters[n])
}

// Letter returns the RNA letter for n.
func (n Nucleotide) Letter() byte { return nucLetters[n&3] }

// DNALetter returns the DNA letter for n (T instead of U).
func (n Nucleotide) DNALetter() byte { return nucDNALetters[n&3] }

// Complement returns the Watson-Crick complement (A<->U, C<->G).
func (n Nucleotide) Complement() Nucleotide { return 3 - (n & 3) }

// Bit returns the i-th bit (0 = LSB) of the 2-bit encoding. FabP's comparator
// LUT consumes reference nucleotides bit-by-bit, so the bit accessors are part
// of the hardware contract: Bit(1) distinguishes {A,C} from {G,U} and Bit(0)
// distinguishes {A,G} from {C,U}.
func (n Nucleotide) Bit(i uint) uint8 { return uint8(n>>i) & 1 }

// ParseNucleotide converts an ASCII base letter (DNA or RNA, either case)
// into a Nucleotide. Whitespace is invalid here; the sequence decoders
// (ParseNucSeq, AppendNucASCII) are the whitespace-tolerant layer.
func ParseNucleotide(b byte) (Nucleotide, error) {
	if c := nucCodes[b]; c < NumNucleotides {
		return Nucleotide(c), nil
	}
	return 0, InvalidLetter(b)
}

// AminoAcid identifies one of the 20 proteinogenic amino acids or the Stop
// signal. Values are dense (0..20) so they can index lookup tables such as
// the back-translation template set and the BLOSUM matrix.
type AminoAcid uint8

// Amino acids in alphabetical order of their one-letter codes, then Stop.
const (
	Ala  AminoAcid = iota // A — alanine
	Cys                   // C — cysteine
	Asp                   // D — aspartate
	Glu                   // E — glutamate
	Phe                   // F — phenylalanine
	Gly                   // G — glycine
	His                   // H — histidine
	Ile                   // I — isoleucine
	Lys                   // K — lysine
	Leu                   // L — leucine
	Met                   // M — methionine
	Asn                   // N — asparagine
	Pro                   // P — proline
	Gln                   // Q — glutamine
	Arg                   // R — arginine
	Ser                   // S — serine
	Thr                   // T — threonine
	Val                   // V — valine
	Trp                   // W — tryptophan
	Tyr                   // Y — tyrosine
	Stop                  // * — translation stop

	// NumAminoAcids counts the coding amino acids (Stop excluded).
	NumAminoAcids = 20
	// NumResidues counts all residue symbols including Stop.
	NumResidues = 21
)

var aaLetters = [NumResidues]byte{
	'A', 'C', 'D', 'E', 'F', 'G', 'H', 'I', 'K', 'L',
	'M', 'N', 'P', 'Q', 'R', 'S', 'T', 'V', 'W', 'Y', '*',
}

var aaThreeLetter = [NumResidues]string{
	"Ala", "Cys", "Asp", "Glu", "Phe", "Gly", "His", "Ile", "Lys", "Leu",
	"Met", "Asn", "Pro", "Gln", "Arg", "Ser", "Thr", "Val", "Trp", "Tyr", "Stp",
}

var aaNames = [NumResidues]string{
	"alanine", "cysteine", "aspartate", "glutamate", "phenylalanine",
	"glycine", "histidine", "isoleucine", "lysine", "leucine",
	"methionine", "asparagine", "proline", "glutamine", "arginine",
	"serine", "threonine", "valine", "tryptophan", "tyrosine", "stop",
}

// String returns the one-letter code for a.
func (a AminoAcid) String() string {
	if a >= NumResidues {
		return "?"
	}
	return string(aaLetters[a])
}

// Letter returns the one-letter code for a.
func (a AminoAcid) Letter() byte {
	if a >= NumResidues {
		return '?'
	}
	return aaLetters[a]
}

// ThreeLetter returns the conventional three-letter code ("Met", "Phe", ...).
func (a AminoAcid) ThreeLetter() string {
	if a >= NumResidues {
		return "???"
	}
	return aaThreeLetter[a]
}

// Name returns the full chemical name in lower case.
func (a AminoAcid) Name() string {
	if a >= NumResidues {
		return "unknown"
	}
	return aaNames[a]
}

// IsStop reports whether a is the translation stop signal.
func (a AminoAcid) IsStop() bool { return a == Stop }

// aaFromLetter is the inverse of aaLetters, built at init.
var aaFromLetter [256]AminoAcid

func init() {
	for i := range aaFromLetter {
		aaFromLetter[i] = 0xFF
	}
	for i, l := range aaLetters {
		aaFromLetter[l] = AminoAcid(i)
		if l >= 'A' && l <= 'Z' {
			aaFromLetter[l+'a'-'A'] = AminoAcid(i)
		}
	}
}

// ParseAminoAcid converts a one-letter residue code (either case; '*' for
// Stop) into an AminoAcid.
func ParseAminoAcid(b byte) (AminoAcid, error) {
	a := aaFromLetter[b]
	if a == 0xFF {
		return 0, fmt.Errorf("bio: invalid amino-acid letter %q", b)
	}
	return a, nil
}
