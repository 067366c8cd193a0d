package bio

import "fmt"

// Table-driven ASCII→nucleotide decoding. One 256-entry table classifies
// every byte in a single load — the 2-bit code for a base letter, a
// whitespace marker, or an invalid marker — replacing the per-letter
// switch on the streaming and database-build hot paths.
const (
	NucSpace   = 0xFE // whitespace: skipped by the sequence decoders
	NucInvalid = 0xFF // anything that is neither a base letter nor whitespace
)

// nucCodes maps ASCII bytes to 2-bit nucleotide codes (A=00, C=01, G=10,
// U/T=11, either case), NucSpace for whitespace, NucInvalid otherwise.
var nucCodes [256]uint8

// NucCode classifies one ASCII byte in a single table load: its 2-bit
// nucleotide code (< NumNucleotides), NucSpace or NucInvalid. It is the
// table fused decoders (bitpar's ASCII-to-planes append) share with
// AppendNucASCII.
func NucCode(c byte) uint8 { return nucCodes[c] }

// InvalidLetter is the error every ASCII nucleotide decoder reports for
// the offending byte c.
func InvalidLetter(c byte) error {
	return fmt.Errorf("bio: invalid nucleotide letter %q", c)
}

func init() {
	for i := range nucCodes {
		nucCodes[i] = NucInvalid
	}
	for _, e := range []struct {
		letters string
		code    Nucleotide
	}{
		{"Aa", A}, {"Cc", C}, {"Gg", G}, {"UuTt", U},
	} {
		for i := 0; i < len(e.letters); i++ {
			nucCodes[e.letters[i]] = uint8(e.code)
		}
	}
	for _, ws := range []byte{' ', '\t', '\n', '\r'} {
		nucCodes[ws] = NucSpace
	}
}

// AppendNucASCII decodes the ASCII base letters in src (DNA or RNA, either
// case, whitespace skipped) and appends them to dst. On an invalid byte it
// returns dst extended with everything decoded before it, the byte's index
// in src, and an error; otherwise the index is len(src) and the error nil.
// The shared decode step of the chunked stream scan and the database
// builder.
func AppendNucASCII[S ~[]byte | ~string](dst NucSeq, src S) (NucSeq, int, error) {
	for i := 0; i < len(src); i++ {
		c := nucCodes[src[i]]
		if c < NumNucleotides {
			dst = append(dst, Nucleotide(c))
			continue
		}
		if c == NucSpace {
			continue
		}
		return dst, i, InvalidLetter(src[i])
	}
	return dst, len(src), nil
}
