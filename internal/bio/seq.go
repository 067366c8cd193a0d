package bio

import (
	"fmt"
	"strings"
)

// NucSeq is an unpacked nucleotide sequence (one Nucleotide per element).
type NucSeq []Nucleotide

// ParseNucSeq parses a DNA/RNA string into a NucSeq, ignoring whitespace.
func ParseNucSeq(s string) (NucSeq, error) {
	seq, i, err := AppendNucASCII(make(NucSeq, 0, len(s)), s)
	if err != nil {
		return nil, fmt.Errorf("bio: position %d: %w", i, err)
	}
	return seq, nil
}

// String renders the sequence with RNA letters.
func (s NucSeq) String() string {
	var b strings.Builder
	b.Grow(len(s))
	for _, n := range s {
		b.WriteByte(n.Letter())
	}
	return b.String()
}

// DNAString renders the sequence with DNA letters (T for U).
func (s NucSeq) DNAString() string {
	var b strings.Builder
	b.Grow(len(s))
	for _, n := range s {
		b.WriteByte(n.DNALetter())
	}
	return b.String()
}

// ReverseComplement returns the reverse complement of s as a new sequence.
func (s NucSeq) ReverseComplement() NucSeq {
	rc := make(NucSeq, len(s))
	for i, n := range s {
		rc[len(s)-1-i] = n.Complement()
	}
	return rc
}

// Translate translates the sequence starting at offset frame (0..2) into a
// protein, stopping before any trailing partial codon. Stop codons are
// included in the output as Stop residues.
func (s NucSeq) Translate(frame int) ProtSeq {
	if frame < 0 || frame > 2 || len(s) < frame+3 {
		return nil
	}
	n := (len(s) - frame) / 3
	p := make(ProtSeq, n)
	for i := 0; i < n; i++ {
		c := Codon{s[frame+3*i], s[frame+3*i+1], s[frame+3*i+2]}
		p[i] = c.Translate()
	}
	return p
}

// Codons splits the sequence into consecutive codons starting at offset 0,
// dropping any trailing partial codon.
func (s NucSeq) Codons() []Codon {
	n := len(s) / 3
	cs := make([]Codon, n)
	for i := 0; i < n; i++ {
		cs[i] = Codon{s[3*i], s[3*i+1], s[3*i+2]}
	}
	return cs
}

// ProtSeq is a protein sequence (one AminoAcid per element; may include Stop).
type ProtSeq []AminoAcid

// ParseProtSeq parses a one-letter-code protein string, ignoring whitespace.
func ParseProtSeq(s string) (ProtSeq, error) {
	seq := make(ProtSeq, 0, len(s))
	for i := 0; i < len(s); i++ {
		b := s[i]
		if b == ' ' || b == '\t' || b == '\n' || b == '\r' {
			continue
		}
		a, err := ParseAminoAcid(b)
		if err != nil {
			return nil, fmt.Errorf("bio: position %d: %w", i, err)
		}
		seq = append(seq, a)
	}
	return seq, nil
}

// String renders the protein with one-letter codes.
func (p ProtSeq) String() string {
	var b strings.Builder
	b.Grow(len(p))
	for _, a := range p {
		b.WriteByte(a.Letter())
	}
	return b.String()
}

// BackTranslateArbitrary returns one concrete nucleotide sequence that
// translates back to p, choosing the first codon of each residue. It is the
// naive (non-degenerate) back-translation; the FabP degenerate representation
// lives in package backtrans.
func (p ProtSeq) BackTranslateArbitrary() NucSeq {
	s := make(NucSeq, 0, 3*len(p))
	for _, a := range p {
		c := a.Codons()[0]
		s = append(s, c[0], c[1], c[2])
	}
	return s
}

// PackedNucSeq stores nucleotides 2 bits each, 32 per uint64 word, exactly as
// FabP lays the reference out in FPGA DRAM: element i occupies bits
// [2i%64, 2i%64+1] of word i/32, low bits first.
type PackedNucSeq struct {
	words []uint64
	n     int
}

// NucsPerWord is the number of 2-bit nucleotides in one 64-bit word.
const NucsPerWord = 32

// Pack converts an unpacked sequence into packed DRAM layout, one 64-bit
// word at a time.
func Pack(s NucSeq) *PackedNucSeq {
	p := NewPackedNucSeq(len(s))
	for w := range p.words {
		var x uint64
		chunk := s[w*NucsPerWord : min((w+1)*NucsPerWord, len(s))]
		for j := len(chunk) - 1; j >= 0; j-- {
			x = x<<2 | uint64(chunk[j]&3)
		}
		p.words[w] = x
	}
	return p
}

// NewPackedNucSeq allocates an all-A packed sequence of length n.
func NewPackedNucSeq(n int) *PackedNucSeq {
	return &PackedNucSeq{words: make([]uint64, (n+NucsPerWord-1)/NucsPerWord), n: n}
}

// Len returns the number of nucleotides stored.
func (p *PackedNucSeq) Len() int { return p.n }

// At returns nucleotide i.
func (p *PackedNucSeq) At(i int) Nucleotide {
	return Nucleotide(p.words[i/NucsPerWord]>>(2*uint(i%NucsPerWord))) & 3
}

// Set stores nucleotide nt at position i.
func (p *PackedNucSeq) Set(i int, nt Nucleotide) {
	w := &p.words[i/NucsPerWord]
	sh := 2 * uint(i%NucsPerWord)
	*w = *w&^(3<<sh) | uint64(nt&3)<<sh
}

// Words exposes the raw 64-bit DRAM words. The slice is shared with the
// receiver; callers must treat it as read-only.
func (p *PackedNucSeq) Words() []uint64 { return p.words }

// Unpack expands the packed sequence back to a NucSeq.
func (p *PackedNucSeq) Unpack() NucSeq {
	s := make(NucSeq, p.n)
	p.unpackInto(s, 0)
	return s
}

// Slice returns the unpacked window [from, to). Out-of-range indices are
// clipped to the sequence bounds.
func (p *PackedNucSeq) Slice(from, to int) NucSeq {
	if from < 0 {
		from = 0
	}
	if to > p.n {
		to = p.n
	}
	if from >= to {
		return nil
	}
	s := make(NucSeq, to-from)
	p.unpackInto(s, from)
	return s
}

// unpackInto fills dst with the elements starting at from, one 64-bit
// word at a time.
func (p *PackedNucSeq) unpackInto(dst NucSeq, from int) {
	for len(dst) > 0 {
		x := p.words[from/NucsPerWord] >> (2 * uint(from%NucsPerWord))
		k := min(NucsPerWord-from%NucsPerWord, len(dst))
		for j := range dst[:k] {
			dst[j] = Nucleotide(x & 3)
			x >>= 2
		}
		dst, from = dst[k:], from+k
	}
}

// TranslateFrame translates reading frame offset (0..2) of the sequence,
// or of its reverse complement when reverse is set, straight from the
// packed words through a 64-entry codon table. It equals
// Unpack().Translate(offset) forward and
// Unpack().ReverseComplement().Translate(offset) in reverse, without
// either copy.
func (p *PackedNucSeq) TranslateFrame(offset int, reverse bool) ProtSeq {
	if offset < 0 || offset > 2 || p.n < offset+3 {
		return nil
	}
	out := make(ProtSeq, (p.n-offset)/3)
	// Each read of the payload yields up to codonsPerRead consecutive
	// codons, lowest-address codon in the low bits. Forward, codon i
	// starts offset+3i bases in; reverse, its lowest-address base sits
	// n-3-offset-3i bases in, so a read serves codons in falling order.
	const codonsPerRead = 10
	for i := 0; i < len(out); i += codonsPerRead {
		dst := out[i:min(i+codonsPerRead, len(out))]
		if !reverse {
			x := p.bits(offset + 3*i)
			for k := range dst {
				dst[k] = fieldAA[x&63]
				x >>= 6
			}
			continue
		}
		x := p.bits(p.n - offset - 3*(i+len(dst)))
		for k := len(dst) - 1; k >= 0; k-- {
			dst[k] = fieldRevAA[x&63]
			x >>= 6
		}
	}
	return out
}

// bits returns the 64 payload bits starting at element i, element i in
// the low bits; bits past the last word read as zero (as does a shift
// by 64, when i starts a word).
func (p *PackedNucSeq) bits(i int) uint64 {
	w, sh := i/NucsPerWord, 2*uint(i%NucsPerWord)
	x := p.words[w] >> sh
	if w+1 < len(p.words) {
		x |= p.words[w+1] << (64 - sh)
	}
	return x
}

// Bytes serializes the packed words little-endian, the byte stream an AXI
// master would fetch from DRAM.
func (p *PackedNucSeq) Bytes() []byte {
	b := make([]byte, 8*len(p.words))
	for i, w := range p.words {
		for j := 0; j < 8; j++ {
			b[8*i+j] = byte(w >> (8 * uint(j)))
		}
	}
	return b
}
