// Package tblastn implements a from-scratch TBLASTN-style heuristic search:
// a protein query against a nucleotide database, via 6-frame translation,
// a BLOSUM62 k-mer neighborhood index, two-hit diagonal seeding and
// ungapped X-drop extension — the CPU baseline of the paper's Fig. 6. Its
// pipeline reproduces the random-memory-access hash-lookup behaviour the
// paper contrasts with FabP's sequential streaming (§II).
package tblastn

import (
	"fmt"

	"fabp/internal/bio"
)

// Frame identifies one of the six reading frames: 0,1,2 are the forward
// offsets; 3,4,5 are offsets 0,1,2 on the reverse complement.
type Frame int

// NumFrames is the count of reading frames in a full translated search.
const NumFrames = 6

// IsReverse reports whether the frame reads the reverse-complement strand.
func (f Frame) IsReverse() bool { return f >= 3 }

// Offset returns the nucleotide offset of the frame within its strand.
func (f Frame) Offset() int { return int(f) % 3 }

// String renders frames BLAST-style: +1..+3, -1..-3.
func (f Frame) String() string {
	if f.IsReverse() {
		return fmt.Sprintf("-%d", f.Offset()+1)
	}
	return fmt.Sprintf("+%d", f.Offset()+1)
}

// TranslatedFrame is one reading frame of the reference with enough
// geometry to map protein coordinates back to the original nucleotides.
type TranslatedFrame struct {
	Frame Frame
	// Prot is the frame's translation (may contain Stop residues).
	Prot bio.ProtSeq
	// refLen is the original reference length in nucleotides.
	refLen int
}

// NucStart returns the forward-strand nucleotide offset of the lowest-
// address base of the codon encoding protein position i (for reverse
// frames the codon is read right-to-left from there).
func (tf *TranslatedFrame) NucStart(i int) int {
	off := tf.Frame.Offset()
	if !tf.Frame.IsReverse() {
		return off + 3*i
	}
	// Position in the reverse-complement string is off+3i..off+3i+2, which
	// maps to forward positions refLen-1-(off+3i+2) .. refLen-1-(off+3i).
	return tf.refLen - 1 - (off + 3*i + 2)
}

// translateFrame reads frame f of the reference straight from its 2-bit
// payload (bio.PackedNucSeq.TranslateFrame): no unpacked or
// reverse-complemented copy of the reference is made.
func translateFrame(ref *bio.PackedNucSeq, f Frame) TranslatedFrame {
	return TranslatedFrame{
		Frame:  f,
		Prot:   ref.TranslateFrame(f.Offset(), f.IsReverse()),
		refLen: ref.Len(),
	}
}

// translateFrames returns the first n frames of the reference.
func translateFrames(ref bio.NucSeq, n int) []TranslatedFrame {
	packed := bio.Pack(ref)
	frames := make([]TranslatedFrame, n)
	for f := range frames {
		frames[f] = translateFrame(packed, Frame(f))
	}
	return frames
}

// Translate6 produces all six reading frames of the reference.
func Translate6(ref bio.NucSeq) []TranslatedFrame { return translateFrames(ref, NumFrames) }

// Translate3 produces only the forward frames — the configuration matching
// FabP, which searches the given strand.
func Translate3(ref bio.NucSeq) []TranslatedFrame { return translateFrames(ref, 3) }
