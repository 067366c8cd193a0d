package bitpar

import (
	"sync"

	"fabp/internal/bio"
)

// pack4lo / pack4hi drive the table-driven bulk packer: the index byte
// packs four 2-bit nucleotide codes (element k in bits 2k..2k+1) and the
// tables give the four low / high encoding bits in bits 0..3 — four
// elements become one lookup per plane instead of four shift-and-or
// round trips through memory.
var pack4lo, pack4hi [256]uint8

func init() {
	for idx := 0; idx < 256; idx++ {
		var lo, hi uint8
		for k := 0; k < 4; k++ {
			nt := idx >> (2 * k) & 3
			lo |= uint8(nt&1) << k
			hi |= uint8(nt>>1) << k
		}
		pack4lo[idx] = lo
		pack4hi[idx] = hi
	}
}

// packSpan packs seq into b0/b1 starting at element offset n0, using the
// lookup tables for whole 64-element words. b0/b1 carry the usual one-word
// front padding and must already span the packed range; every bit at
// element offsets >= n0 must be zero on entry (the planes invariant), and
// the word holding n0 may hold earlier elements' bits below it.
func packSpan(b0, b1 []uint64, n0 int, seq bio.NucSeq) {
	i := 0
	// Fill the partial word up to the next 64-element boundary.
	for ; i < len(seq) && (n0+i)&63 != 0; i++ {
		nt := seq[i]
		w, s := 1+(n0+i)>>6, uint((n0+i)&63)
		b0[w] |= uint64(nt&1) << s
		b1[w] |= uint64(nt>>1&1) << s
	}
	// Whole words: sixteen 4-element table lookups build each plane word
	// in registers, then one store per plane.
	for ; i+64 <= len(seq); i += 64 {
		blk := seq[i : i+64 : i+64]
		var lo, hi uint64
		for g := 0; g < 64; g += 4 {
			idx := blk[g]&3 | (blk[g+1]&3)<<2 | (blk[g+2]&3)<<4 | blk[g+3]<<6
			lo |= uint64(pack4lo[idx]) << uint(g)
			hi |= uint64(pack4hi[idx]) << uint(g)
		}
		w := 1 + (n0+i)>>6
		b0[w] = lo
		b1[w] = hi
	}
	// Trailing partial word.
	for ; i < len(seq); i++ {
		nt := seq[i]
		w, s := 1+(n0+i)>>6, uint((n0+i)&63)
		b0[w] |= uint64(nt&1) << s
		b1[w] |= uint64(nt>>1&1) << s
	}
}

// PlaneBuilder packs a reference into bit-planes incrementally: Append
// extends the planes in place, Carry slides the cross-chunk overlap (the
// last Lq+1 elements: Lq−1 unscanned window starts plus two elements of
// dependent-bit context) down to the front by whole-word extraction, and
// Planes exposes the current contents as a *Planes view for the kernels.
// The backing buffers grow to the high-water chunk size once and are then
// reused — with GetPlaneBuilder's pool, steady-state streaming packs every
// chunk with zero plane allocations.
//
// Invariant: every bit at element offsets >= n is zero across the full
// capacity of both planes (Append assumes it, Carry and Reset restore it).
type PlaneBuilder struct {
	b0, b1 []uint64 // one front padding word + data words + zero tail
	n      int      // packed elements
	view   planes   // reslice window the last Planes() call handed out
	pub    Planes
	// spill backs the span-local planes of parallel AppendASCII calls.
	spill []uint64
}

// NewPlaneBuilder returns an empty builder. Most callers want the pooled
// GetPlaneBuilder instead.
func NewPlaneBuilder() *PlaneBuilder {
	b := &PlaneBuilder{}
	b.grow(2)
	return b
}

// grow extends the backing arrays to at least `words` whole uint64s
// (padding included), preserving contents. Fresh capacity is zeroed by
// allocation, keeping the >=n invariant for free.
func (b *PlaneBuilder) grow(words int) {
	if len(b.b0) >= words {
		return
	}
	c := 2 * len(b.b0)
	if c < words {
		c = words
	}
	nb0 := make([]uint64, c)
	nb1 := make([]uint64, c)
	copy(nb0, b.b0)
	copy(nb1, b.b1)
	b.b0, b.b1 = nb0, nb1
}

// Len returns the packed element count.
func (b *PlaneBuilder) Len() int { return b.n }

// Words returns the plane words the packed elements occupy (padding
// excluded) — the telemetry unit of packing progress.
func (b *PlaneBuilder) Words() int { return (b.n + 63) / 64 }

// Append packs seq onto the end of the planes.
func (b *PlaneBuilder) Append(seq bio.NucSeq) {
	if len(seq) == 0 {
		return
	}
	nNew := b.n + len(seq)
	b.grow(2 + (nNew+63)/64)
	packSpan(b.b0, b.b1, b.n, seq)
	b.n = nNew
}

// Carry keeps only the last keep elements, sliding their bits to the
// front of the planes word by word (fetch does the cross-word shifts, so
// the carry costs ~keep/64 word extractions per plane, never a repack of
// the overlap). A keep >= Len is a no-op; Len becomes keep.
func (b *PlaneBuilder) Carry(keep int) {
	if keep < 0 {
		keep = 0
	}
	if keep >= b.n {
		return
	}
	off := b.n - keep
	words := (keep + 63) / 64
	// off >= 1, so every fetch reads at or above the word it replaces;
	// ascending order never reads a word already overwritten.
	for w := 0; w < words; w++ {
		b.b0[1+w] = fetch(b.b0, off+64*w)
		b.b1[1+w] = fetch(b.b1, off+64*w)
	}
	// Restore the >=keep invariant: mask the tail of the last kept word,
	// zero the words the data vacated.
	if r := uint(keep & 63); r != 0 {
		mask := uint64(1)<<r - 1
		b.b0[words] &= mask
		b.b1[words] &= mask
	}
	oldWords := (b.n + 63) / 64
	for w := words; w < oldWords; w++ {
		b.b0[1+w] = 0
		b.b1[1+w] = 0
	}
	b.n = keep
}

// Reset empties the builder, keeping its capacity.
func (b *PlaneBuilder) Reset() {
	words := (b.n + 63) / 64
	clear(b.b0[1 : 1+words])
	clear(b.b1[1 : 1+words])
	b.n = 0
}

// Planes returns the current contents as a packed-reference view, laid
// out exactly as PackReference builds them (front and tail padding word
// included). The view aliases the builder's buffers: it is valid until
// the next Append, Carry, Reset or Release, and callers must finish
// scanning it before mutating the builder — the pack-once-per-chunk
// contract of the streaming scan.
func (b *PlaneBuilder) Planes() *Planes {
	words := (b.n + 63) / 64
	b.view = planes{b0: b.b0[:words+2], b1: b.b1[:words+2], n: b.n}
	b.pub.p = &b.view
	return &b.pub
}

// planeBuilderPool recycles builders across streams so a steady serving
// workload allocates plane memory only while a new high-water chunk size
// is being established.
var planeBuilderPool = sync.Pool{New: func() any { return NewPlaneBuilder() }}

// GetPlaneBuilder returns an empty pooled builder; pair with Release.
func GetPlaneBuilder() *PlaneBuilder {
	b := planeBuilderPool.Get().(*PlaneBuilder)
	b.Reset()
	return b
}

// Release returns the builder (and its capacity) to the pool. The caller
// must not touch the builder or any Planes view of it afterwards.
func (b *PlaneBuilder) Release() { planeBuilderPool.Put(b) }
