package bitpar

import (
	"math/bits"

	"fabp/internal/bio"
	"fabp/internal/sched"
)

// asciiSpanBytes is the smallest span a parallel ASCII append hands a
// worker: reads under two spans (64 KiB) decode inline on the calling
// goroutine, so small-chunk streams stay allocation-free and never pay a
// fan-out that costs more than the decode.
const asciiSpanBytes = 32 << 10

const (
	// notLetter has the bits a NucCode sets only for whitespace and
	// invalid bytes, in each of eight bytes: x&notLetter == 0 means all
	// eight are letters.
	notLetter = 0xFCFCFCFCFCFCFCFC
	// lsbs and gather8 collect bit 0 of each of eight bytes into one byte
	// (byte j's bit becomes bit j): (x & lsbs) * gather8 >> 56. Every
	// partial product lands on its own bit, so the multiply never carries.
	lsbs    = 0x0101010101010101
	gather8 = 0x0102040810204080
	// hiBits has bit 7 of each byte, set in a code only for whitespace
	// and invalid bytes.
	hiBits = 0x8080808080808080
)

// tailCodes classifies the last group of fewer than eight bytes like
// packASCII's main loop does, byte j's code in byte j; missing bytes read
// as NucSpace.
func tailCodes(s []byte) uint64 {
	x := ^uint64(0) / 0xFF * bio.NucSpace
	for j, c := range s {
		x = x&^(0xFF<<(8*j)) | uint64(bio.NucCode(c))<<(8*j)
	}
	return x
}

// compact8 squeezes the whitespace out of eight codes, one per byte,
// stopping at the first NucInvalid: it returns the letter codes one per
// byte from byte 0 (zero bytes above them), their count, and the invalid
// byte's index (8 when none). It is packASCII's path for the groups
// holding anything but letters — in wrapped FASTA text, one in eight —
// and removes each whitespace byte with a mask and a shift rather than a
// branch per byte.
func compact8(x uint64) (y uint64, c, bad int) {
	bad = 8
	// A NucInvalid byte (0xFF) is the only code with bits 0 and 7 both set.
	if inv := x & (x >> 7) & lsbs; inv != 0 {
		bad = bits.TrailingZeros64(inv) >> 3
		// From the invalid byte on, everything reads as whitespace.
		keep := uint64(1)<<(8*uint(bad)) - 1
		x = x&keep | ^uint64(0)/0xFF*bio.NucSpace&^keep
	}
	y, c = x, 8
	for ws := y & hiBits; ws != 0; ws = y & hiBits {
		// Drop the lowest whitespace byte: the bytes above it move down.
		low := uint64(1)<<(uint(bits.TrailingZeros64(ws))&^7) - 1
		y = y&low | y>>8&^low
		c--
	}
	return y, c, bad
}

// packASCII decodes src's letters straight into plane elements from
// element offset n0 on, stopping at the first invalid byte; it returns the
// letters packed and the invalid byte's index (len(src) when none). Eight
// bytes at a time, one table load per byte classifies them (compact8
// squeezes out whitespace when there is any) and two multiplies gather
// their code bits into one byte per plane — no per-letter branch or
// store — which a word register accumulates until it is stored whole. The word holding n0 is read first
// (it may hold earlier elements) and every word is stored whole, zeros
// above the last letter included, so b0/b1 must span 2 + (n0+len(src)+63)/64
// words and the caller must be their only writer from n0 on.
func packASCII(b0, b1 []uint64, n0 int, src []byte) (n, bad int) {
	w, k := 1+n0>>6, n0&63 // word being built, and its next free bit
	var lo, hi uint64
	if k != 0 {
		lo, hi = b0[w], b1[w]
	}
	bad = len(src)
	for i := 0; i < len(src); i += 8 {
		var x uint64
		if i+8 <= len(src) {
			// One NucCode load per byte, byte j's code in byte j. Kept
			// inline: as a call it does not inline, and the loop state
			// spilled around it costs more than the decode.
			s := src[i : i+8 : i+8]
			x = uint64(bio.NucCode(s[0])) | uint64(bio.NucCode(s[1]))<<8 |
				uint64(bio.NucCode(s[2]))<<16 | uint64(bio.NucCode(s[3]))<<24 |
				uint64(bio.NucCode(s[4]))<<32 | uint64(bio.NucCode(s[5]))<<40 |
				uint64(bio.NucCode(s[6]))<<48 | uint64(bio.NucCode(s[7]))<<56
		} else {
			x = tailCodes(src[i:])
		}
		c := 8
		if x&notLetter != 0 {
			var j int
			if x, c, j = compact8(x); j < 8 {
				bad = i + j
			}
		}
		l8 := (x & lsbs) * gather8 >> 56
		h8 := (x >> 1 & lsbs) * gather8 >> 56
		lo |= l8 << uint(k&63)
		hi |= h8 << uint(k&63)
		if k += c; k >= 64 {
			b0[w], b1[w] = lo, hi
			w++
			k -= 64
			// The letters that did not fit start the next word.
			lo, hi = l8>>uint((c-k)&15), h8>>uint((c-k)&15)
		}
		if bad < len(src) {
			break
		}
	}
	b0[w], b1[w] = lo, hi
	return (w-1)<<6 + k - n0, bad
}

// orShifted ORs n elements packed from element 0 (l0/l1, front padding
// word included) into the builder's planes at element offset off, two
// funnel-shifted halves per word. The planes must be zero from off on and
// span 2 + (off+n+63)/64 words.
func (b *PlaneBuilder) orShifted(l0, l1 []uint64, off, n int) {
	w, s := 1+off>>6, uint(off&63)
	for j := 1; j <= (n+63)/64; j++ {
		b.b0[w] |= l0[j] << s
		b.b1[w] |= l1[j] << s
		w++
		if s != 0 {
			b.b0[w] |= l0[j] >> (64 - s)
			b.b1[w] |= l1[j] >> (64 - s)
		}
	}
}

// asciiSpan is one span of a parallel ASCII append.
type asciiSpan struct {
	src    []byte
	start  int      // src's offset in the whole read
	l0, l1 []uint64 // span-local planes (element 0 at word 1); nil for span 0
	n, bad int      // packASCII's results
}

// AppendASCII decodes the ASCII base letters in src (DNA or RNA, either
// case, whitespace skipped) straight into the planes — the fused form of
// bio.AppendNucASCII followed by Append, with no intermediate NucSeq. On an
// invalid byte it appends every letter before it and returns the byte's
// index and bio's error for it, exactly as AppendNucASCII does; otherwise
// consumed is len(src).
//
// A read of at least 64 KiB runs as one span per pool worker. The spans
// decode in parallel: the first straight into the planes at Len (nothing
// else writes them meanwhile), the others into span-local planes from
// element 0, since their offsets depend on how many letters the spans
// before them hold. The caller then ORs each later span in at the running
// offset, a word-level funnel shift costing 1/64 of the decode, and stops
// after the span holding the lowest invalid byte. Smaller reads, and a nil
// pool, decode inline in one pass.
func (b *PlaneBuilder) AppendASCII(src []byte, pool *sched.Pool) (consumed int, err error) {
	spans := 1
	if pool != nil {
		spans = min(pool.Workers(), len(src)/asciiSpanBytes)
	}
	return b.appendASCII(src, pool, spans)
}

// appendASCII is AppendASCII with the span count fixed (spans <= 1 runs
// inline), so tests can drive any split.
func (b *PlaneBuilder) appendASCII(src []byte, pool *sched.Pool, spans int) (int, error) {
	// Every path writes at most one letter per byte.
	b.grow(2 + (b.n+len(src)+63)/64)
	bad := len(src)
	if spans <= 1 {
		var n int
		n, bad = packASCII(b.b0, b.b1, b.n, src)
		b.n += n
	} else {
		sp := b.splitSpans(src, spans)
		pool.Each(len(sp), func(i int) {
			s := &sp[i]
			if i == 0 {
				s.n, s.bad = packASCII(b.b0, b.b1, b.n, s.src)
			} else {
				s.n, s.bad = packASCII(s.l0, s.l1, 0, s.src)
			}
		})
		for i := range sp {
			s := &sp[i]
			if i > 0 {
				b.orShifted(s.l0, s.l1, b.n, s.n)
			}
			b.n += s.n
			if s.bad < len(s.src) {
				bad = s.start + s.bad
				break
			}
		}
	}
	if bad < len(src) {
		return bad, bio.InvalidLetter(src[bad])
	}
	return bad, nil
}

// splitSpans cuts src into spans of near-equal byte length and hands every
// span but the first its local planes, carved from the builder's reusable
// spill buffer.
func (b *PlaneBuilder) splitSpans(src []byte, spans int) []asciiSpan {
	sp := make([]asciiSpan, spans)
	need := 0
	for i := range sp {
		lo, hi := i*len(src)/spans, (i+1)*len(src)/spans
		sp[i] = asciiSpan{src: src[lo:hi], start: lo}
		if i > 0 {
			need += 2 * (2 + (hi-lo+63)/64)
		}
	}
	if cap(b.spill) < need {
		b.spill = make([]uint64, need)
	}
	buf := b.spill[:need]
	for i := 1; i < spans; i++ {
		words := 2 + (len(sp[i].src)+63)/64
		sp[i].l0, sp[i].l1, buf = buf[:words], buf[words:2*words], buf[2*words:]
	}
	return sp
}
