package bitpar

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"fabp/internal/bio"
	"fabp/internal/sched"
)

// asciiBuilders returns two builders in the same state: prefix letters
// appended, then carried down to keep (keep < 0: no carry), which leaves
// Len unaligned for most keeps.
func asciiBuilders(prefix bio.NucSeq, keep int) (*PlaneBuilder, *PlaneBuilder) {
	a, b := NewPlaneBuilder(), NewPlaneBuilder()
	for _, x := range []*PlaneBuilder{a, b} {
		x.Append(prefix)
		if keep >= 0 {
			x.Carry(keep)
		}
	}
	return a, b
}

// diffAppendASCII runs the two-pass oracle (bio.AppendNucASCII, then
// Append) and the fused append at the given span count on identical
// builders, and reports the first difference: Len, any plane word across
// the full capacity (so the zero-above-Len invariant is checked too), the
// consumed index or the error text.
func diffAppendASCII(prefix bio.NucSeq, keep int, src []byte, spans int) error {
	want, got := asciiBuilders(prefix, keep)
	dec, wantIdx, wantErr := bio.AppendNucASCII(nil, src)
	want.Append(dec)
	gotIdx, gotErr := got.appendASCII(src, sched.NewPool(spans), spans)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || gotIdx != wantIdx {
		return fmt.Errorf("error %v at %d, want %v at %d", gotErr, gotIdx, wantErr, wantIdx)
	}
	if got.Len() != want.Len() {
		return fmt.Errorf("Len %d, want %d", got.Len(), want.Len())
	}
	word := func(p []uint64, w int) uint64 {
		if w < len(p) {
			return p[w]
		}
		return 0
	}
	for w := 0; w < max(len(got.b0), len(want.b0)); w++ {
		if word(got.b0, w) != word(want.b0, w) || word(got.b1, w) != word(want.b1, w) {
			return fmt.Errorf("word %d = %#x/%#x, want %#x/%#x", w,
				word(got.b0, w), word(got.b1, w), word(want.b0, w), word(want.b1, w))
		}
	}
	return nil
}

// randomLetters is n bytes of mixed-case DNA/RNA letters.
func randomLetters(rng *rand.Rand, n int) []byte {
	const letters = "ACGTUacgtu"
	src := make([]byte, n)
	for i := range src {
		src[i] = letters[rng.Intn(len(letters))]
	}
	return src
}

// spanStarts is appendASCII's split of an n-byte read into spans.
func spanStarts(n, spans int) []int {
	starts := make([]int, spans)
	for i := range starts {
		starts[i] = i * n / spans
	}
	return starts
}

// TestAppendASCIIMatchesTwoPass pins the fused, span-parallel ASCII append
// to the two-pass decode-then-pack path at every span count 1–8, from
// aligned and carried (unaligned) builder lengths: plain letters, runs of
// every whitespace byte (longer than a plane word, too) placed at and
// across span boundaries, an invalid byte at the first and the last byte
// of every span, and two invalid bytes in different spans.
func TestAppendASCIIMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	prefix := bio.RandomNucSeq(rng, 1000)
	starts := []struct {
		name string
		keep int
	}{{"empty", 0}, {"uncarried", -1}, {"aligned", 128}, {"carried", 37}, {"carried-word", 64 + 63}}
	for spans := 1; spans <= 8; spans++ {
		for _, n := range []int{0, 1, 5, 63, 64, 65, 200, 1000, 5000} {
			for _, st := range starts {
				check := func(label string, src []byte) {
					t.Helper()
					if err := diffAppendASCII(prefix, st.keep, src, spans); err != nil {
						t.Fatalf("spans=%d n=%d start=%s %s: %v", spans, n, st.name, label, err)
					}
				}
				base := randomLetters(rng, n)
				check("letters", base)
				if n == 0 {
					continue
				}
				ss := spanStarts(n, spans)
				// Whitespace runs at and across every span boundary, short
				// and longer than one plane word.
				for _, run := range []int{1, 3, 70, 130} {
					src := append([]byte(nil), base...)
					for _, s := range ss {
						for j := s - run/2; j < s+run-run/2; j++ {
							if j >= 0 && j < n {
								src[j] = " \t\r\n"[rng.Intn(4)]
							}
						}
					}
					check(fmt.Sprintf("whitespace run %d", run), src)
				}
				// An invalid byte at the first, then the last, byte of every
				// span.
				for si, s := range ss {
					end := n
					if si+1 < spans {
						end = ss[si+1]
					}
					if end == s {
						continue // an empty span
					}
					for _, at := range []int{s, end - 1} {
						src := append([]byte(nil), base...)
						src[at] = "X*-5\x00"[rng.Intn(5)]
						check(fmt.Sprintf("invalid at %d (span %d)", at, si), src)
					}
				}
				// Two invalid bytes in different spans: the lower one wins.
				if spans > 1 && n >= spans {
					for a := 0; a < spans; a++ {
						for b := a + 1; b < spans; b++ {
							src := append([]byte(nil), base...)
							src[ss[b]] = 'N'
							src[(ss[a]+ss[a+1])/2] = 'x'
							check(fmt.Sprintf("invalid in spans %d and %d", a, b), src)
						}
					}
				}
			}
		}
	}
}

// TestAppendASCIIRunsSpansConcurrently drives the public entrypoint over a
// read large enough to split on a multi-worker pool, then appends a second
// read onto the unaligned result, so the race detector sees concurrent
// span writes into shared plane buffers.
func TestAppendASCIIRunsSpansConcurrently(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pool := sched.NewPool(4)
	got := NewPlaneBuilder()
	var want bio.NucSeq
	for _, n := range []int{4*asciiSpanBytes + 17, 2*asciiSpanBytes - 1, 3*asciiSpanBytes + 5} {
		src := randomLetters(rng, n)
		for i := 60; i < n; i += 61 {
			src[i] = '\n'
		}
		want, _, _ = bio.AppendNucASCII(want, src)
		if _, err := got.AppendASCII(src, pool); err != nil {
			t.Fatal(err)
		}
		assertPlanesEqual(t, fmt.Sprintf("read of %d bytes", n), got.Planes(), want)
	}
}

// FuzzAppendASCII compares the fused append with the two-pass path on
// arbitrary bytes, span counts 1–8 and builder start lengths.
func FuzzAppendASCII(f *testing.F) {
	f.Add([]byte("ACGT acgu\n\tTTx"), uint8(3), uint16(5))
	f.Add([]byte("GATTACA\r\n"), uint8(8), uint16(0))
	f.Add(make([]byte, 200), uint8(2), uint16(70))
	prefix := bio.RandomNucSeq(rand.New(rand.NewSource(1)), 300)
	f.Fuzz(func(t *testing.T, src []byte, spans uint8, keep uint16) {
		if err := diffAppendASCII(prefix, int(keep)%(len(prefix)+1), src, 1+int(spans)%8); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkStreamFrontEnd is the streaming scan's front end alone over a
// 60-column 4 Mi nt letter stream, read in 1 MiB reads with the
// stream's carry between chunks: the two-pass path (bio.AppendNucASCII
// into a NucSeq, then Append) against the fused AppendASCII on a pool of
// one worker and of GOMAXPROCS workers.
func BenchmarkStreamFrontEnd(b *testing.B) {
	const nt, read, chunk, keep = 4 << 20, 1 << 20, 1 << 20, 21
	src := randomLetters(rand.New(rand.NewSource(18)), nt+nt/60)
	for i := 60; i < len(src); i += 61 {
		src[i] = '\n'
	}
	run := func(b *testing.B, appendRead func(bld *PlaneBuilder, p []byte)) {
		bld := NewPlaneBuilder()
		b.SetBytes(int64(len(src)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bld.Reset()
			for off := 0; off < len(src); off += read {
				appendRead(bld, src[off:min(off+read, len(src))])
				if bld.Len() >= chunk {
					bld.Carry(keep)
				}
			}
		}
	}
	b.Run("two-pass", func(b *testing.B) {
		dec := make(bio.NucSeq, 0, read)
		run(b, func(bld *PlaneBuilder, p []byte) {
			dec, _, _ = bio.AppendNucASCII(dec[:0], p)
			bld.Append(dec)
		})
	})
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		pool := sched.NewPool(workers)
		b.Run(fmt.Sprintf("fused/workers=%d", workers), func(b *testing.B) {
			run(b, func(bld *PlaneBuilder, p []byte) {
				if _, err := bld.AppendASCII(p, pool); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}
