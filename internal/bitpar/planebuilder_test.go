package bitpar

import (
	"math/rand"
	"testing"

	"fabp/internal/bio"
	"fabp/internal/isa"
)

// assertPlanesEqual compares a builder's view against the one-shot packer
// word for word — the packed layout is the kernel ABI, so equality must be
// exact, padding included.
func assertPlanesEqual(t *testing.T, label string, got *Planes, want bio.NucSeq) {
	t.Helper()
	ref := packPlanes(want)
	p := got.p
	if p.n != ref.n {
		t.Fatalf("%s: n = %d, want %d", label, p.n, ref.n)
	}
	if len(p.b0) != len(ref.b0) || len(p.b1) != len(ref.b1) {
		t.Fatalf("%s: plane lengths %d/%d, want %d/%d", label, len(p.b0), len(p.b1), len(ref.b0), len(ref.b1))
	}
	for w := range ref.b0 {
		if p.b0[w] != ref.b0[w] || p.b1[w] != ref.b1[w] {
			t.Fatalf("%s: word %d = %#x/%#x, want %#x/%#x",
				label, w, p.b0[w], p.b1[w], ref.b0[w], ref.b1[w])
		}
	}
	// The letter view reads the same planes back as the packed sequence.
	if letters := got.AppendLetters(nil); letters.String() != want.String() {
		t.Fatalf("%s: letter view differs from the packed sequence", label)
	}
}

// TestPackSpanMatchesScalarPack covers the bulk packer's alignment edge
// cases: lengths around word boundaries, packed in one shot.
func TestPackSpanMatchesScalarPack(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 3, 63, 64, 65, 127, 128, 129, 1000, 4096} {
		seq := bio.RandomNucSeq(rng, n)
		b := NewPlaneBuilder()
		b.Append(seq)
		assertPlanesEqual(t, "one-shot", b.Planes(), seq)
	}
}

// TestPlaneBuilderIncrementalAppendAndCarry drives the builder the way the
// stream does — random-sized appends interleaved with carries — and checks
// every intermediate state against a from-scratch pack of the same window.
func TestPlaneBuilderIncrementalAppendAndCarry(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		b := GetPlaneBuilder()
		var window bio.NucSeq // what the builder should currently hold
		for step := 0; step < 12; step++ {
			piece := bio.RandomNucSeq(rng, rng.Intn(300))
			b.Append(piece)
			window = append(window, piece...)
			if rng.Intn(2) == 0 {
				keep := rng.Intn(len(window) + 64)
				b.Carry(keep)
				if keep < len(window) {
					window = append(window[:0], window[len(window)-keep:]...)
				}
			}
			if b.Len() != len(window) {
				t.Fatalf("trial %d step %d: Len %d, want %d", trial, step, b.Len(), len(window))
			}
		}
		assertPlanesEqual(t, "incremental", b.Planes(), window)
		b.Release()
		window = window[:0]
	}
}

// TestPlaneBuilderCarryExact pins the carry word math on boundary keeps.
func TestPlaneBuilderCarryExact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	seq := bio.RandomNucSeq(rng, 1000)
	for _, keep := range []int{0, 1, 2, 63, 64, 65, 127, 128, 500, 999, 1000, 1500} {
		b := NewPlaneBuilder()
		b.Append(seq)
		b.Carry(keep)
		want := seq
		if keep < len(seq) {
			want = seq[len(seq)-keep:]
		}
		assertPlanesEqual(t, "carry", b.Planes(), want)

		// The builder must stay appendable after a carry: the invariant
		// (zero bits past Len) is what Append relies on.
		tail := bio.RandomNucSeq(rng, 130)
		b.Append(tail)
		assertPlanesEqual(t, "carry+append", b.Planes(), append(append(bio.NucSeq{}, want...), tail...))
	}
}

// TestPlaneBuilderKernelConformance scans builder-produced planes with the
// single and fused batch kernels against the same planes packed one-shot.
func TestPlaneBuilderKernelConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	prot := bio.RandomProtSeq(rng, 8)
	prog := isa.MustEncodeProtein(prot)
	k, err := NewKernel(prog, 12)
	if err != nil {
		t.Fatal(err)
	}
	seq := bio.RandomNucSeq(rng, 3000)
	b := GetPlaneBuilder()
	defer b.Release()
	b.Append(seq[:1200])
	b.Carry(200)
	b.Append(seq[1200:2000])
	window := seq[1000:2000]
	want := k.AlignPlanes(PackReference(window))
	got := k.AlignPlanes(b.Planes())
	if len(want) != len(got) {
		t.Fatalf("kernel over builder planes: %d hits, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("hit %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestPlaneBuilderSteadyStateZeroAllocs is the pooled-packing contract:
// once the chunk high-water mark is established, an append/scan/carry
// cycle allocates nothing.
func TestPlaneBuilderSteadyStateZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	chunk := bio.RandomNucSeq(rng, 4096)
	b := GetPlaneBuilder()
	defer b.Release()
	// Warm to the high-water mark.
	b.Append(chunk)
	b.Carry(65)
	allocs := testing.AllocsPerRun(100, func() {
		b.Append(chunk)
		_ = b.Planes()
		b.Carry(65)
	})
	if allocs != 0 {
		t.Fatalf("steady-state append/planes/carry allocates %.1f/op, want 0", allocs)
	}
}

func BenchmarkPackSpanBulk(b *testing.B) {
	seq := bio.RandomNucSeq(rand.New(rand.NewSource(1)), 1<<16)
	pb := NewPlaneBuilder()
	b.SetBytes(int64(len(seq)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb.Reset()
		pb.Append(seq)
	}
}

func BenchmarkPackScalarLoop(b *testing.B) {
	seq := bio.RandomNucSeq(rand.New(rand.NewSource(1)), 1<<16)
	words := (len(seq) + 63) / 64
	b0 := make([]uint64, words+2)
	b1 := make([]uint64, words+2)
	b.SetBytes(int64(len(seq)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(b0)
		clear(b1)
		for j, nt := range seq {
			w, s := 1+j/64, uint(j%64)
			b0[w] |= uint64(nt&1) << s
			b1[w] |= uint64(nt>>1&1) << s
		}
	}
}
