package bitpar

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"fabp/internal/bio"
	"fabp/internal/isa"
	"fabp/internal/subonly"
)

func TestNewKernelValidation(t *testing.T) {
	if _, err := NewKernel(nil, 0); err == nil {
		t.Error("empty program must fail")
	}
	prog := isa.MustEncodeProtein(bio.ProtSeq{bio.Met})
	if _, err := NewKernel(prog, -1); err == nil {
		t.Error("negative threshold must fail")
	}
	if _, err := NewKernel(prog, 4); err == nil {
		t.Error("oversized threshold must fail")
	}
	k, err := NewKernel(prog, 2)
	if err != nil {
		t.Fatal(err)
	}
	if k.QueryElems() != 3 || k.Threshold() != 2 {
		t.Error("accessors")
	}
}

// TestKernelMatchesGoldenModel is the central equivalence proof: the
// bit-parallel kernel must produce exactly the naive golden model's hits
// across random queries, references, thresholds and block boundaries.
func TestKernelMatchesGoldenModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		p := bio.RandomProtSeq(rng, 1+rng.Intn(20))
		prog := isa.MustEncodeProtein(p)
		threshold := rng.Intn(len(prog) + 1)
		// Lengths straddling the 64-position block boundary matter most.
		refLen := len(prog) + rng.Intn(300)
		ref := bio.RandomNucSeq(rng, refLen)

		k, err := NewKernel(prog, threshold)
		if err != nil {
			t.Fatal(err)
		}
		got := k.Align(ref)
		want := subonly.Align(prog, ref, threshold)
		if len(got) != len(want) {
			t.Fatalf("trial %d (q=%d t=%d ref=%d): %d hits vs golden %d",
				trial, len(prog), threshold, refLen, len(got), len(want))
		}
		for i := range want {
			if got[i].Pos != want[i].Pos || got[i].Score != want[i].Score {
				t.Fatalf("trial %d hit %d: %+v vs golden %+v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestKernelBlockBoundaryExact(t *testing.T) {
	// Plant perfect matches exactly at positions 63, 64, 127, 128.
	rng := rand.New(rand.NewSource(2))
	p := bio.ProtSeq{bio.Met, bio.Trp, bio.Lys} // no Ser, no degeneracy loss
	gene := bio.EncodeGene(rng, p)
	prog := isa.MustEncodeProtein(p)
	for _, pos := range []int{0, 1, 62, 63, 64, 65, 127, 128, 191} {
		ref := bio.RandomNucSeq(rng, 256)
		copy(ref[pos:], gene)
		k, _ := NewKernel(prog, len(prog))
		found := false
		for _, h := range k.Align(ref) {
			if h.Pos == pos && h.Score == len(prog) {
				found = true
			}
		}
		if !found {
			t.Errorf("perfect match at %d not found", pos)
		}
	}
}

func TestKernelShortReference(t *testing.T) {
	prog := isa.MustEncodeProtein(bio.ProtSeq{bio.Met, bio.Trp})
	k, _ := NewKernel(prog, 0)
	if hits := k.Align(bio.NucSeq{bio.A, bio.U}); hits != nil {
		t.Error("short reference must yield nil")
	}
}

func TestKernelThresholdZeroCoversAll(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := bio.RandomProtSeq(rng, 5)
	prog := isa.MustEncodeProtein(p)
	ref := bio.RandomNucSeq(rng, 500)
	k, _ := NewKernel(prog, 0)
	hits := k.Align(ref)
	if len(hits) != len(ref)-len(prog)+1 {
		t.Errorf("threshold 0: %d hits, want %d", len(hits), len(ref)-len(prog)+1)
	}
}

func TestFetchEdges(t *testing.T) {
	ref := make(bio.NucSeq, 70)
	for i := range ref {
		ref[i] = bio.U // all ones in both planes
	}
	p := packPlanes(ref)
	if got := fetch(p.b0, 0); got != ^uint64(0) {
		t.Errorf("fetch(0) = %x", got)
	}
	// Negative offsets read zero-padding at the low end.
	all := ^uint64(0)
	if got := fetch(p.b0, -2); got != all<<2 {
		t.Errorf("fetch(-2) = %x", got)
	}
	// Beyond the end reads zeros.
	if got := fetch(p.b0, 65); got != 0x1F {
		t.Errorf("fetch(65) = %x, want 0x1f", got)
	}
	if got := fetch(p.b0, 10_000); got != 0 {
		t.Errorf("fetch far = %x", got)
	}
}

// maskEval is the truth-table oracle for the fused mux form: the positions
// whose current nucleotide is in the 4-entry accept mask.
func maskEval(mask uint8, c0, c1 uint64) uint64 {
	var m uint64
	if mask&1 != 0 { // A = 00
		m |= ^c1 & ^c0
	}
	if mask&2 != 0 { // C = 01
		m |= ^c1 & c0
	}
	if mask&4 != 0 { // G = 10
		m |= c1 & ^c0
	}
	if mask&8 != 0 { // U = 11
		m |= c1 & c0
	}
	return m
}

// TestMaskEval pins the mux-form element evaluation (expandMux + match)
// to the accept-mask truth table for every mask over random plane words.
func TestMaskEval(t *testing.T) {
	// c = G (c1=1, c0=0) in lane 0; A in lane 1 (bits zero).
	c0, c1 := uint64(0), uint64(1)
	g, a := expandMux(1<<bio.G), expandMux(1<<bio.A)
	if m := g.match(c0, c1); m&1 != 1 || m&2 != 0 {
		t.Errorf("G mask eval = %x", m)
	}
	if m := a.match(c0, c1); m&1 != 0 || m&2 == 0 {
		t.Errorf("A mask eval = %x", m)
	}
	full, empty := expandMux(0xF), expandMux(0)
	if full.match(0x5A, 0xA5) != lowMask(64) {
		t.Error("full mask must accept everything")
	}
	if empty.match(0x5A, 0xA5) != 0 {
		t.Error("empty mask must accept nothing")
	}
	rng := rand.New(rand.NewSource(11))
	for mask := uint8(0); mask < 16; mask++ {
		mm := expandMux(mask)
		for trial := 0; trial < 8; trial++ {
			c0, c1 := rng.Uint64(), rng.Uint64()
			if got, want := mm.match(c0, c1), maskEval(mask, c0, c1); got != want {
				t.Fatalf("mask %04b: mux form %x, truth table %x", mask, got, want)
			}
		}
	}
}

func TestAlignPlanesSharedAcrossKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ref := bio.RandomNucSeq(rng, 50_000)
	planes := PackReference(ref)
	if planes.Len() != len(ref) {
		t.Fatal("planes length")
	}
	for i := 0; i < 5; i++ {
		p := bio.RandomProtSeq(rng, 4+i)
		prog := isa.MustEncodeProtein(p)
		k, _ := NewKernel(prog, len(prog)/2)
		shared := k.AlignPlanes(planes)
		direct := k.Align(ref)
		if len(shared) != len(direct) {
			t.Fatalf("query %d: shared %d hits, direct %d", i, len(shared), len(direct))
		}
		for j := range shared {
			if shared[j] != direct[j] {
				t.Fatalf("query %d hit %d differs", i, j)
			}
		}
	}
}

// TestKernelParallelismInvariance: concurrent shard scans on many
// goroutines (sharing the process-wide scratch pool) concatenate into
// exactly the serial scan.
func TestKernelParallelismInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := bio.RandomProtSeq(rng, 12)
	prog := isa.MustEncodeProtein(p)
	ref := bio.RandomNucSeq(rng, 300_000)
	pp := PackReference(ref)
	k, _ := NewKernel(prog, len(prog)/2)
	serial := k.Align(ref)
	const shards = 8
	starts := len(ref) - len(prog) + 1
	per := ((starts+shards-1)/shards + 63) &^ 63
	parts := make([][]Hit, shards)
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parts[i] = k.AlignPlanesRange(pp, i*per, min((i+1)*per, starts))
		}(i)
	}
	wg.Wait()
	var parallel []Hit
	for _, part := range parts {
		parallel = append(parallel, part...)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("parallel %d hits vs serial %d", len(parallel), len(serial))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("hit %d differs", i)
		}
	}
}

var sinkHits []Hit

// BenchmarkKernelK1 scans one 256 K-start shard (sched.DefaultShardLen)
// with a single query at the paper's 0.85 threshold fraction, per query
// length, and reports kernel throughput in cells (query elements ×
// window starts) per second.
func BenchmarkKernelK1(b *testing.B) {
	const shard = 256 << 10
	rng := rand.New(rand.NewSource(4))
	for _, aa := range []int{20, 40, 60, 100} {
		prog := isa.MustEncodeProtein(bio.RandomProtSeq(rng, aa))
		pp := PackReference(bio.RandomNucSeq(rng, shard+len(prog)-1))
		k, err := NewKernel(prog, int(0.85*float64(len(prog))+0.5))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%daa", aa), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkHits = k.AlignPlanesRange(pp, 0, shard)
			}
			cells := float64(len(prog)) * shard * float64(b.N)
			b.ReportMetric(cells/b.Elapsed().Seconds()/1e9, "Gcells/s")
		})
	}
}

// TestAlignPlanesRangeMatchesFull: shard-range scans concatenated in order
// must reproduce the full scan exactly, for ragged and aligned boundaries.
func TestAlignPlanesRangeMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		p := bio.RandomProtSeq(rng, 2+rng.Intn(15))
		prog := isa.MustEncodeProtein(p)
		ref := bio.RandomNucSeq(rng, len(prog)+rng.Intn(3000))
		k, err := NewKernel(prog, rng.Intn(len(prog)+1))
		if err != nil {
			t.Fatal(err)
		}
		planes := PackReference(ref)
		full := k.AlignPlanes(planes)
		n := len(ref) - len(prog) + 1

		// 64-aligned shards.
		var sharded []Hit
		for lo := 0; lo < n; lo += 128 {
			hi := lo + 128
			if hi > n {
				hi = n
			}
			sharded = append(sharded, k.AlignPlanesRange(planes, lo, hi)...)
		}
		assertSameHits(t, trial, full, sharded)

		// Ragged (unaligned) split point: trimming must still be exact.
		cut := rng.Intn(n + 1)
		ragged := append(k.AlignPlanesRange(planes, 0, cut),
			k.AlignPlanesRange(planes, cut, n)...)
		assertSameHits(t, trial, full, ragged)

		// Out-of-range requests are clamped, not panics.
		assertSameHits(t, trial, k.AlignPlanesRange(planes, 0, 3), k.AlignPlanesRange(planes, -5, 3))
		if got := k.AlignPlanesRange(planes, n+100, n+200); got != nil {
			t.Fatalf("trial %d: beyond-end range returned %v", trial, got)
		}
	}
}

func TestAlignRangeMatchesAlign(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := bio.RandomProtSeq(rng, 6)
	prog := isa.MustEncodeProtein(p)
	ref := bio.RandomNucSeq(rng, 700)
	k, _ := NewKernel(prog, len(prog)/3)
	n := len(ref) - len(prog) + 1
	full := k.Align(ref)
	pp := &Planes{p: packPlanes(ref)}
	got := append(k.AlignPlanesRange(pp, 0, 100), k.AlignPlanesRange(pp, 100, n)...)
	assertSameHits(t, 0, full, got)
}

func assertSameHits(t *testing.T, trial int, want, got []Hit) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("trial %d: %d hits vs %d", trial, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("trial %d hit %d: %+v vs %+v", trial, i, got[i], want[i])
		}
	}
}
