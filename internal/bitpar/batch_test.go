package bitpar

import (
	"fmt"
	"math/rand"
	"testing"

	"fabp/internal/bio"
	"fabp/internal/core"
	"fabp/internal/isa"
)

func TestNewBatchKernelValidation(t *testing.T) {
	prog := isa.MustEncodeProtein(bio.ProtSeq{bio.Met})
	if _, err := NewBatchKernel(nil, nil); err == nil {
		t.Error("empty batch must fail")
	}
	if _, err := NewBatchKernel([]isa.Program{prog}, []int{1, 2}); err == nil {
		t.Error("mismatched threshold count must fail")
	}
	if _, err := NewBatchKernel([]isa.Program{prog}, []int{-1}); err == nil {
		t.Error("negative threshold must fail")
	}
	if _, err := NewBatchKernel([]isa.Program{prog, nil}, []int{1, 0}); err == nil {
		t.Error("empty program in batch must fail")
	}
	bk, err := NewBatchKernel([]isa.Program{prog}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if bk.NumQueries() != 1 || bk.MaxElems() != 3 || bk.MinElems() != 3 ||
		bk.QueryElems(0) != 3 || bk.Threshold(0) != 2 {
		t.Error("accessors")
	}
}

// TestBatchKernelMatchesPerQuery is the batch equivalence proof: the fused
// scan must be bit-exact with K independent golden-model (core.Engine)
// scans across random mixed-length queries, thresholds, and reference
// lengths that straddle block boundaries.
func TestBatchKernelMatchesPerQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		nq := 1 + rng.Intn(6)
		progs := make([]isa.Program, nq)
		thresholds := make([]int, nq)
		for i := 0; i < nq; i++ {
			p := bio.RandomProtSeq(rng, 1+rng.Intn(18))
			progs[i] = isa.MustEncodeProtein(p)
			thresholds[i] = rng.Intn(len(progs[i]) + 1)
		}
		refLen := 3 + rng.Intn(400)
		ref := bio.RandomNucSeq(rng, refLen)
		ctxs := core.AppendContexts(nil, ref)
		pp := PackReference(ref)

		bk, err := NewBatchKernel(progs, thresholds)
		if err != nil {
			t.Fatal(err)
		}
		got := bk.AlignPlanes(pp)
		for qi := range progs {
			sameHits(t, fmt.Sprintf("trial %d query %d", trial, qi),
				got[qi], goldenHits(t, progs[qi], thresholds[qi], ctxs, 0, refLen))
		}
	}
}

// TestBatchKernelRangeSharding proves the fused shard primitive: tiling
// [0, Starts) into ranges (including unaligned ones) and concatenating
// per-shard hit lists reproduces the whole-reference fused scan exactly,
// regardless of where shard boundaries fall relative to block boundaries
// and each query's own valid-start limit.
func TestBatchKernelRangeSharding(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	progs := []isa.Program{
		isa.MustEncodeProtein(bio.RandomProtSeq(rng, 4)),
		isa.MustEncodeProtein(bio.RandomProtSeq(rng, 11)),
		isa.MustEncodeProtein(bio.RandomProtSeq(rng, 2)),
	}
	thresholds := []int{5, 9, 3}
	ref := bio.RandomNucSeq(rng, 700)
	pp := PackReference(ref)
	bk, err := NewBatchKernel(progs, thresholds)
	if err != nil {
		t.Fatal(err)
	}
	want := bk.AlignPlanes(pp)
	starts := bk.Starts(pp.Len())
	for _, shardLen := range []int{37, 64, 65, 128, 300, starts + 10} {
		got := make([][]Hit, bk.NumQueries())
		for lo := 0; lo < starts; lo += shardLen {
			hi := lo + shardLen
			if hi > starts {
				hi = starts
			}
			got = bk.AlignPlanesRange(pp, lo, hi, got)
		}
		for qi := range want {
			if len(got[qi]) != len(want[qi]) {
				t.Fatalf("shardLen %d query %d: %d hits, want %d",
					shardLen, qi, len(got[qi]), len(want[qi]))
			}
			for i := range want[qi] {
				if got[qi][i] != want[qi][i] {
					t.Fatalf("shardLen %d query %d hit %d: %+v, want %+v",
						shardLen, qi, i, got[qi][i], want[qi][i])
				}
			}
		}
	}
}

// TestBatchKernelShortReference: queries longer than the reference get no
// hits while shorter batch-mates still scan their valid starts.
func TestBatchKernelShortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	short := isa.MustEncodeProtein(bio.RandomProtSeq(rng, 2)) // 6 elements
	long := isa.MustEncodeProtein(bio.RandomProtSeq(rng, 20)) // 60 elements
	ref := bio.RandomNucSeq(rng, 30)
	pp := PackReference(ref)
	bk, err := NewBatchKernel([]isa.Program{short, long}, []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	got := bk.AlignPlanes(pp)
	if len(got[1]) != 0 {
		t.Errorf("query longer than reference got %d hits, want 0", len(got[1]))
	}
	sameHits(t, "short query", got[0], goldenHits(t, short, 0, core.AppendContexts(nil, ref), 0, len(ref)))
}

// BenchmarkBatchVsPerQuery measures the fused win the batch kernel exists
// for: one plane pass for the whole batch vs K passes.
func BenchmarkBatchVsPerQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	const nq = 16
	progs := make([]isa.Program, nq)
	thresholds := make([]int, nq)
	kernels := make([]*Kernel, nq)
	for i := range progs {
		progs[i] = isa.MustEncodeProtein(bio.RandomProtSeq(rng, 12))
		thresholds[i] = len(progs[i]) * 4 / 5
		kernels[i], _ = NewKernel(progs[i], thresholds[i])
	}
	pp := PackReference(bio.RandomNucSeq(rng, 1<<18))
	bk, err := NewBatchKernel(progs, thresholds)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bk.AlignPlanes(pp)
		}
	})
	b.Run("per-query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, k := range kernels {
				k.AlignPlanes(pp)
			}
		}
	})
}

// goldenHits runs the scalar golden model (core.Engine) over window starts
// [lo, hi), in the kernel's hit type.
func goldenHits(t *testing.T, prog isa.Program, threshold int, ctxs []uint8, lo, hi int) []Hit {
	t.Helper()
	e, err := core.NewEngine(prog, threshold)
	if err != nil {
		t.Fatal(err)
	}
	var out []Hit
	for _, h := range e.AlignContexts(ctxs, lo, hi) {
		out = append(out, Hit{Pos: h.Pos, Score: h.Score})
	}
	return out
}

func sameHits(t *testing.T, what string, got, want []Hit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d hits, golden %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: hit %d %+v, golden %+v", what, i, got[i], want[i])
		}
	}
}

// plantGenes copies a mutated encoding of p into ref at random positions,
// so high thresholds still produce hits.
func plantGenes(rng *rand.Rand, ref bio.NucSeq, p bio.ProtSeq, copies int) {
	for c := 0; c < copies; c++ {
		gene := bio.MutateNucSubstitutions(rng, bio.EncodeGene(rng, p), rng.Float64()*0.1)
		if len(gene) <= len(ref) {
			copy(ref[rng.Intn(len(ref)-len(gene)+1):], gene)
		}
	}
}

// budgetThresholds returns thresholds for an L-element query that put
// the mismatch budget at both ends of every counter width 0–6 and into
// the generic fallback, plus threshold 0 (budget L), L and a random one.
func budgetThresholds(rng *rand.Rand, L int) []int {
	ths := []int{0, L, rng.Intn(L + 1)}
	for _, b := range []int{1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64, 100} {
		if b < L {
			ths = append(ths, L-b)
		}
	}
	return ths
}

// TestFusedScanMatchesEngine is the lazy-staging property test: K=1
// kernels, their best-hit scans and mixed-K batches must equal the scalar
// golden model for queries of 1–150 aa (crossing the 32-element staging
// chunk many times), every counter width 0–6 and the generic fallback,
// unaligned scan starts and references ending mid-block.
func TestFusedScanMatchesEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	sizes := []int{1, 10, 11, 21, 22, 43, 50, 100, 150}
	for trial := 0; trial < 24; trial++ {
		aa := 1 + rng.Intn(150)
		if trial < len(sizes) {
			aa = sizes[trial]
		}
		p := bio.RandomProtSeq(rng, aa)
		prog := isa.MustEncodeProtein(p)
		L := len(prog)
		ref := bio.RandomNucSeq(rng, L+rng.Intn(400))
		plantGenes(rng, ref, p, 2)
		ctxs := core.AppendContexts(nil, ref)
		pp := PackReference(ref)
		starts := len(ref) - L + 1
		lo := rng.Intn(starts)
		hi := lo + 1 + rng.Intn(starts-lo)

		ths := budgetThresholds(rng, L)
		for _, th := range ths {
			k, err := NewKernel(prog, th)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("%d aa t=%d ref=%d", aa, th, len(ref))
			sameHits(t, what+" whole", k.AlignPlanes(pp), goldenHits(t, prog, th, ctxs, 0, starts))
			sameHits(t, fmt.Sprintf("%s [%d,%d)", what, lo, hi),
				k.AlignPlanesRange(pp, lo, hi), goldenHits(t, prog, th, ctxs, lo, hi))
		}

		k, _ := NewKernel(prog, L)
		e, _ := core.NewEngine(prog, L)
		got, gok := k.BestHitPlanes(pp)
		want, wok := e.BestHit(ref)
		if gok != wok || got.Pos != want.Pos || got.Score != want.Score {
			t.Fatalf("%d aa best hit %+v/%v, golden %+v/%v", aa, got, gok, want, wok)
		}

		// Mixed K: every threshold variant plus a second query of another
		// length, in one fused pass over an unaligned range.
		other := isa.MustEncodeProtein(bio.RandomProtSeq(rng, 1+rng.Intn(150)))
		progs := []isa.Program{other}
		bths := []int{rng.Intn(len(other) + 1)}
		for _, th := range ths {
			progs = append(progs, prog)
			bths = append(bths, th)
		}
		bk, err := NewBatchKernel(progs, bths)
		if err != nil {
			t.Fatal(err)
		}
		blo := rng.Intn(bk.Starts(len(ref))+1) - 1
		bhi := blo + rng.Intn(len(ref))
		perQuery := bk.AlignPlanesRange(pp, blo, bhi, nil)
		for qi := range progs {
			sameHits(t, fmt.Sprintf("%d aa batch query %d t=%d [%d,%d)", aa, qi, bths[qi], blo, bhi),
				perQuery[qi], goldenHits(t, progs[qi], bths[qi], ctxs, blo, bhi))
		}
	}
}

// TestFusedScanStagingIsolation: words staged for one block are never
// read in the next, and a batch-mate that needs words past the point where
// another query died still gets them. The reference alternates blocks
// holding a planted exact hit (fully staged) with blocks where every lane
// of an exact-match query dies within the first staging chunk.
func TestFusedScanStagingIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := bio.RandomProtSeq(rng, 60) // 180 elements: six staging chunks
	for i := range p {
		if p[i] == bio.Ser { // Ser's two codon families are not one element
			p[i] = bio.Ala
		}
	}
	prog := isa.MustEncodeProtein(p)
	ref := make(bio.NucSeq, 64*10+len(prog)) // all A: lanes die on the first mismatch
	for _, pos := range []int{5, 64*4 + 17, 64*8 + 63} {
		copy(ref[pos:], bio.EncodeGene(rng, p))
	}
	ctxs := core.AppendContexts(nil, ref)
	pp := PackReference(ref)
	short := isa.MustEncodeProtein(bio.RandomProtSeq(rng, 3))
	long := isa.MustEncodeProtein(bio.RandomProtSeq(rng, 150))
	for _, tc := range []struct {
		name  string
		progs []isa.Program
		ths   []int
	}{
		{"exact K=1", []isa.Program{prog}, []int{len(prog)}},
		{"dies first, then needs more", []isa.Program{prog, long}, []int{len(prog), len(long) - 40}},
		{"needs more, then dies", []isa.Program{long, prog}, []int{len(long) - 40, len(prog)}},
		{"short exact, then exact", []isa.Program{short, prog}, []int{len(short), len(prog)}},
	} {
		bk, err := NewBatchKernel(tc.progs, tc.ths)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range [][2]int{{0, bk.Starts(len(ref))}, {3, 64*8 + 64}, {64 + 1, 64*4 + 18}} {
			got := bk.AlignPlanesRange(pp, r[0], r[1], nil)
			for qi := range tc.progs {
				sameHits(t, fmt.Sprintf("%s query %d [%d,%d)", tc.name, qi, r[0], r[1]),
					got[qi], goldenHits(t, tc.progs[qi], tc.ths[qi], ctxs, r[0], r[1]))
			}
		}
	}
	k, _ := NewKernel(prog, len(prog))
	if hits := k.AlignPlanes(pp); len(hits) != 3 {
		t.Errorf("planted exact hits: got %+v, want 3", hits)
	}
}
