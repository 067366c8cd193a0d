package fabp

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fabp/internal/bio"
	"fabp/internal/bitpar"
	"fabp/internal/core"
	"fabp/internal/isa"
	"fabp/internal/sched"
)

// mustConformAligner builds an aligner or fails the test.
func mustConformAligner(t *testing.T, q *Query, opts ...AlignerOption) *Aligner {
	t.Helper()
	a, err := NewAligner(q, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func assertHitsEqual(t *testing.T, label string, want, got []Hit) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d hits, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: hit %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// coreHits converts the scalar engine's hits to the public type.
func coreHits(raw []core.Hit) []Hit {
	hits := make([]Hit, len(raw))
	for i, h := range raw {
		hits[i] = Hit(h)
	}
	return hits
}

// recordHitsAsHits maps a one-record database's hits back to reference
// positions.
func recordHitsAsHits(rh []RecordHit) []Hit {
	got := make([]Hit, len(rh))
	for i, h := range rh {
		got[i] = Hit{Pos: h.Offset, Score: h.Score}
	}
	return got
}

// checkAlignConformance is the differential oracle: the scalar engine's
// whole-reference scan of the parsed letters defines the truth, and every
// execution strategy — both kernels and KernelAuto through every
// entrypoint that takes a kernel or has no kernel option, sharded database
// scans under both kernels, and the chunked stream scan at chunk sizes
// straddling the L_q-element carry boundary — must reproduce it hit for
// hit, in order. Every one of them reads the target's bit-planes, the
// explicit-scalar arms included, so the truth never does: a packing bug
// cannot agree with itself. References shorter than the query must yield
// no hits anywhere.
func checkAlignConformance(t *testing.T, protein, refStr string, thr int) {
	t.Helper()
	q, err := NewQuery(protein)
	if err != nil {
		t.Skip(err) // fuzzer found an invalid protein; not a conformance bug
	}
	ref, err := NewReference(refStr)
	if err != nil {
		t.Skip(err)
	}
	letters, _ := bio.ParseNucSeq(refStr) // NewReference accepted it
	eng, err := core.NewEngine(q.program, thr)
	if err != nil {
		t.Fatal(err)
	}
	want := coreHits(eng.Align(letters))

	scalar := mustConformAligner(t, q, WithKernelType(KernelScalar), WithThreshold(thr))
	assertHitsEqual(t, "scalar Align", want, scalar.Align(ref))
	bitp := mustConformAligner(t, q, WithKernelType(KernelBitParallel), WithThreshold(thr))
	assertHitsEqual(t, "bitparallel Align", want, bitp.Align(ref))

	// KernelAuto must equal KernelScalar whatever the reference length:
	// the uncancelable and shard-checkpointed single-reference scans, Best
	// and Scan take the kernel explicitly.
	auto := mustConformAligner(t, q, WithThreshold(thr))
	assertHitsEqual(t, "auto Align", want, auto.Align(ref))
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, a := range []*Aligner{scalar, auto} {
		got, err := a.AlignContext(cctx, ref)
		if err != nil {
			t.Fatal(err)
		}
		assertHitsEqual(t, "AlignContext/"+a.Kernel().String(), want, got)
		res, err := Scan(cctx, ScanRequest{Query: q, Reference: ref, Threshold: &thr, Kernel: a.Kernel(), NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		assertHitsEqual(t, "Scan/"+a.Kernel().String(), want, res.Hits)
	}
	wb, wantOK := eng.BestHit(letters)
	wantBest := Hit(wb)
	for _, a := range []*Aligner{scalar, auto} {
		if best, ok := a.Best(ref); best != wantBest || ok != wantOK {
			t.Fatalf("%s Best = %+v, %v; engine %+v, %v", a.Kernel(), best, ok, wantBest, wantOK)
		}
	}

	// The batch and Session entrypoints have no kernel option: one-query
	// batches at the fraction that rounds back to thr.
	dbase, err := DatabaseFromReference("conf", ref)
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(thr) / float64(q.MaxScore())
	batch, err := Scan(cctx, ScanRequest{Queries: []*Query{q}, Reference: ref, ThresholdFrac: frac})
	if err != nil {
		t.Fatal(err)
	}
	assertHitsEqual(t, "Scan{Queries}", want, batch.PerQuery[0].Hits)
	dbBatch, err := AlignDatabaseBatchContext(cctx, dbase, []*Query{q}, frac)
	if err != nil {
		t.Fatal(err)
	}
	assertHitsEqual(t, "AlignDatabaseBatchContext", want, recordHitsAsHits(dbBatch[0]))

	// A Reference and the Database it came from: the view scans the
	// database's own payload and planes, both kernels, Best included.
	view := dbase.AsReference()
	for _, a := range []*Aligner{scalar, auto} {
		assertHitsEqual(t, "AsReference Align/"+a.Kernel().String(), recordHitsAsHits(a.AlignDatabase(dbase)), a.Align(view))
		if best, ok := a.Best(view); best != wantBest || ok != wantOK {
			t.Fatalf("AsReference %s Best = %+v, %v; engine %+v, %v", a.Kernel(), best, ok, wantBest, wantOK)
		}
	}
	sess, err := NewSession(dbase)
	if err != nil {
		t.Fatal(err)
	}
	run, _, err := sess.Run(cctx, q, frac)
	if err != nil {
		t.Fatal(err)
	}
	assertHitsEqual(t, "Session.Run", want, recordHitsAsHits(run))
	runBatch, _, err := sess.RunBatch(cctx, []*Query{q}, frac)
	if err != nil {
		t.Fatal(err)
	}
	assertHitsEqual(t, "Session.RunBatch", want, recordHitsAsHits(runBatch[0]))

	// Sharded database scans: small shards so even short references tile
	// into several, under both kernels and bounded parallelism.
	for _, kernel := range []Kernel{KernelScalar, KernelBitParallel} {
		a := mustConformAligner(t, q, WithKernelType(kernel), WithThreshold(thr),
			WithShardLen(64), WithParallelism(2))
		assertHitsEqual(t, "sharded AlignDatabase/"+kernel.String(), want, recordHitsAsHits(a.AlignDatabase(dbase)))
	}

	// Chunked stream scans. scanChunks clamps the chunk to at least m+2
	// letters, so m+2 is the smallest (carry-heaviest) chunking; the last
	// value is large enough that no carry happens at all. Both kernels read
	// the stream through scanChunks, so the scalar arm exercises the carry
	// at every one of these chunk sizes too, and so does the Scan{Stream}
	// request both arms wrap.
	m := q.Elements()
	defer func(old int) { streamChunkLetters = old }(streamChunkLetters)
	for _, chunk := range []int{m + 2, m + 3, 2*m + 1, 5*m + 7, len(refStr) + 1} {
		streamChunkLetters = chunk
		for _, kernel := range []Kernel{KernelScalar, KernelBitParallel} {
			a := mustConformAligner(t, q, WithKernelType(kernel), WithThreshold(thr))
			var got []Hit
			err := a.AlignStream(strings.NewReader(refStr), func(h Hit) error {
				got = append(got, h)
				return nil
			})
			if err != nil {
				t.Fatalf("chunk %d AlignStream/%s: %v", chunk, kernel, err)
			}
			assertHitsEqual(t, "chunked AlignStream/"+kernel.String(), want, got)

			got = got[:0]
			_, err = Scan(cctx, ScanRequest{
				Query: q, Stream: strings.NewReader(refStr), Threshold: &thr, Kernel: kernel,
				Emit: func(qi int, h Hit) error {
					if qi != 0 {
						t.Fatalf("Scan{Stream}: hit for query %d of a one-query scan", qi)
					}
					got = append(got, h)
					return nil
				},
			})
			if err != nil {
				t.Fatalf("chunk %d Scan{Stream}/%s: %v", chunk, kernel, err)
			}
			assertHitsEqual(t, "chunked Scan{Stream}/"+kernel.String(), want, got)
		}
	}
}

// checkBatchConformance is the batch arm of the differential oracle: one
// scalar engine per query over the parsed letters, at the threshold
// derived from the fraction on its own, defines the truth, and the fused
// batch kernel —
// whole-scan and under shard sizes straddling the longest query's carry
// overlap — the Scan{Queries} request over a reference and a database,
// and the fused batch stream must reproduce it per query, hit for hit, in
// order. Queries deliberately mix lengths so the
// fused scan's per-query window clamping is exercised.
func checkBatchConformance(t *testing.T, proteins []string, refStr string, frac float64) {
	t.Helper()
	queries := make([]*Query, 0, len(proteins))
	maxElems := 0
	for _, p := range proteins {
		q, err := NewQuery(p)
		if err != nil {
			t.Skip(err) // fuzzer found an invalid protein; not a conformance bug
		}
		queries = append(queries, q)
		if q.Elements() > maxElems {
			maxElems = q.Elements()
		}
	}
	ref, err := NewReference(refStr)
	if err != nil {
		t.Skip(err)
	}
	letters, _ := bio.ParseNucSeq(refStr) // NewReference accepted it
	plan, err := ScanRequest{Queries: queries, Reference: ref, ThresholdFrac: frac}.plan()
	if err != nil {
		t.Fatal(err)
	}
	progs, thresholds := make([]isa.Program, len(queries)), plan.thresholds
	for i, q := range queries {
		progs[i] = q.program
	}

	// Scalar truth: one engine per query over the whole reference.
	want := make([][]Hit, len(queries))
	for i, prog := range progs {
		thr, err := core.ThresholdFromFraction(frac, len(prog))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.NewEngine(prog, thr)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = coreHits(eng.Align(letters))
	}

	assertBatch := func(label string, got [][]Hit) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d queries, want %d", label, len(got), len(want))
		}
		for qi := range want {
			assertHitsEqual(t, fmt.Sprintf("%s query %d", label, qi), want[qi], got[qi])
		}
	}

	// The fused batch kernel: whole scan, then shard sizes straddling the
	// longest query's carry overlap (64 is the smallest legal tile; the
	// aligned sizes around maxElems force shards whose overlap reads cross
	// into the next shard's block).
	bk, err := bitpar.NewBatchKernel(progs, thresholds)
	if err != nil {
		t.Fatal(err)
	}
	shardLens := []int{0, 64, 128, (maxElems + 63) &^ 63, (maxElems + 127) &^ 63}
	for _, shardLen := range shardLens {
		x := (&executor{bk: bk, shardLen: shardLen, pool: sched.Shared(), tm: &defaultAlignerTM}).ready(RetryPolicy{})
		raw, _, err := x.run(context.Background(), planesOf(ref.d), nil)
		if err != nil {
			t.Fatal(err)
		}
		got := make([][]Hit, len(raw))
		for i, hits := range raw {
			got[i] = toHits(hits)
		}
		assertBatch(fmt.Sprintf("fused shardLen=%d", shardLen), got)
	}

	// The Queries request: one fused scan, per-query answers in PerQuery,
	// against the reference and the one-record database of it.
	res, err := Scan(context.Background(), ScanRequest{Queries: queries, Reference: ref, ThresholdFrac: frac})
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]Hit, len(res.PerQuery))
	for i, qh := range res.PerQuery {
		got[i] = qh.Hits
	}
	assertBatch("Scan{Queries}/Reference", got)
	dbase, err := DatabaseFromReference("conf", ref)
	if err != nil {
		t.Fatal(err)
	}
	res, err = Scan(context.Background(), ScanRequest{Queries: queries, Database: dbase, ThresholdFrac: frac})
	if err != nil {
		t.Fatal(err)
	}
	for i, qh := range res.PerQuery {
		got[i] = recordHitsAsHits(qh.RecordHits)
	}
	assertBatch("Scan{Queries}/Database", got)

	// The fused batch STREAMING path: one pooled pack per chunk shared by
	// every query, across chunk sizes straddling the longest query's carry
	// (maxElems+2 is the clamp floor, the last runs carry-free) — streamed
	// hits must be byte-identical to the scalar truth per query.
	defer func(old int) { streamChunkLetters = old }(streamChunkLetters)
	for _, chunk := range []int{maxElems + 2, 2*maxElems + 1, len(refStr) + 1} {
		streamChunkLetters = chunk
		got := make([][]Hit, len(queries))
		_, err := Scan(context.Background(), ScanRequest{Queries: queries, Stream: strings.NewReader(refStr), ThresholdFrac: frac,
			Emit: func(qi int, h Hit) error {
				got[qi] = append(got[qi], h)
				return nil
			}})
		if err != nil {
			t.Fatalf("chunk %d Scan{Queries, Stream}: %v", chunk, err)
		}
		assertBatch(fmt.Sprintf("batch stream chunk=%d", chunk), got)
	}
}

// conformanceCase derives a bounded random workload from fuzz inputs.
func conformanceCase(protSeed, refSeed int64, protLen uint8, refLen uint16, thrPct uint8) (protein, ref string, thr int) {
	n := 2 + int(protLen)%19 // 2..20 residues
	prot := bio.RandomProtSeq(rand.New(rand.NewSource(protSeed)), n)
	m := 3 * n
	nuc := bio.RandomNucSeq(rand.New(rand.NewSource(refSeed)), m+int(refLen)%4096)
	// Threshold between 20% and 60% of max score: low enough that random
	// references produce hits, high enough that they stay sparse.
	thr = m * (2 + int(thrPct)%5) / 10
	if thr < 1 {
		thr = 1
	}
	return prot.String(), nuc.String(), thr
}

// batchConformanceCase derives a mixed-length batch workload from fuzz
// inputs: three proteins of staggered lengths over one reference, plus a
// shared threshold fraction. Low fractions widen the mismatch budget past
// four counter planes, exercising the fused kernel's generic spill arm as
// well as the register-resident ones.
func batchConformanceCase(protSeed, refSeed int64, protLen uint8, refLen uint16, thrPct uint8) (proteins []string, ref string, frac float64) {
	rng := rand.New(rand.NewSource(protSeed))
	for k := 0; k < 3; k++ {
		n := 2 + (int(protLen)+5*k)%19 // 2..20 residues, staggered per query
		proteins = append(proteins, bio.RandomProtSeq(rng, n).String())
	}
	nuc := bio.RandomNucSeq(rand.New(rand.NewSource(refSeed)), 60+int(refLen)%4096)
	frac = float64(5+int(thrPct)%5) / 10 // 0.5..0.9
	return proteins, nuc.String(), frac
}

// FuzzAlignConformance fuzzes the differential oracle; run with
//
//	go test -fuzz FuzzAlignConformance .
func FuzzAlignConformance(f *testing.F) {
	f.Add(int64(1), int64(2), uint8(6), uint16(900), uint8(0))
	f.Add(int64(3), int64(4), uint8(2), uint16(64), uint8(1))
	f.Add(int64(5), int64(6), uint8(20), uint16(4000), uint8(2))
	f.Add(int64(7), int64(8), uint8(11), uint16(130), uint8(4))
	f.Fuzz(func(t *testing.T, protSeed, refSeed int64, protLen uint8, refLen uint16, thrPct uint8) {
		protein, ref, thr := conformanceCase(protSeed, refSeed, protLen, refLen, thrPct)
		checkAlignConformance(t, protein, ref, thr)
		proteins, bref, frac := batchConformanceCase(protSeed, refSeed, protLen, refLen, thrPct)
		checkBatchConformance(t, proteins, bref, frac)
	})
}

// TestAlignConformanceRandomTrials runs the same oracle over random trials
// in a plain `go test`, plus planted-gene workloads whose hits are real
// homologies rather than chance threshold crossings.
func TestAlignConformanceRandomTrials(t *testing.T) {
	for trial := int64(0); trial < 12; trial++ {
		protein, ref, thr := conformanceCase(trial, trial+100, uint8(3*trial), uint16(211*trial), uint8(trial))
		checkAlignConformance(t, protein, ref, thr)
	}

	// Reference lengths around the 64-letter plane word and the 64–128 nt
	// range where the two kernels' costs cross, then one shorter than its
	// 20-residue query.
	for i, n := range []int{1, 63, 64, 65, 127, 128, 40} {
		rng := rand.New(rand.NewSource(int64(300 + i)))
		residues := 2 + 3*i
		if n == 40 {
			residues = 20
		}
		protein := bio.RandomProtSeq(rng, residues).String()
		checkAlignConformance(t, protein, bio.RandomNucSeq(rng, n).String(), 1+residues)
	}

	ref, genes := SyntheticReference(77, 30_000, 4, 25)
	refStr := ref.String()
	for i, g := range genes {
		mut, _, err := MutateProtein(int64(i), g.Protein, 0.05, 0)
		if err != nil {
			t.Fatal(err)
		}
		q, err := NewQuery(mut)
		if err != nil {
			t.Fatal(err)
		}
		checkAlignConformance(t, mut, refStr, q.MaxScore()*4/5)
	}

	// The batch arm over random mixed-length workloads, then the planted
	// genes as one batch whose hits are real homologies.
	for trial := int64(0); trial < 8; trial++ {
		proteins, bref, frac := batchConformanceCase(trial, trial+200, uint8(5*trial), uint16(301*trial), uint8(trial))
		checkBatchConformance(t, proteins, bref, frac)
	}
	var planted []string
	for _, g := range genes {
		planted = append(planted, g.Protein)
	}
	checkBatchConformance(t, planted, refStr, 0.8)
}
