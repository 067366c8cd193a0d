package fabp

import (
	"context"
	"math"
	"strings"
	"testing"

	"fabp/internal/bitpar"
	"fabp/internal/core"
)

// buildShardDB builds a multi-record database of the given total size with
// planted genes (large enough for the bit-parallel auto path when asked).
func buildShardDB(t *testing.T, seed int64, size int) (*Database, []PlantedGene) {
	t.Helper()
	ref, genes := SyntheticReference(seed, size, 6, 50)
	decoy, _ := SyntheticReference(seed+1, 3_000, 0, 0)
	var fasta strings.Builder
	fasta.WriteString(">main primary\n")
	fasta.WriteString(ref.String())
	fasta.WriteString("\n>tail decoy\n")
	fasta.WriteString(decoy.String())
	fasta.WriteString("\n")
	d, err := BuildDatabase(strings.NewReader(fasta.String()))
	if err != nil {
		t.Fatal(err)
	}
	return d, genes
}

func sameRecordHits(t *testing.T, label string, want, got []RecordHit) {
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

// TestShardedAlignDatabaseGolden proves the sharded scan bit-exact against
// the golden serial path (scan the whole concatenated sequence with the
// scalar engine, then attribute) for both kernels, with shards small enough to
// force many tiles and ragged tails.
func TestShardedAlignDatabaseGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		size   int
		kernel Kernel
	}{
		{"bitparallel-large", 90_000, KernelBitParallel},
		{"scalar-small", 20_000, KernelScalar},
		{"auto-large", 70_000, KernelAuto},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, genes := buildShardDB(t, 400+int64(tc.size), tc.size)
			q, err := NewQuery(genes[2].Protein)
			if err != nil {
				t.Fatal(err)
			}
			a, err := NewAligner(q, WithThresholdFraction(0.8), WithKernelType(tc.kernel),
				WithShardLen(4096))
			if err != nil {
				t.Fatal(err)
			}
			// Golden path: one full-sequence scalar-engine scan + attribution.
			serial := toRecordHits(d.d.Attribute(a.engine().Align(d.d.Seq()), q.Elements()))
			sharded := a.AlignDatabase(d)
			sameRecordHits(t, tc.name, serial, sharded)
			found := false
			for _, h := range sharded {
				if h.RecordID == "main" && h.Offset == genes[2].Pos {
					found = true
				}
			}
			if !found {
				t.Error("planted gene lost by sharded scan")
			}
		})
	}
}

// TestAlignStreamHonorsKernel is the regression for the silent-scalar bug:
// a streamed scan must produce exactly Align's hits under every kernel
// mode, including across chunk boundaries.
func TestAlignStreamHonorsKernel(t *testing.T) {
	defer func(old int) { streamChunkLetters = old }(streamChunkLetters)
	streamChunkLetters = 4096 // force many chunk-boundary carries

	ref, genes := SyntheticReference(77, 30_000, 3, 40)
	q, err := NewQuery(genes[1].Protein)
	if err != nil {
		t.Fatal(err)
	}
	for _, kernel := range []Kernel{KernelScalar, KernelBitParallel, KernelAuto} {
		a, err := NewAligner(q, WithThresholdFraction(0.7), WithKernelType(kernel))
		if err != nil {
			t.Fatal(err)
		}
		want := a.Align(ref)
		if len(want) == 0 {
			t.Fatal("no hits; test is vacuous")
		}
		var got []Hit
		if err := a.AlignStream(strings.NewReader(ref.String()), func(h Hit) error {
			got = append(got, h)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("kernel %s: streamed %d hits, Align %d", kernel, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("kernel %s: hit %d = %+v, want %+v", kernel, i, got[i], want[i])
			}
		}
	}
}

// TestAlignBatchShardedGolden: the sharded fused batch (a Queries scan of
// a Reference) must be bit-exact with the serial golden model (one scalar
// core.Engine per query) and with per-query aligners.
func TestAlignBatchShardedGolden(t *testing.T) {
	ref, genes := SyntheticReference(555, 80_000, 6, 45)
	var queries []*Query
	for _, g := range genes {
		q, err := NewQuery(g.Protein)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	res, err := Scan(context.Background(), ScanRequest{Queries: queries, Reference: ref, ThresholdFrac: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	sharded := make([][]Hit, len(res.PerQuery))
	for qi, qh := range res.PerQuery {
		sharded[qi] = qh.Hits
	}
	letters := ref.d.Seq()
	serial := make([][]core.Hit, len(queries))
	for i, q := range queries {
		thr, err := core.ThresholdFromFraction(0.8, q.MaxScore())
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.NewEngine(q.program, thr)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = eng.Align(letters)
	}
	if len(sharded) != len(serial) {
		t.Fatalf("query count %d vs %d", len(sharded), len(serial))
	}
	for qi := range serial {
		if len(sharded[qi]) != len(serial[qi]) {
			t.Fatalf("query %d: %d hits vs serial %d", qi, len(sharded[qi]), len(serial[qi]))
		}
		for j := range serial[qi] {
			if sharded[qi][j] != (Hit{Pos: serial[qi][j].Pos, Score: serial[qi][j].Score}) {
				t.Fatalf("query %d hit %d: %+v vs %+v", qi, j, sharded[qi][j], serial[qi][j])
			}
		}
	}
	// And against a single-query aligner.
	a, err := NewAligner(queries[0], WithThresholdFraction(0.8), WithKernelType(KernelBitParallel))
	if err != nil {
		t.Fatal(err)
	}
	single := a.Align(ref)
	if len(single) != len(sharded[0]) {
		t.Fatalf("single-query: %d hits vs batch %d", len(single), len(sharded[0]))
	}
}

// TestBatchValidationNamesEveryBadQuery: a batch with several invalid
// queries must fail up front naming all of them, for a Queries scan and
// Session.RunBatch alike.
func TestBatchValidationNamesEveryBadQuery(t *testing.T) {
	ref, genes := SyntheticReference(606, 70_000, 2, 40)
	good, err := NewQuery(genes[0].Protein)
	if err != nil {
		t.Fatal(err)
	}
	queries := []*Query{good, nil, good, nil}
	batch := func(qs []*Query, frac float64) error {
		_, err := Scan(context.Background(), ScanRequest{Queries: qs, Reference: ref, ThresholdFrac: frac})
		return err
	}
	err = batch(queries, 0.8)
	if err == nil {
		t.Fatal("batch with nil queries must fail")
	}
	if !strings.Contains(err.Error(), "1") || !strings.Contains(err.Error(), "3") {
		t.Errorf("error must name indices 1 and 3: %v", err)
	}

	d, _ := buildShardDB(t, 707, 20_000)
	s, err := NewSession(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.RunBatch(context.Background(), queries, 0.8); err == nil ||
		!strings.Contains(err.Error(), "1") || !strings.Contains(err.Error(), "3") {
		t.Errorf("session batch must name indices 1 and 3: %v", err)
	}

	// A bad fraction fails the whole batch before any scanning. A zero
	// fraction is ScanRequest's 0.8 default, but out of range for
	// RunBatch.
	if err := batch([]*Query{good}, 1.5); err == nil {
		t.Error("fraction above 1 must fail")
	}
	if _, _, err := s.RunBatch(context.Background(), []*Query{good}, 0); err == nil {
		t.Error("zero fraction must fail")
	}
}

// TestThresholdFractionBoundaries pins the rounding fix: fractions whose
// float product lands just below an integer must round to it, and invalid
// fractions fail at option time.
func TestThresholdFractionBoundaries(t *testing.T) {
	q, err := NewQuery("MKWVTFISLL") // 10 residues, MaxScore 30
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		frac float64
		want int
	}{
		{0.7, 21},  // 0.7*30 = 20.999999999999996 — truncation gave 20
		{0.9, 27},  // representable product
		{1.0, 30},  // full score stays in range
		{0.01, 0},  // rounds down to zero, still valid
		{0.5, 15},  // exact
		{0.95, 29}, // 28.5 rounds half away from zero
	} {
		a, err := NewAligner(q, WithThresholdFraction(tc.frac))
		if err != nil {
			t.Fatalf("frac %v: %v", tc.frac, err)
		}
		if a.Threshold() != tc.want {
			t.Errorf("frac %v: threshold %d, want %d", tc.frac, a.Threshold(), tc.want)
		}
	}
	for _, bad := range []float64{0, -0.2, 1.0001, 7, math.NaN()} {
		if _, err := NewAligner(q, WithThresholdFraction(bad)); err == nil {
			t.Errorf("fraction %v must fail", bad)
		}
	}
}

// TestSessionReusesCachedPlanes: repeated RunBatch calls against one
// resident database must reuse one packed-plane image.
func TestSessionReusesCachedPlanes(t *testing.T) {
	d, genes := buildShardDB(t, 808, 70_000)
	s, err := NewSession(d)
	if err != nil {
		t.Fatal(err)
	}
	var queries []*Query
	for _, g := range genes[:3] {
		q, err := NewQuery(g.Protein)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	// Start cold: the first batch packs the database once, and the other
	// two read the planes it holds.
	d.EvictPlanes()
	packs := bitpar.PackCount()
	for round := 0; round < 3; round++ {
		perQuery, _, err := s.RunBatch(context.Background(), queries, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		if len(perQuery) != 3 {
			t.Fatal("batch shape")
		}
	}
	if n := bitpar.PackCount() - packs; n != 1 {
		t.Errorf("3 batches over one cold database packed %d times, want 1", n)
	}
	if !d.PlanesResident() {
		t.Error("the database does not hold its planes after the batches")
	}
}
