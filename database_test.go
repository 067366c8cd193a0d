package fabp

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

func buildFacadeDB(t *testing.T) (*Database, []PlantedGene) {
	t.Helper()
	ref, genes := SyntheticReference(55, 40_000, 4, 50)
	var fasta strings.Builder
	// Split the reference into two records at a gene-free point (20_000 is
	// inside a slot boundary region only probabilistically; instead keep
	// one record so planted positions stay valid, plus a decoy record).
	fasta.WriteString(">main primary sequence\n")
	fasta.WriteString(ref.String())
	fasta.WriteString("\n>decoy\n")
	decoy, _ := SyntheticReference(56, 5_000, 0, 0)
	fasta.WriteString(decoy.String())
	fasta.WriteString("\n")
	d, err := BuildDatabase(strings.NewReader(fasta.String()))
	if err != nil {
		t.Fatal(err)
	}
	return d, genes
}

func TestBuildDatabaseBasics(t *testing.T) {
	d, _ := buildFacadeDB(t)
	if d.NumRecords() != 2 || d.Len() != 45_000 {
		t.Fatalf("geometry: %d records, %d nt", d.NumRecords(), d.Len())
	}
	r := d.Record(0)
	if r.ID != "main" || r.Description != "primary sequence" || r.Length != 40_000 {
		t.Errorf("record 0: %+v", r)
	}
	if _, err := BuildDatabase(strings.NewReader("")); err == nil {
		t.Error("empty FASTA must fail")
	}
}

func TestDatabaseSaveLoad(t *testing.T) {
	d, _ := buildFacadeDB(t)
	var buf bytes.Buffer
	if err := d.SaveDatabase(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := LoadDatabase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != d.Len() || d2.NumRecords() != d.NumRecords() {
		t.Error("round trip lost geometry")
	}
	if _, err := LoadDatabase(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("junk must fail")
	}
}

func TestAlignDatabaseAttribution(t *testing.T) {
	d, genes := buildFacadeDB(t)
	g := genes[1]
	q, err := NewQuery(g.Protein)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAligner(q, WithThresholdFraction(0.9))
	if err != nil {
		t.Fatal(err)
	}
	hits := a.AlignDatabase(d)
	found := false
	for _, h := range hits {
		if h.RecordID == "main" && h.Offset == g.Pos {
			found = true
		}
	}
	if !found {
		t.Errorf("planted gene not attributed among %d hits", len(hits))
	}
}

func TestSessionEndToEnd(t *testing.T) {
	d, genes := buildFacadeDB(t)
	s, err := NewSession(d)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := NewQuery(genes[0].Protein)
	hits, timing, err := s.Run(context.Background(), q, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, h := range hits {
		if h.RecordID == "main" && h.Offset == genes[0].Pos {
			found = true
		}
	}
	if !found {
		t.Error("session missed the planted gene")
	}
	if timing.Total <= 0 || timing.Kernel <= 0 || timing.Total < timing.Kernel {
		t.Errorf("timing implausible: %+v", timing)
	}
	if _, _, err := s.Run(context.Background(), q, 0); err == nil {
		t.Error("bad threshold fraction must fail")
	}
	if _, _, err := s.Run(context.Background(), q, 1.5); err == nil {
		t.Error("bad threshold fraction must fail")
	}
}

func TestSessionBatch(t *testing.T) {
	d, genes := buildFacadeDB(t)
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
	perQuery, totalSec, err := s.RunBatch(context.Background(), queries, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(perQuery) != 3 || totalSec <= 0 {
		t.Fatalf("batch shape: %d results, %.3fs", len(perQuery), totalSec)
	}
	for i, g := range genes[:3] {
		found := false
		for _, h := range perQuery[i] {
			if h.Offset == g.Pos {
				found = true
			}
		}
		if !found {
			t.Errorf("batch query %d missed its gene", i)
		}
	}
}

// TestSessionErrorTaxonomy: Session requests are validated by ScanRequest,
// so every bad input matches one of the taxonomy heads — a nil query, an
// empty batch and a nil batch entry are ErrBadQuery, a fraction outside
// (0, 1] (0 included: Session keeps its no-default contract) is
// ErrBadOption — and none of them panics or scans.
func TestSessionErrorTaxonomy(t *testing.T) {
	d, genes := buildFacadeDB(t)
	s, err := NewSession(d)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQuery(genes[0].Protein)
	if err != nil {
		t.Fatal(err)
	}
	run := func(q *Query, frac float64) func() error {
		return func() error { _, _, err := s.Run(context.Background(), q, frac); return err }
	}
	batch := func(qs []*Query, frac float64) func() error {
		return func() error { _, _, err := s.RunBatch(context.Background(), qs, frac); return err }
	}
	for _, tc := range []struct {
		name string
		call func() error
		want error
	}{
		{"Run nil query", run(nil, 0.8), ErrBadQuery},
		{"Run fraction above one", run(q, 1.5), ErrBadOption},
		{"Run zero fraction", run(q, 0), ErrBadOption},
		{"RunBatch fraction above one", batch([]*Query{q}, 1.5), ErrBadOption},
		{"RunBatch zero fraction", batch([]*Query{q}, 0), ErrBadOption},
		{"RunBatch nil batch", batch(nil, 0.8), ErrBadQuery},
		{"RunBatch nil entry", batch([]*Query{q, nil}, 0.8), ErrBadQuery},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.call()
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, not errors.Is(%v)", err, tc.want)
			}
		})
	}
}

// TestSessionGoldenTiming pins Session's hits and timing to the values the
// host's own scan engine produced before Session became a Scan plus a
// timing function: identical hits (by digest) and bit-identical seconds
// for a fixed seeded input.
func TestSessionGoldenTiming(t *testing.T) {
	ref, genes := SyntheticReference(4242, 120_000, 4, 30)
	seq := ref.String()
	fasta := ">r0 first\n" + seq[:30_000] + "\n>r1\n" + seq[30_000:75_000] + "\n>r2\n" + seq[75_000:] + "\n"
	d, err := BuildDatabase(strings.NewReader(fasta))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(d)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]*Query, len(genes))
	for i, g := range genes {
		if queries[i], err = NewQuery(g.Protein); err != nil {
			t.Fatal(err)
		}
	}
	digest := func(hits []RecordHit) string {
		return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprint(hits))))[:16]
	}

	hits, timing, err := s.Run(context.Background(), queries[1], 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 32 || digest(hits) != "d143d147d8a46605" {
		t.Errorf("Run: %d hits digest %s, want 32 d143d147d8a46605", len(hits), digest(hits))
	}
	want := QueryTiming{
		Encode: 1.8000000000000001e-06, QueryTransfer: 1.0013846153846155e-05,
		Kernel: 2.605e-06, Readback: 1.0039384615384615e-05, Total: 7.445823076923078e-05,
	}
	if timing != want {
		t.Errorf("Run timing %#v, want %#v", timing, want)
	}

	perQuery, total, err := s.RunBatch(context.Background(), queries, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	wantBatch := []struct {
		n      int
		digest string
	}{{12, "7e9a161d5fa4a637"}, {32, "d143d147d8a46605"}, {1, "dc41e97027c479f9"}, {1, "db6691d0e7883fa5"}}
	for i, w := range wantBatch {
		if len(perQuery[i]) != w.n || digest(perQuery[i]) != w.digest {
			t.Errorf("RunBatch query %d: %d hits digest %s, want %d %s", i, len(perQuery[i]), digest(perQuery[i]), w.n, w.digest)
		}
	}
	if total != 0.000267732 {
		t.Errorf("RunBatch total %#v, want 0.000267732", total)
	}
}

// TestSessionNewAllocs pins NewSession's memory: it checks the database's
// 2-bit image against the card's DRAM from its length alone, without
// unpacking or re-packing the sequence.
func TestSessionNewAllocs(t *testing.T) {
	ref, _ := SyntheticReference(7, 4<<20, 1, 30)
	d, err := DatabaseFromReference("big", ref)
	if err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	s, err := NewSession(d)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc >= 64<<10 {
		t.Fatalf("NewSession on %d nt allocated %d B, want < 64 KiB", d.Len(), alloc)
	}
	runtime.KeepAlive(s)
}

func TestAlignBatchFacade(t *testing.T) {
	ref, genes := SyntheticReference(77, 30_000, 3, 40)
	var queries []*Query
	for _, g := range genes {
		q, err := NewQuery(g.Protein)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	res, err := Scan(context.Background(), ScanRequest{Queries: queries, Reference: ref, ThresholdFrac: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range genes {
		found := false
		for _, h := range res.PerQuery[i].Hits {
			if h.Pos == g.Pos {
				found = true
			}
		}
		if !found {
			t.Errorf("batch query %d missed the gene at %d", i, g.Pos)
		}
	}
	if _, err := Scan(context.Background(), ScanRequest{Queries: []*Query{}, Reference: ref, ThresholdFrac: 0.9}); err == nil {
		t.Error("empty batch must fail")
	}
}

func TestRunExperimentAs(t *testing.T) {
	md, err := RunExperimentAs("table1", "markdown")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md, "| build |") && !strings.Contains(md, "| build ") {
		t.Errorf("markdown output: %s", md[:120])
	}
	csvOut, err := RunExperimentAs("table1", "csv")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csvOut, "build,iter") {
		t.Errorf("csv output: %s", csvOut[:120])
	}
	if _, err := RunExperimentAs("table1", "xml"); err == nil {
		t.Error("bad format must fail")
	}
	if _, err := RunExperimentAs("nope", "text"); err == nil {
		t.Error("bad experiment must fail")
	}
}
