package fabp_test

import (
	"context"
	"fmt"
	"strings"

	"fabp"
)

// Back-translate a protein and inspect its degenerate representation.
func ExampleNewQuery() {
	q, err := fabp.NewQuery("MFSR*")
	if err != nil {
		panic(err)
	}
	fmt.Println(q.Degenerate())
	fmt.Println(q.Elements(), "elements,", q.MaxScore(), "max score")
	// Output:
	// AUG-UU(U/C)-UCD-(A/C)G(F:10)-U(A/G)(F:00)
	// 15 elements, 15 max score
}

// Align a query against a reference containing its exact gene.
func ExampleAligner_Align() {
	// AUG AAA UGG GAA = Met Lys Trp Glu planted at offset 6.
	ref, err := fabp.NewReference("CCCCCCAUGAAAUGGGAACCCCCC")
	if err != nil {
		panic(err)
	}
	q, err := fabp.NewQuery("MKWE")
	if err != nil {
		panic(err)
	}
	a, err := fabp.NewAligner(q, fabp.WithThreshold(q.MaxScore()))
	if err != nil {
		panic(err)
	}
	for _, hit := range a.Align(ref) {
		fmt.Printf("pos %d score %d/%d\n", hit.Pos, hit.Score, q.MaxScore())
	}
	// Output:
	// pos 6 score 12/12
}

// Project the paper's FabP-50 build on the Kintex-7 (Table I).
func ExampleSizeOnDevice() {
	rep, err := fabp.SizeOnDevice(fabp.DeviceKintex7, 50, 0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("iterations=%d bottleneck=%s LUT=%.0f%%\n",
		rep.Iterations, rep.Bottleneck, 100*rep.LUTFrac)
	// Output:
	// iterations=1 bottleneck=bandwidth-bound LUT=58%
}

// Smith-Waterman with a rendered alignment.
func ExampleSmithWaterman() {
	r, err := fabp.SmithWaterman("MKWVTFISLL", "MKWVTFISLL")
	if err != nil {
		panic(err)
	}
	fmt.Println(r.CIGAR, r.Gaps, r.Identity)
	// Output:
	// 10M 0 1
}

// Stream a large reference through the aligner in bounded memory.
func ExampleAligner_AlignStream() {
	q, err := fabp.NewQuery("MKWE")
	if err != nil {
		panic(err)
	}
	a, err := fabp.NewAligner(q, fabp.WithThreshold(q.MaxScore()))
	if err != nil {
		panic(err)
	}
	stream := strings.NewReader("ccccccATGAAATGGGAAcccccc") // DNA, mixed case
	err = a.AlignStream(stream, func(h fabp.Hit) error {
		fmt.Printf("pos %d score %d\n", h.Pos, h.Score)
		return nil
	})
	if err != nil {
		panic(err)
	}
	// Output:
	// pos 6 score 12
}

// Scan a database with two queries in one fused pass: each query's hits
// come back in PerQuery, attributed to the record they fall in.
func ExampleScan() {
	db, err := fabp.BuildDatabase(strings.NewReader(
		">chr1\nCCCCCCAUGAAAUGGGAACCCCCC\n" +
			">chr2\nGGGGGUUUUCGCGUGGGGGGAUGAAAUGGGAAGG\n"))
	if err != nil {
		panic(err)
	}
	mkwe, err := fabp.NewQuery("MKWE")
	if err != nil {
		panic(err)
	}
	fsr, err := fabp.NewQuery("FSR")
	if err != nil {
		panic(err)
	}
	res, err := fabp.Scan(context.Background(), fabp.ScanRequest{
		Queries:       []*fabp.Query{mkwe, fsr},
		Database:      db,
		ThresholdFrac: 1, // exact matches only
	})
	if err != nil {
		panic(err)
	}
	for qi, qh := range res.PerQuery {
		for _, h := range qh.RecordHits {
			fmt.Printf("query %d: %s:%d score %d\n", qi, h.RecordID, h.Offset, h.Score)
		}
	}
	// Output:
	// query 0: chr1:6 score 12
	// query 0: chr2:20 score 12
	// query 1: chr2:5 score 9
}

// Run a TBLASTN-style protein search as a Scan: the HSPs come back
// best-first, each with its reading frame and nucleotide position.
func ExampleScan_proteinSearch() {
	ref, genes := fabp.SyntheticReference(11, 30_000, 3, 50)
	q, err := fabp.NewQuery(genes[0].Protein)
	if err != nil {
		panic(err)
	}
	res, err := fabp.Scan(context.Background(), fabp.ScanRequest{
		Query:         q,
		Reference:     ref,
		ProteinSearch: &fabp.ProteinSearchOptions{Frames: 3, TwoHit: true},
		MaxHits:       1,
	})
	if err != nil {
		panic(err)
	}
	top := res.HSPs[0]
	fmt.Printf("gene at %d; top HSP: frame %s nuc %d score %d\n", genes[0].Pos, top.Frame, top.NucPos, top.Score)
	// Output:
	// gene at 3502; top HSP: frame +2 nuc 3502 score 254
}
