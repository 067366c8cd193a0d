package fabp

import (
	"context"
	"reflect"
	"testing"

	"fabp/internal/tblastn"
)

// checkProteinConformance is the protein-path differential oracle: the
// serial tblastn pipeline (Threads=1) defines the truth, and the Scan
// spine must reproduce it byte for byte at every thread count, frame
// count, and seeding mode. NoCache keeps every run an actual scan.
func checkProteinConformance(t *testing.T, q *Query, ref *Reference, minScore int, twoHit bool) {
	t.Helper()
	for _, frames := range []int{1, 3, 6} {
		oracle, oStats, err := tblastn.Search(q.protein, ref.d.Seq(), tblastn.Options{
			Threads: 1, Frames: frames, MinScore: minScore, TwoHit: twoHit,
		})
		if err != nil {
			t.Skip(err) // fuzzer built an unindexable query; not a conformance bug
		}
		want := hspsFromInternal(oracle)
		for _, threads := range []int{1, 3, 8} {
			res, err := Scan(context.Background(), ScanRequest{
				Query: q, Reference: ref, NoCache: true,
				ProteinSearch: &ProteinSearchOptions{
					Threads: threads, Frames: frames, MinScore: minScore, TwoHit: twoHit,
				},
			})
			if err != nil {
				t.Fatalf("frames=%d threads=%d: %v", frames, threads, err)
			}
			if !reflect.DeepEqual(res.HSPs, want) {
				t.Fatalf("frames=%d threads=%d twoHit=%v: spine diverges from serial oracle (%d vs %d HSPs)",
					frames, threads, twoHit, len(res.HSPs), len(want))
			}
			if res.ProteinStats.Extensions != oStats.Extensions || res.ProteinStats.WordHits != oStats.WordHits {
				t.Fatalf("frames=%d threads=%d twoHit=%v: stats diverge: %+v vs %+v",
					frames, threads, twoHit, *res.ProteinStats, oStats)
			}
		}
	}
}

// proteinConformanceCase derives a deterministic planted-gene workload
// from fuzz inputs.
func proteinConformanceCase(t *testing.T, seed int64, refLen uint16, geneLen, mutPct uint8) (*Query, *Reference) {
	t.Helper()
	length := 2_000 + int(refLen)*8
	gl := 12 + int(geneLen)%60
	ref, genes := SyntheticReference(seed, length, 2, gl)
	mut, _, err := MutateProtein(seed+7, genes[0].Protein, float64(mutPct%30)/100, 0)
	if err != nil {
		t.Skip(err)
	}
	q, err := NewQuery(mut)
	if err != nil {
		t.Skip(err)
	}
	return q, ref
}

// FuzzProteinConformance fuzzes the differential oracle across workload
// shapes and option corners (including the MinScoreAll sentinel).
func FuzzProteinConformance(f *testing.F) {
	f.Add(int64(1), uint16(500), uint8(10), uint8(5), uint8(0), false)
	f.Add(int64(2), uint16(4000), uint8(40), uint8(12), uint8(1), true)
	f.Add(int64(3), uint16(900), uint8(25), uint8(0), uint8(2), true)
	f.Add(int64(4), uint16(6000), uint8(55), uint8(20), uint8(3), false)
	f.Fuzz(func(t *testing.T, seed int64, refLen uint16, geneLen, mutPct, scoreSel uint8, twoHit bool) {
		q, ref := proteinConformanceCase(t, seed, refLen, geneLen, mutPct)
		minScore := []int{0, MinScoreAll, 40, 60}[int(scoreSel)%4]
		checkProteinConformance(t, q, ref, minScore, twoHit)
	})
}

// TestProteinConformanceRandomTrials runs the oracle over fixed trials in
// a plain `go test` (the CI -race conformance step runs this).
func TestProteinConformanceRandomTrials(t *testing.T) {
	for trial := int64(0); trial < 6; trial++ {
		q, ref := proteinConformanceCase(t, trial, uint16(1500*trial+700), uint8(15+7*trial), uint8(3*trial))
		checkProteinConformance(t, q, ref, 0, trial%2 == 0)
		checkProteinConformance(t, q, ref, MinScoreAll, trial%2 == 1)
	}
}
