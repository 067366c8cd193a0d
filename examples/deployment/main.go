// Deployment: the full production flow a FabP adopter runs — build a
// packed database, keep it resident on the accelerator card, derive
// statistically sound thresholds, batch queries against it with end-to-end
// timing, and verify hits with Smith-Waterman.
package main

import (
	"context"
	"fmt"
	"log"

	"fabp"
)

func main() {
	// A 500 knt "genome" with 12 coding regions.
	ref, genes := fabp.SyntheticReference(77, 500_000, 12, 90)
	db, err := fabp.DatabaseFromReference("genome", ref)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("database: %d nt, %d records\n", db.Len(), db.NumRecords())

	// Candidate coding regions (sanity statistics a host would log).
	orfs := fabp.FindORFs(ref, 60)
	fmt.Printf("ORFs >= 60 residues in 6 frames: %d\n\n", len(orfs))

	// Card session: database transfers to FPGA DRAM once. Its calls take a
	// context, which a server would derive from each request's deadline.
	ctx := context.Background()
	sess, err := fabp.NewSession(db)
	if err != nil {
		log.Fatal(err)
	}

	// Queries: diverged homologs of three planted genes.
	var queries []*fabp.Query
	for i := 0; i < 3; i++ {
		mut, _, err := fabp.MutateProtein(int64(10+i), genes[i].Protein, 0.05, 0.09)
		if err != nil {
			log.Fatal(err)
		}
		q, err := fabp.NewQuery(mut)
		if err != nil {
			log.Fatal(err)
		}
		queries = append(queries, q)
	}

	// Statistically derived threshold for the first query.
	q0 := queries[0]
	thr, err := q0.SuggestThreshold(db.Len(), 0.01)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query 0: %d aa; null mean %.0f, suggested threshold %d/%d (E[FP]<=0.01)\n\n",
		q0.Residues(), q0.NullMeanScore(), thr, q0.MaxScore())

	// End-to-end single query with the timing decomposition the paper
	// measures.
	hits, timing, err := sess.Run(ctx, q0, float64(thr)/float64(q0.MaxScore()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("single query: %d hits\n", len(hits))
	fmt.Printf("  encode    %8.1f µs\n", timing.Encode*1e6)
	fmt.Printf("  transfer  %8.1f µs\n", timing.QueryTransfer*1e6)
	fmt.Printf("  kernel    %8.1f µs\n", timing.Kernel*1e6)
	fmt.Printf("  readback  %8.1f µs\n", timing.Readback*1e6)
	fmt.Printf("  total     %8.1f µs\n\n", timing.Total*1e6)

	// Batched queries amortize the resident database.
	perQuery, totalSec, err := sess.RunBatch(ctx, queries, 0.8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batch of %d queries: %.2f ms end-to-end\n", len(queries), 1000*totalSec)
	for i, hs := range perQuery {
		fmt.Printf("  query %d: %d hits", i, len(hs))
		if len(hs) > 0 {
			fmt.Printf(" (best at %s:%d score %d)", hs[0].RecordID, hs[0].Offset, hs[0].Score)
		}
		fmt.Println()
	}

	// Verified output for the first query: FabP prefilter + gapped SW.
	a, err := fabp.NewAligner(q0, fabp.WithThreshold(thr))
	if err != nil {
		log.Fatal(err)
	}
	verified, err := a.AlignVerified(ref, fabp.VerifyOptions{MaxHits: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nverified top hit:")
	if len(verified) > 0 {
		v := verified[0]
		fmt.Printf("pos %d, FabP %d/%d (E=%.2g), SW %d, identity %.0f%%\n",
			v.Pos, v.Score, q0.MaxScore(), a.EValueOf(v.Score, ref.Len()),
			v.SWScore, 100*v.Identity)
		fmt.Println(v.Pretty)
	}
}
