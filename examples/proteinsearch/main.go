// Proteinsearch: the paper's motivating scenario — identify the
// functionality of unknown protein sequences by locating their most similar
// coding regions in a genome-scale nucleotide database.
//
// A 2 Mnt synthetic "genome" carries 40 planted genes. Unknown queries are
// diverged copies of some of them (5 % substitutions plus the empirical
// indel rate). The example runs the FabP engine and the TBLASTN baseline on
// every query and compares what each recovers.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"fabp"
)

func main() {
	const (
		refLen   = 2_000_000
		genes    = 40
		geneLen  = 120
		queries  = 10
		queryLen = 60
	)
	ref, planted := fabp.SyntheticReference(7, refLen, genes, geneLen)
	fmt.Printf("database: %d nt with %d coding regions\n", ref.Len(), len(planted))
	fmt.Printf("%d unknown queries of %d aa (diverged homologs)\n\n", queries, queryLen)

	var fabpFound, tblastnFound int
	var fabpTime, tblastnTime time.Duration

	for i := 0; i < queries; i++ {
		src := planted[i*3%len(planted)]
		sub := src.Protein[:queryLen]
		mutated, hadIndel, err := fabp.MutateProtein(int64(100+i), sub, 0.05, 0.09)
		if err != nil {
			log.Fatal(err)
		}
		truth := src.Pos

		query, err := fabp.NewQuery(mutated)
		if err != nil {
			log.Fatal(err)
		}
		aligner, err := fabp.NewAligner(query, fabp.WithThresholdFraction(0.8))
		if err != nil {
			log.Fatal(err)
		}

		start := time.Now()
		hits := aligner.Align(ref)
		fabpTime += time.Since(start)

		fabpHit := false
		for _, h := range hits {
			if near(h.Pos, truth, 12) {
				fabpHit = true
				break
			}
		}
		if fabpHit {
			fabpFound++
		}

		start = time.Now()
		hsps, err := fabp.SearchProtein(context.Background(), query, ref, fabp.ProteinSearchOptions{Threads: 4, Frames: 3})
		tblastnTime += time.Since(start)
		if err != nil {
			log.Fatal(err)
		}
		tbHit := false
		for _, h := range hsps {
			if near(h.NucPos, truth, 3*queryLen) {
				tbHit = true
				break
			}
		}
		if tbHit {
			tblastnFound++
		}

		fmt.Printf("query %2d (indel=%v): FabP %s (%d hits), TBLASTN %s (%d HSPs)\n",
			i, hadIndel, mark(fabpHit), len(hits), mark(tbHit), len(hsps))
	}

	fmt.Printf("\nrecovered loci: FabP %d/%d, TBLASTN %d/%d\n", fabpFound, queries, tblastnFound, queries)
	fmt.Printf("software wall clock: FabP engine %v, TBLASTN %v\n", fabpTime, tblastnTime)

	cmp, err := fabp.ComparePlatforms(queryLen, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nprojected at paper scale (1 Gnt database, %d aa query):\n", queryLen)
	fmt.Printf("  FabP/Kintex-7 : %8.1f ms  %5.1f W\n", 1000*cmp.FabP.Seconds, cmp.FabP.Watts)
	fmt.Printf("  GTX 1080Ti    : %8.1f ms  %5.1f W\n", 1000*cmp.GPU.Seconds, cmp.GPU.Watts)
	fmt.Printf("  CPU 12-thread : %8.1f ms  %5.1f W\n", 1000*cmp.CPU12.Seconds, cmp.CPU12.Watts)
}

func near(a, b, tol int) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func mark(ok bool) string {
	if ok {
		return "found"
	}
	return "MISSED"
}
