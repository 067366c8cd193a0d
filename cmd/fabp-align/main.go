// Command fabp-align aligns protein queries against a nucleotide database
// with the FabP substitution-only engine, optionally comparing against the
// TBLASTN baseline.
//
// Usage:
//
//	fabp-align -query query.fasta -ref db.fasta [-threshold-frac 0.8] [-tblastn] [-top 5]
//	fabp-align -query query.fasta -db db.fabp   # packed database built by fabp-db (warm start)
//	fabp-align -demo            # synthetic demo workload, no files needed
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"fabp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fabp-align: ")

	queryPath := flag.String("query", "", "FASTA file with protein queries")
	refPath := flag.String("ref", "", "FASTA file with the nucleotide database")
	dbPath := flag.String("db", "", "packed database file built by fabp-db (alternative to -ref)")
	thresholdFrac := flag.Float64("threshold-frac", 0.8, "hit threshold as a fraction of the maximum score")
	autoThreshold := flag.Bool("auto-threshold", false, "derive the threshold from the null score distribution")
	maxFP := flag.Float64("fp", 0.1, "expected chance hits per scan when -auto-threshold is set")
	runTBLASTN := flag.Bool("tblastn", false, "also run the TBLASTN baseline for comparison")
	top := flag.Int("top", 5, "hits to print per query")
	demo := flag.Bool("demo", false, "run on a built-in synthetic workload")
	kernel := flag.String("kernel", "auto", "alignment kernel: auto, scalar or bitparallel")
	workers := flag.Int("workers", 0, "bound scan worker goroutines (0 = all cores)")
	metrics := flag.Bool("metrics", false, "dump a telemetry snapshot as JSON after aligning")
	flag.Parse()

	opts := alignOpts{frac: *thresholdFrac, auto: *autoThreshold, maxFP: *maxFP,
		tblastn: *runTBLASTN, top: *top, kernel: *kernel, workers: *workers}
	if *demo {
		runDemo(opts)
		if *metrics {
			dumpMetrics()
		}
		return
	}
	if *queryPath == "" || (*refPath == "" && *dbPath == "") {
		flag.Usage()
		os.Exit(2)
	}
	if *refPath != "" && *dbPath != "" {
		log.Fatal("-ref and -db are mutually exclusive")
	}

	// One shared database so the packed planes are built once and every
	// query after the first reads the planes it holds — its scans, and Best
	// and TBLASTN through its AsReference view. -db loads a packed file
	// (a v2 file's persisted planes make this a zero-packing warm start);
	// -ref indexes a FASTA reference in-process.
	var dbase *fabp.Database
	if *dbPath != "" {
		dbFile, err := os.Open(*dbPath)
		if err != nil {
			log.Fatal(err)
		}
		dbase, err = fabp.LoadDatabase(dbFile)
		dbFile.Close()
		if err != nil {
			log.Fatalf("loading database: %v", err)
		}
		fmt.Printf("database: %d records, %d nt\n", dbase.NumRecords(), dbase.Len())
	} else {
		refFile, err := os.Open(*refPath)
		if err != nil {
			log.Fatal(err)
		}
		defer refFile.Close()
		ref, _, err := fabp.ReadReferenceFasta(refFile)
		if err != nil {
			log.Fatalf("reading reference: %v", err)
		}
		fmt.Printf("reference: %d nt\n", ref.Len())
		dbase, err = fabp.DatabaseFromReference("ref", ref)
		if err != nil {
			log.Fatalf("indexing reference: %v", err)
		}
	}

	queries, err := readProteinFasta(*queryPath)
	if err != nil {
		log.Fatalf("reading queries: %v", err)
	}
	for _, qr := range queries {
		alignOne(qr.id, qr.prot, dbase, opts)
	}
	if *metrics {
		dumpMetrics()
	}
}

// dumpMetrics prints the process-wide telemetry snapshot as indented JSON.
func dumpMetrics() {
	b, err := json.MarshalIndent(fabp.DefaultMetrics(), "", "  ")
	if err != nil {
		log.Fatalf("metrics: %v", err)
	}
	fmt.Printf("\n=== metrics\n%s\n", b)
}

type alignOpts struct {
	frac    float64
	auto    bool
	maxFP   float64
	tblastn bool
	top     int
	kernel  string
	workers int
}

type protRecord struct {
	id   string
	prot string
}

func readProteinFasta(path string) ([]protRecord, error) {
	var out []protRecord
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var id string
	var body strings.Builder
	flush := func() {
		if id != "" {
			out = append(out, protRecord{id: id, prot: body.String()})
		}
		body.Reset()
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, ">") {
			flush()
			id = strings.Fields(line[1:])[0]
			continue
		}
		body.WriteString(line)
	}
	flush()
	if len(out) == 0 {
		return nil, fmt.Errorf("no FASTA records")
	}
	return out, nil
}

func alignOne(id, prot string, dbase *fabp.Database, opts alignOpts) {
	ref := dbase.AsReference()
	q, err := fabp.NewQuery(prot)
	if err != nil {
		log.Printf("query %s: %v", id, err)
		return
	}
	kernel, err := fabp.ParseKernel(opts.kernel)
	if err != nil {
		log.Printf("query %s: %v", id, err)
		return
	}
	aOpts := []fabp.AlignerOption{fabp.WithKernelType(kernel)}
	if opts.workers > 0 {
		aOpts = append(aOpts, fabp.WithParallelism(opts.workers))
	}
	if opts.auto {
		thr, err := q.SuggestThreshold(ref.Len(), opts.maxFP)
		if err != nil {
			log.Printf("query %s: %v", id, err)
			return
		}
		aOpts = append(aOpts, fabp.WithThreshold(thr))
	} else {
		aOpts = append(aOpts, fabp.WithThresholdFraction(opts.frac))
	}
	a, err := fabp.NewAligner(q, aOpts...)
	if err != nil {
		log.Printf("query %s: %v", id, err)
		return
	}
	// Scan through the database path: sharded across the worker pool, with
	// the packed planes the database holds.
	hits := a.AlignDatabase(dbase)
	fmt.Printf("\nquery %s (%d aa, %d elements, threshold %d/%d): %d hits\n",
		id, q.Residues(), q.Elements(), a.Threshold(), q.MaxScore(), len(hits))
	shown := 0
	for _, h := range hits {
		if shown >= opts.top {
			fmt.Printf("  ... %d more\n", len(hits)-shown)
			break
		}
		fmt.Printf("  pos %-10d score %d/%d  E=%.2g\n", h.Offset, h.Score, q.MaxScore(),
			a.EValueOf(h.Score, ref.Len()))
		shown++
	}
	if len(hits) == 0 {
		if best, ok := a.Best(ref); ok {
			fmt.Printf("  best sub-threshold position: pos %d score %d/%d\n", best.Pos, best.Score, q.MaxScore())
		}
	}
	if opts.tblastn {
		hsps, err := fabp.SearchProtein(context.Background(), q, ref, fabp.ProteinSearchOptions{Threads: 4})
		if err != nil {
			log.Printf("tblastn %s: %v", id, err)
			return
		}
		fmt.Printf("  tblastn: %d HSPs", len(hsps))
		if len(hsps) > 0 {
			fmt.Printf("; top: frame %s nuc %d score %d", hsps[0].Frame, hsps[0].NucPos, hsps[0].Score)
		}
		fmt.Println()
	}
}

func runDemo(opts alignOpts) {
	fmt.Println("demo: 200 kb synthetic reference with 8 planted genes")
	ref, genes := fabp.SyntheticReference(2021, 200_000, 8, 80)
	dbase, err := fabp.DatabaseFromReference("demo", ref)
	if err != nil {
		log.Fatal(err)
	}
	for i, g := range genes[:3] {
		// Diverge the query like a real homology search.
		mut, hadIndel, err := fabp.MutateProtein(int64(i)+1, g.Protein, 0.05, 0.09)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n=== planted gene %d at nucleotide %d (indel during divergence: %v)\n", i, g.Pos, hadIndel)
		alignOne(fmt.Sprintf("demo-%d", i), mut, dbase, opts)
	}
}
