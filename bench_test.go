package fabp

// One benchmark per paper table/figure (regenerating the artifact), plus
// micro-benchmarks of the load-bearing kernels. Run:
//
//	go test -bench=. -benchmem
//
// The per-experiment benchmarks print their table once (first iteration)
// so `go test -bench` output doubles as the reproduction log.

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"

	"fabp/internal/bio"
	"fabp/internal/core"
	"fabp/internal/experiments"
	"fabp/internal/isa"
	"fabp/internal/swalign"
	"fabp/internal/tblastn"
)

var printOnce sync.Map

// benchExperiment runs one registered experiment per iteration and prints
// its table a single time.
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t, err := experiments.Run(name)
		if err != nil {
			b.Fatal(err)
		}
		if _, done := printOnce.LoadOrStore(name, true); !done {
			b.Logf("\n%s", t.Render())
		}
	}
}

// BenchmarkFig6aSpeedup regenerates Fig. 6(a): normalized speedups of
// CPU-12 / GPU / FabP per query length.
func BenchmarkFig6aSpeedup(b *testing.B) { benchExperiment(b, "fig6a") }

// BenchmarkFig6bEnergy regenerates Fig. 6(b): normalized energy efficiency.
func BenchmarkFig6bEnergy(b *testing.B) { benchExperiment(b, "fig6b") }

// BenchmarkTable1Resources regenerates Table I: FabP-50/FabP-250 resource
// utilization and achieved bandwidth.
func BenchmarkTable1Resources(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkCrossover regenerates the §IV-B bandwidth/resource crossover
// sweep.
func BenchmarkCrossover(b *testing.B) { benchExperiment(b, "crossover") }

// BenchmarkPopcountAblation regenerates the §III-D pop-counter area
// comparison.
func BenchmarkPopcountAblation(b *testing.B) { benchExperiment(b, "popcount") }

// BenchmarkChannelScaling regenerates the §III-C multi-channel projection.
func BenchmarkChannelScaling(b *testing.B) { benchExperiment(b, "channels") }

// BenchmarkSerineAblation regenerates the serine-encoding ablation.
func BenchmarkSerineAblation(b *testing.B) { benchExperiment(b, "serine") }

// BenchmarkAccuracyIndels regenerates a compact §IV-A accuracy study per
// iteration (scaled to stay benchmark-friendly).
func BenchmarkAccuracyIndels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunAccuracy(experiments.AccuracyConfig{
			RefLen: 40_000, Genes: 6, GeneLen: 80, Queries: 30, QueryLen: 50,
		})
		if r.FabPRecallSub < 0.9 {
			b.Fatalf("accuracy regression: %+v", r)
		}
		if _, done := printOnce.LoadOrStore("accuracy-mini", true); !done {
			b.Logf("indels %.1f%% | FabP recall %.1f%% | TBLASTN recall %.1f%%",
				100*r.IndelFraction, 100*r.FabPRecall, 100*r.TBLASTNRecall)
		}
	}
}

// --- kernel micro-benchmarks ---

// BenchmarkEngineAlign measures the software FabP engine's scan throughput
// (the per-iteration workload is 1 Mnt; metric reported as ns/op plus
// nt/s).
func BenchmarkEngineAlign(b *testing.B) {
	for _, residues := range []int{50, 250} {
		b.Run(fmt.Sprintf("q%d", residues), func(b *testing.B) {
			ref, genes := SyntheticReference(1, 1_000_000, 4, residues)
			q, err := NewQuery(genes[0].Protein)
			if err != nil {
				b.Fatal(err)
			}
			a, err := NewAligner(q, WithThresholdFraction(0.9))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if hits := a.Align(ref); len(hits) == 0 {
					b.Fatal("planted gene lost")
				}
			}
			b.SetBytes(int64(ref.Len()) / 4) // 2 bits per nucleotide
		})
	}
}

// BenchmarkTBLASTNSearch measures the heuristic baseline on the same
// workload shape (1 Mnt reference).
func BenchmarkTBLASTNSearch(b *testing.B) {
	for _, threads := range []int{1, 4} {
		b.Run(fmt.Sprintf("threads%d", threads), func(b *testing.B) {
			ref, genes := SyntheticReference(2, 1_000_000, 4, 50)
			q, err := bio.ParseProtSeq(genes[0].Protein)
			if err != nil {
				b.Fatal(err)
			}
			refSeq, err := bio.ParseNucSeq(ref.String())
			if err != nil {
				b.Fatal(err)
			}
			idx, err := tblastn.BuildIndex(q, 11)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := tblastn.SearchWithIndex(idx, refSeq, tblastn.Options{Threads: threads}); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(refSeq)) / 4)
		})
	}
}

// BenchmarkSmithWaterman measures the DP gold standard (300x300 residues).
func BenchmarkSmithWaterman(b *testing.B) {
	pa, _ := RandomProtein(3, 300)
	pb, _ := RandomProtein(4, 300)
	a, _ := bio.ParseProtSeq(pa)
	bb, _ := bio.ParseProtSeq(pb)
	s := swalign.DefaultScoring()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		swalign.Score(a, bb, s)
	}
}

// BenchmarkEncodeQuery measures back-translation + instruction encoding.
func BenchmarkEncodeQuery(b *testing.B) {
	p, _ := RandomProtein(5, 250)
	seq, _ := bio.ParseProtSeq(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := isa.EncodeProtein(seq); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBitParallelKernel measures the SIMD-within-register kernel (the
// GPU algorithm) on the same workload shape as BenchmarkEngineAlign.
func BenchmarkBitParallelKernel(b *testing.B) {
	ref, genes := SyntheticReference(7, 1_000_000, 4, 50)
	q, err := NewQuery(genes[0].Protein)
	if err != nil {
		b.Fatal(err)
	}
	a, err := NewAligner(q, WithThresholdFraction(0.9), WithKernelType(KernelBitParallel))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hits := a.Align(ref); len(hits) == 0 {
			b.Fatal("planted gene lost")
		}
	}
	b.SetBytes(int64(ref.Len()) / 4)
}

// BenchmarkKernelCrossover times one uncancelable Align of a 20-residue
// query at 0.85 per kernel across reference sizes: "cold" scans a fresh
// Reference (the bit-parallel side packs its planes), "warm" rescans a
// resident one (cached planes). The fused bit-parallel kernel is level with
// the scalar engine at 64 nt and 4–10× ahead from 128 nt, which is why
// KernelAuto always runs it.
func BenchmarkKernelCrossover(b *testing.B) {
	q, err := NewQuery(strings.Repeat("MKWVTFISLL", 2))
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{64, 128, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10} {
		ref, _ := SyntheticReference(int64(size), size, 1, 20)
		for _, k := range []Kernel{KernelScalar, KernelBitParallel} {
			a, err := NewAligner(q, WithThresholdFraction(0.85), WithKernelType(k))
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/cold/%dnt", k, size), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					a.Align(&Reference{seq: ref.seq})
				}
			})
			b.Run(fmt.Sprintf("%s/warm/%dnt", k, size), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					a.Align(ref)
				}
			})
		}
	}
}

// BenchmarkBatchAlign measures the shared-context multi-query scan (eight
// 50-residue queries over 1 Mnt).
func BenchmarkBatchAlign(b *testing.B) {
	ref, genes := SyntheticReference(8, 1_000_000, 8, 50)
	var queries []*Query
	for _, g := range genes {
		q, err := NewQuery(g.Protein)
		if err != nil {
			b.Fatal(err)
		}
		queries = append(queries, q)
	}
	refSeq := ref
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AlignBatch(queries, refSeq, 0.9); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiQueryScan compares K single-query fused scans run one
// query after another ("serial": each query streams the cached planes
// once) against one fused batch pass ("sharded": every plane tile is read
// once for all K queries).
func BenchmarkMultiQueryScan(b *testing.B) {
	ref, genes := SyntheticReference(11, 2_000_000, 8, 50)
	var queries []*Query
	for _, g := range genes {
		q, err := NewQuery(g.Protein)
		if err != nil {
			b.Fatal(err)
		}
		queries = append(queries, q)
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				a, err := NewAligner(q, WithThresholdFraction(0.9), WithKernelType(KernelBitParallel))
				if err != nil {
					b.Fatal(err)
				}
				if len(a.Align(ref)) == 0 {
					b.Fatal("planted gene lost")
				}
			}
		}
		b.SetBytes(int64(len(queries)) * int64(ref.Len()) / 4)
	})
	b.Run("sharded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hits, err := AlignBatch(queries, ref, 0.9)
			if err != nil {
				b.Fatal(err)
			}
			if len(hits) != len(queries) {
				b.Fatal("batch shape")
			}
		}
		b.SetBytes(int64(len(queries)) * int64(ref.Len()) / 4)
	})
}

// BenchmarkDatabaseScan measures repeated whole-database scans against a
// resident database — the case a database's resident planes exist for.
func BenchmarkDatabaseScan(b *testing.B) {
	ref, genes := SyntheticReference(12, 2_000_000, 4, 50)
	d, err := BuildDatabase(strings.NewReader(">chr1\n" + ref.String() + "\n"))
	if err != nil {
		b.Fatal(err)
	}
	q, err := NewQuery(genes[0].Protein)
	if err != nil {
		b.Fatal(err)
	}
	a, err := NewAligner(q, WithThresholdFraction(0.9))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hits := a.AlignDatabase(d); len(hits) == 0 {
			b.Fatal("planted gene lost")
		}
	}
	b.SetBytes(int64(d.Len()) / 4)
}

// BenchmarkAlignStreamReader measures the bounded-memory chunked scan.
func BenchmarkAlignStreamReader(b *testing.B) {
	ref, genes := SyntheticReference(9, 2_000_000, 2, 50)
	q, _ := NewQuery(genes[0].Protein)
	a, _ := NewAligner(q, WithThresholdFraction(0.9))
	stream := ref.String()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		err := a.AlignStream(strings.NewReader(stream), func(Hit) error { n++; return nil })
		if err != nil || n == 0 {
			b.Fatalf("stream scan failed: %v (%d hits)", err, n)
		}
	}
	b.SetBytes(int64(len(stream)) / 4)
}

// BenchmarkAlignStreamParallel runs AlignStream from many goroutines at
// once, as a server does under concurrent /align/stream requests. Each
// stream holds one plane builder for its life, so the allocation figures
// show how builders recycle across concurrent streams.
func BenchmarkAlignStreamParallel(b *testing.B) {
	ref, genes := SyntheticReference(9, 2_000_000, 2, 50)
	q, _ := NewQuery(genes[0].Protein)
	a, _ := NewAligner(q, WithThresholdFraction(0.9))
	stream := ref.String()
	for _, streams := range []int{8, 32, 64} {
		b.Run(fmt.Sprintf("streams=%d", streams), func(b *testing.B) {
			b.SetParallelism((streams + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0))
			b.ReportAllocs()
			b.SetBytes(int64(len(stream)) / 4)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					n := 0
					err := a.AlignStream(strings.NewReader(stream), func(Hit) error { n++; return nil })
					if err != nil || n == 0 {
						b.Errorf("stream scan failed: %v (%d hits)", err, n)
						return
					}
				}
			})
		})
	}
}

// BenchmarkNetlistCycle measures the cycle-accurate RTL simulator on a
// small generated accelerator (beats per second of gate-level simulation).
func BenchmarkNetlistCycle(b *testing.B) {
	prog := isa.MustEncodeProtein(bio.ProtSeq{bio.Met, bio.Lys, bio.Trp})
	cfg := core.NetlistConfig{QueryElems: len(prog), Beat: 8, Threshold: 7}
	runner, err := core.NewNetlistRunner(cfg, prog)
	if err != nil {
		b.Fatal(err)
	}
	ref := make(bio.NucSeq, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner.Align(ref)
	}
}

// BenchmarkVerilogEmission measures netlist generation + Verilog emission
// for a mid-size build.
func BenchmarkVerilogEmission(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := GenerateVerilog(io.Discard, VerilogConfig{
			QueryResidues: 4, BeatElements: 16, Threshold: 10,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
