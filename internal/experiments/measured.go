package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"fabp/internal/backtrans"
	"fabp/internal/bio"
	"fabp/internal/bitpar"
	"fabp/internal/core"
	"fabp/internal/isa"
	"fabp/internal/tblastn"
)

func encodeElement(e backtrans.Element) (string, error) {
	ins, err := isa.Encode(e)
	if err != nil {
		return "", err
	}
	return ins.String(), nil
}

// MeasuredConfig scales the reduced-size measured comparison of our real Go
// implementations (not models): the software FabP engine and bit-parallel
// kernel, each on one thread, versus our TBLASTN at 1 and N threads.
type MeasuredConfig struct {
	// RefLen is the reference size in nucleotides (default 4 Mnt — scaled
	// down from the paper's 1 Gnt so it runs in seconds).
	RefLen int
	// QueryLen is the query length in residues.
	QueryLen int
	// Threads is the multi-threaded TBLASTN worker count.
	Threads int
	// Seed fixes the workload.
	Seed int64
}

func (c MeasuredConfig) defaults() MeasuredConfig {
	if c.RefLen == 0 {
		c.RefLen = 4_000_000
	}
	if c.QueryLen == 0 {
		c.QueryLen = 50
	}
	if c.Threads == 0 {
		c.Threads = runtime.GOMAXPROCS(0)
	}
	if c.Seed == 0 {
		c.Seed = 99
	}
	return c
}

// MeasuredResult holds wall-clock seconds of the real implementations.
type MeasuredResult struct {
	Config       MeasuredConfig
	EngineSec    float64 // software FabP engine (scalar, bit-exact)
	BitParSec    float64 // bit-parallel kernel (the GPU algorithm)
	TBLASTN1Sec  float64
	TBLASTNnSec  float64
	EngineHits   int
	BitParHits   int
	TBLASTNHsps  int
	ThreadsUsed  int
	SpeedupOverT float64 // TBLASTN-n time / engine time
	// BitParCellsPerSec is the kernel's measured element-comparison
	// throughput, the quantity the GPU model's calibration rests on.
	BitParCellsPerSec float64
}

// RunMeasured executes the real Go implementations on a scaled-down
// workload. These numbers validate the *shape* of the model comparison
// (sequential scan vs hash-lookup pipeline) on actual hardware; they are
// not FPGA projections.
func RunMeasured(cfg MeasuredConfig) MeasuredResult {
	cfg = cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	ref, genes := bio.SyntheticReference(rng, cfg.RefLen, 10, cfg.QueryLen*2)
	g := genes[0]
	query := g.Protein[:cfg.QueryLen]

	res := MeasuredResult{Config: cfg, ThreadsUsed: cfg.Threads}

	prog := isa.MustEncodeProtein(query)
	threshold := int(0.8 * float64(len(prog)))
	engine, err := core.NewEngine(prog, threshold)
	if err == nil {
		start := time.Now()
		hits := engine.Align(ref)
		res.EngineSec = time.Since(start).Seconds()
		res.EngineHits = len(hits)
	}

	if kernel, err := bitpar.NewKernel(prog, threshold); err == nil {
		start := time.Now()
		hits := kernel.Align(ref)
		res.BitParSec = time.Since(start).Seconds()
		res.BitParHits = len(hits)
		if res.BitParSec > 0 {
			res.BitParCellsPerSec = float64(len(prog)) * float64(len(ref)) / res.BitParSec
		}
	}

	start := time.Now()
	hsps1, _, err1 := tblastn.Search(query, ref, tblastn.Options{Threads: 1})
	res.TBLASTN1Sec = time.Since(start).Seconds()
	if err1 == nil {
		res.TBLASTNHsps = len(hsps1)
	}

	start = time.Now()
	_, _, _ = tblastn.Search(query, ref, tblastn.Options{Threads: cfg.Threads})
	res.TBLASTNnSec = time.Since(start).Seconds()

	if res.EngineSec > 0 {
		res.SpeedupOverT = res.TBLASTNnSec / res.EngineSec
	}
	return res
}

// Measured renders the reduced-scale measured comparison.
func Measured(cfg MeasuredConfig) *Table {
	r := RunMeasured(cfg)
	t := &Table{
		Title:  "Measured (reduced scale) — real Go implementations, wall clock",
		Header: []string{"implementation", "seconds", "notes"},
	}
	t.AddRow("FabP engine (scalar, bit-exact, 1 thread)", f3(r.EngineSec), itoa(r.EngineHits)+" hits")
	t.AddRow("FabP bit-parallel kernel (GPU algorithm, 1 thread)", f3(r.BitParSec),
		fmt.Sprintf("%d hits, %.2g cells/s", r.BitParHits, r.BitParCellsPerSec))
	t.AddRow("TBLASTN (1 thread)", f3(r.TBLASTN1Sec), itoa(r.TBLASTNHsps)+" HSPs")
	t.AddRow("TBLASTN ("+itoa(r.ThreadsUsed)+" threads)", f3(r.TBLASTNnSec), "")
	t.AddNote("reference %d nt, query %d aa; CPU-only sanity check of pipeline shapes — "+
		"FPGA projections come from the fpga/perf models", r.Config.RefLen, r.Config.QueryLen)
	return t
}
