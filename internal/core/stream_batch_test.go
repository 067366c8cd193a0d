package core

import (
	"math/rand"
	"reflect"
	"testing"

	"fabp/internal/axi"
	"fabp/internal/bio"
	"fabp/internal/isa"
)

// TestAlignStreamEqualsAlign: scoring the reference beat by beat the way
// the hardware does — each beat contributes the window starts that end
// inside it, over the shared context array — must reproduce the flat scan
// exactly, for beats smaller and larger than the query.
func TestAlignStreamEqualsAlign(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, beat := range []int{4, 16, 256, 1000} {
		for trial := 0; trial < 5; trial++ {
			p := bio.RandomProtSeq(rng, 2+rng.Intn(10))
			prog := isa.MustEncodeProtein(p)
			e, _ := NewEngine(prog, len(prog)/2)
			ref := bio.RandomNucSeq(rng, 50+rng.Intn(500))
			ctxs := AppendContexts(nil, ref)
			var beats []Hit
			for b := 0; b*beat < len(ref); b++ {
				lo := b*beat - len(prog) + 1
				beats = append(beats, e.AlignContexts(ctxs, lo, lo+beat)...)
			}
			if flat := e.Align(ref); !reflect.DeepEqual(flat, beats) {
				t.Fatalf("beat %d trial %d: %v != %v", beat, trial, flat, beats)
			}
		}
	}
}

// TestAlignStreamCycleAccounting: the cycle-accurate netlist streaming a
// reference takes exactly the cycles of the analytic AXI stream model the
// resource estimator uses (axi.SimulateStream plus the pipeline drain),
// at full rate, segmented and under DRAM stalls, and stalls change timing
// only, never hits.
func TestAlignStreamCycleAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	prog := isa.MustEncodeProtein(bio.RandomProtSeq(rng, 4))
	ref := bio.RandomNucSeq(rng, 400)
	const beat = 8
	beats := (len(ref) + beat - 1) / beat
	e, _ := NewEngine(prog, 6)
	want := e.Align(ref)

	full, err := NewNetlistRunner(NetlistConfig{QueryElems: len(prog), Beat: beat, Threshold: 6}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if got := full.Align(ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("full rate: %v != %v", got, want)
	}
	if ideal := axi.SimulateStream(beats, axi.NoStall{}, 1); full.Cycles() != ideal.TotalCycles+PipelineDepth {
		t.Errorf("ideal cycles %d, want %d", full.Cycles(), ideal.TotalCycles+PipelineDepth)
	}

	seg, err := NewNetlistRunner(NetlistConfig{QueryElems: len(prog), Beat: beat, Threshold: 6, Iterations: 4}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if got := seg.Align(ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("segmented: %v != %v", got, want)
	}
	model := axi.SimulateStream(beats, axi.NoStall{}, 4)
	if seg.Cycles() != model.TotalCycles+seg.ports.Latency {
		t.Errorf("segmented cycles %d, want %d", seg.Cycles(), model.TotalCycles+seg.ports.Latency)
	}
	if model.ComputeBoundCycles != 3*beats {
		t.Errorf("compute-bound cycles %d, want %d", model.ComputeBoundCycles, 3*beats)
	}

	// Stalls: the same seeded pattern drives the netlist and the model.
	pattern := axi.NewRandomStall(0.3, 2, 5)
	stalls := make([]int, beats)
	for b := range stalls {
		stalls[b] = pattern.StallsBefore(b)
	}
	if got := full.AlignWithStalls(ref, stalls); !reflect.DeepEqual(got, want) {
		t.Fatal("stall model changed results")
	}
	stalled := axi.SimulateStream(beats, axi.NewRandomStall(0.3, 2, 5), 1)
	if stalled.StallCycles == 0 {
		t.Fatal("stall pattern inserted no stalls")
	}
	if full.Cycles() != stalled.TotalCycles+PipelineDepth {
		t.Errorf("stalled cycles %d, want %d", full.Cycles(), stalled.TotalCycles+PipelineDepth)
	}

	// Short reference: no hits from either model.
	if hits := e.Align(bio.NucSeq{bio.A}); hits != nil {
		t.Errorf("short ref: %v", hits)
	}
}

// TestBatchMatchesIndividualEngines: a batch of queries scanning one
// shared context array — the paper's one-pass, many-query workload —
// gives each query exactly the hits of its own engine's flat scan.
func TestBatchMatchesIndividualEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	ref := bio.RandomNucSeq(rng, 200_000)
	ctxs := AppendContexts(nil, ref)
	for i := 0; i < 6; i++ {
		prog := isa.MustEncodeProtein(bio.RandomProtSeq(rng, 3+rng.Intn(12)))
		e, err := NewEngine(prog, len(prog)*2/3)
		if err != nil {
			t.Fatal(err)
		}
		got, want := e.AlignContexts(ctxs, 0, len(ref)), e.Align(ref)
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: shared contexts %d hits, individual %d", i, len(got), len(want))
		}
	}
}

// TestBatchBestHits: per query of a batch, the engine's best hit lands on
// its perfectly planted gene, and a too-short reference has none.
func TestBatchBestHits(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	ref, genes := bio.SyntheticReference(rng, 30_000, 2, 30)
	for _, g := range genes {
		p := g.Protein
		for j := range p {
			if p[j] == bio.Ser {
				p[j] = bio.Gly
			}
		}
		// Re-plant with Ser removed so the best hit is perfect.
		copy(ref[g.Pos:], bio.EncodeGene(rng, p))
	}
	for i, g := range genes {
		e, err := NewEngine(isa.MustEncodeProtein(g.Protein), 0)
		if err != nil {
			t.Fatal(err)
		}
		if best, ok := e.BestHit(ref); !ok || best.Pos != g.Pos {
			t.Errorf("query %d best at %+v/%v, want %d", i, best, ok, g.Pos)
		}
		if _, ok := e.BestHit(bio.NucSeq{bio.A}); ok {
			t.Errorf("query %d: short ref must yield no best hit", i)
		}
	}
}
