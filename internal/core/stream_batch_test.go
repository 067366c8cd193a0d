package core

import (
	"math/rand"
	"reflect"
	"testing"

	"fabp/internal/axi"
	"fabp/internal/bio"
	"fabp/internal/isa"
)

// TestAlignStreamEqualsAlign: beat-chunked scoring must reproduce the flat
// scan exactly, for beats smaller and larger than the query.
func TestAlignStreamEqualsAlign(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, beat := range []int{4, 16, 256, 1000} {
		for trial := 0; trial < 5; trial++ {
			p := bio.RandomProtSeq(rng, 2+rng.Intn(10))
			prog := isa.MustEncodeProtein(p)
			e, _ := NewEngine(prog, len(prog)/2)
			ref := bio.RandomNucSeq(rng, 50+rng.Intn(500))
			flat := e.Align(ref)
			streamed, stats := e.AlignStream(ref, StreamConfig{Beat: beat})
			if !reflect.DeepEqual(flat, streamed) {
				t.Fatalf("beat %d trial %d: %v != %v", beat, trial, flat, streamed)
			}
			wantBeats := (len(ref) + beat - 1) / beat
			if stats.Beats != wantBeats {
				t.Fatalf("beats %d, want %d", stats.Beats, wantBeats)
			}
		}
	}
}

func TestAlignStreamCycleAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	p := bio.RandomProtSeq(rng, 4)
	e, _ := NewEngine(isa.MustEncodeProtein(p), 6)
	ref := bio.RandomNucSeq(rng, 10_000)

	_, ideal := e.AlignStream(ref, StreamConfig{Beat: 256, Iterations: 1, Stall: axi.NoStall{}})
	if ideal.Cycles != ideal.Beats+PipelineDepth {
		t.Errorf("ideal cycles %d, want %d", ideal.Cycles, ideal.Beats+PipelineDepth)
	}
	_, seg := e.AlignStream(ref, StreamConfig{Beat: 256, Iterations: 4, Stall: axi.NoStall{}})
	if seg.Cycles != 4*seg.Beats+PipelineDepth {
		t.Errorf("segmented cycles %d, want %d", seg.Cycles, 4*seg.Beats+PipelineDepth)
	}
	if seg.ComputeCycles != 3*seg.Beats {
		t.Errorf("compute-bound cycles %d", seg.ComputeCycles)
	}
	// Stalls must not change hits.
	h1, _ := e.AlignStream(ref, StreamConfig{Beat: 256, Stall: axi.NewRandomStall(0.3, 2, 5)})
	h2, _ := e.AlignStream(ref, StreamConfig{Beat: 256, Stall: axi.NoStall{}})
	if !reflect.DeepEqual(h1, h2) {
		t.Error("stall model changed results")
	}
	// Short reference: no hits, stats still sane.
	hits, stats := e.AlignStream(bio.NucSeq{bio.A}, StreamConfig{Beat: 8})
	if hits != nil || stats.Beats != 1 {
		t.Errorf("short ref: %v %+v", hits, stats)
	}
	// Defaults: zero config fields.
	_, stats = e.AlignStream(ref, StreamConfig{})
	if stats.Beats != (len(ref)+255)/256 {
		t.Error("default beat should be 256")
	}
}

func TestBatchMatchesIndividualEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	ref := bio.RandomNucSeq(rng, 200_000)
	var progs []isa.Program
	var thresholds []int
	for i := 0; i < 6; i++ {
		p := bio.RandomProtSeq(rng, 3+rng.Intn(12))
		prog := isa.MustEncodeProtein(p)
		progs = append(progs, prog)
		thresholds = append(thresholds, len(prog)*2/3)
	}
	batch, err := NewBatch(progs, thresholds)
	if err != nil {
		t.Fatal(err)
	}
	got := batch.Align(ref)
	for i := range progs {
		e, _ := NewEngine(progs[i], thresholds[i])
		want := e.Align(ref)
		if len(want) == 0 && len(got[i]) == 0 {
			continue
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("query %d: batch %d hits, individual %d", i, len(got[i]), len(want))
		}
	}
}

func TestBatchValidation(t *testing.T) {
	if _, err := NewBatch(nil, nil); err == nil {
		t.Error("empty batch must fail")
	}
	prog := isa.MustEncodeProtein(bio.ProtSeq{bio.Met})
	if _, err := NewBatch([]isa.Program{prog}, []int{1, 2}); err == nil {
		t.Error("length mismatch must fail")
	}
	if _, err := NewBatch([]isa.Program{prog}, []int{99}); err == nil {
		t.Error("bad threshold must fail")
	}
	b, err := NewBatchUniform([]isa.Program{prog}, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 1 {
		t.Error("Len")
	}
}

func TestBatchBestHits(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	ref, genes := bio.SyntheticReference(rng, 30_000, 2, 30)
	var progs []isa.Program
	for _, g := range genes {
		p := g.Protein
		for i := range p {
			if p[i] == bio.Ser {
				p[i] = bio.Gly
			}
		}
		// Re-plant with Ser removed so the best hit is perfect.
		copy(ref[g.Pos:], bio.EncodeGene(rng, p))
		progs = append(progs, isa.MustEncodeProtein(p))
	}
	batch, _ := NewBatchUniform(progs, 0.9)
	best := batch.BestHits(ref)
	for i, g := range genes {
		if best[i].Pos != g.Pos {
			t.Errorf("query %d best at %d, want %d", i, best[i].Pos, g.Pos)
		}
	}
	// Too-short reference marks -1.
	tiny := batch.BestHits(bio.NucSeq{bio.A})
	if tiny[0].Pos != -1 {
		t.Error("short ref must yield -1")
	}
}
