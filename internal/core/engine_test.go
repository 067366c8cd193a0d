package core

import (
	"math/rand"
	"reflect"
	"testing"

	"fabp/internal/bio"
	"fabp/internal/isa"
)

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(nil, 0); err == nil {
		t.Error("empty program must fail")
	}
	prog := isa.MustEncodeProtein(bio.ProtSeq{bio.Met})
	if _, err := NewEngine(prog, -1); err == nil {
		t.Error("negative threshold must fail")
	}
	if _, err := NewEngine(prog, 4); err == nil {
		t.Error("threshold beyond program length must fail")
	}
	e, err := NewEngine(prog, 3)
	if err != nil {
		t.Fatal(err)
	}
	if e.QueryElems() != 3 || e.Threshold() != 3 {
		t.Error("accessors wrong")
	}
}

// TestEngineMatchesNaiveScore: the table-driven engine must equal the
// instruction-level naive scorer everywhere.
func TestEngineMatchesNaiveScore(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		p := bio.RandomProtSeq(rng, 3+rng.Intn(10))
		prog := isa.MustEncodeProtein(p)
		ref := bio.RandomNucSeq(rng, len(prog)+rng.Intn(200))
		e, err := NewEngine(prog, 0)
		if err != nil {
			t.Fatal(err)
		}
		hits := e.Align(ref)
		n := len(ref) - len(prog) + 1
		if len(hits) != n {
			t.Fatalf("threshold 0 must hit every position: %d != %d", len(hits), n)
		}
		for _, h := range hits {
			want := prog.Score(ref[h.Pos : h.Pos+len(prog)])
			if h.Score != want {
				t.Fatalf("pos %d: engine %d, naive %d", h.Pos, h.Score, want)
			}
			if got := e.Score(ref, h.Pos); got != want {
				t.Fatalf("pos %d: Score() %d, naive %d", h.Pos, got, want)
			}
		}
	}
}

func TestEngineThresholdFilters(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := bio.RandomProtSeq(rng, 10)
	prog := isa.MustEncodeProtein(p)
	ref := bio.RandomNucSeq(rng, 2000)
	all, _ := NewEngine(prog, 0)
	half, _ := NewEngine(prog, len(prog)/2)
	allHits := all.Align(ref)
	halfHits := half.Align(ref)
	if len(halfHits) >= len(allHits) {
		t.Error("threshold must filter")
	}
	want := 0
	for _, h := range allHits {
		if h.Score >= len(prog)/2 {
			want++
		}
	}
	if len(halfHits) != want {
		t.Errorf("filtered %d, want %d", len(halfHits), want)
	}
}

func TestEngineShortReference(t *testing.T) {
	prog := isa.MustEncodeProtein(bio.ProtSeq{bio.Met, bio.Trp})
	e, _ := NewEngine(prog, 0)
	if hits := e.Align(bio.NucSeq{bio.A, bio.U}); hits != nil {
		t.Error("reference shorter than query must yield no hits")
	}
	if _, ok := e.BestHit(bio.NucSeq{bio.A}); ok {
		t.Error("BestHit on short reference must report not-ok")
	}
}

func TestEnginePlantedGeneRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ref, genes := bio.SyntheticReference(rng, 30000, 4, 40)
	for _, g := range genes {
		// Avoid the dropped-Ser effect by requiring only a near-perfect
		// score; a perfect score is guaranteed without Ser residues.
		prog := isa.MustEncodeProtein(g.Protein)
		e, _ := NewEngine(prog, len(prog)-2*countSer(g.Protein))
		hits := e.Align(ref)
		found := false
		for _, h := range hits {
			if h.Pos == g.Pos {
				found = true
			}
		}
		if !found {
			t.Errorf("planted gene at %d not recovered", g.Pos)
		}
	}
}

func countSer(p bio.ProtSeq) int {
	n := 0
	for _, a := range p {
		if a == bio.Ser {
			n++
		}
	}
	return n
}

func TestEngineHitsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := bio.RandomProtSeq(rng, 5)
	prog := isa.MustEncodeProtein(p)
	ref := bio.RandomNucSeq(rng, 100000)
	e, _ := NewEngine(prog, 8)
	hits := e.Align(ref)
	for i := 1; i < len(hits); i++ {
		if hits[i].Pos <= hits[i-1].Pos {
			t.Fatal("hits must be strictly position-ordered")
		}
	}
}

func TestEngineBestHit(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := bio.RandomProtSeq(rng, 15)
	for i := range p {
		if p[i] == bio.Ser {
			p[i] = bio.Ala
		}
	}
	gene := bio.EncodeGene(rng, p)
	ref := bio.RandomNucSeq(rng, 5000)
	pos := 1234
	copy(ref[pos:], gene)
	prog := isa.MustEncodeProtein(p)
	e, _ := NewEngine(prog, 0)
	best, ok := e.BestHit(ref)
	if !ok {
		t.Fatal("BestHit failed")
	}
	if best.Pos != pos || best.Score != len(prog) {
		t.Errorf("best = %+v, want pos %d score %d", best, pos, len(prog))
	}
}

// TestEngineAlignPacked: a reference read back from its 2-bit DRAM
// layout aligns exactly like the letters it was packed from.
func TestEngineAlignPacked(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := bio.RandomProtSeq(rng, 8)
	prog := isa.MustEncodeProtein(p)
	ref := bio.RandomNucSeq(rng, 3000)
	e, _ := NewEngine(prog, 10)
	if !reflect.DeepEqual(e.Align(ref), e.Align(bio.Pack(ref).Unpack())) {
		t.Error("packed alignment differs")
	}
}

func TestEValue(t *testing.T) {
	prog := isa.MustEncodeProtein(bio.ProtSeq{bio.Met, bio.Trp})
	e, _ := NewEngine(prog, 0)
	// Perfect score: P = 0.25^6, E over 1001-window scan.
	want := 1001.0 * 1.0 / (1 << 12)
	if got := e.EValue(6, 1006); got < want*0.999 || got > want*1.001 {
		t.Errorf("EValue = %g, want %g", got, want)
	}
	if e.EValue(3, 1) != 0 {
		t.Error("short reference must have E=0")
	}
	if e.EValue(0, 1006) != 1001 {
		t.Error("score 0 is certain: E = window count")
	}
}
