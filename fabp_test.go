package fabp

import (
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"fabp/internal/bio"
)

func TestNewQueryBasics(t *testing.T) {
	q, err := NewQuery("MFSR*")
	if err != nil {
		t.Fatal(err)
	}
	if q.Residues() != 5 || q.Elements() != 15 || q.MaxScore() != 15 {
		t.Errorf("query geometry wrong: %d %d", q.Residues(), q.Elements())
	}
	if q.Protein() != "MFSR*" {
		t.Errorf("protein %q", q.Protein())
	}
	want := "AUG-UU(U/C)-UCD-(A/C)G(F:10)-U(A/G)(F:00)"
	if q.Degenerate() != want {
		t.Errorf("degenerate %q, want %q", q.Degenerate(), want)
	}
	if len(q.Instructions()) != 15 {
		t.Error("instruction bytes")
	}
	if !strings.Contains(q.Disassemble(), "Type III") {
		t.Error("disassembly")
	}
}

func TestNewQueryErrors(t *testing.T) {
	if _, err := NewQuery(""); err == nil {
		t.Error("empty query must fail")
	}
	if _, err := NewQuery("MXZ"); err == nil {
		t.Error("invalid letters must fail")
	}
}

func TestReferenceParsing(t *testing.T) {
	r, err := NewReference("ACGT ACGU\nacgt")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 12 {
		t.Errorf("len %d", r.Len())
	}
	if r.String() != "ACGUACGUACGU" {
		t.Errorf("string %q", r.String())
	}
	if _, err := NewReference("ACGN"); err == nil {
		t.Error("invalid base must fail")
	}
}

func TestNewReferenceIUPAC(t *testing.T) {
	r, amb, err := NewReferenceIUPAC("ACGTNNNRYSWacgt")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 15 || amb != 7 {
		t.Errorf("len %d amb %d", r.Len(), amb)
	}
	if _, _, err := NewReferenceIUPAC("AC!"); err == nil {
		t.Error("invalid letter must fail")
	}
}

func TestReadReferenceFasta(t *testing.T) {
	in := ">chr1\nACGT\n>chr2\nGGGG\n"
	ref, offsets, err := ReadReferenceFasta(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Len() != 8 || len(offsets) != 2 || offsets[1] != 4 {
		t.Errorf("fasta concat: len=%d offsets=%v", ref.Len(), offsets)
	}
	if _, _, err := ReadReferenceFasta(strings.NewReader("")); err == nil {
		t.Error("empty FASTA must fail")
	}
	if _, _, err := ReadReferenceFasta(strings.NewReader(">x\nMKW\n")); err == nil {
		t.Error("protein FASTA as reference must fail")
	}
}

func TestEndToEndPlantedGene(t *testing.T) {
	ref, genes := SyntheticReference(42, 50_000, 5, 60)
	if len(genes) != 5 {
		t.Fatal("planting failed")
	}
	g := genes[2]
	q, err := NewQuery(g.Protein)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAligner(q, WithThresholdFraction(0.9))
	if err != nil {
		t.Fatal(err)
	}
	hits := a.Align(ref)
	found := false
	for _, h := range hits {
		if h.Pos == g.Pos {
			found = true
		}
	}
	if !found {
		t.Errorf("planted gene at %d not found among %d hits", g.Pos, len(hits))
	}
	best, ok := a.Best(ref)
	if !ok || best.Pos != g.Pos {
		t.Errorf("best hit %+v, want pos %d", best, g.Pos)
	}
	score, err := a.ScoreAt(ref, g.Pos)
	if err != nil {
		t.Fatal(err)
	}
	if score < a.Threshold() {
		t.Errorf("true-locus score %d below threshold %d", score, a.Threshold())
	}
	if _, err := a.ScoreAt(ref, ref.Len()); err == nil {
		t.Error("out-of-range ScoreAt must fail")
	}
}

func TestSuggestThresholdFacade(t *testing.T) {
	q, _ := NewQuery("MKWVTFISLLFLFSSAYSRGVFRRMKWVTFISLL")
	thr, err := q.SuggestThreshold(1_000_000, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if float64(thr) <= q.NullMeanScore() || thr > q.MaxScore() {
		t.Errorf("threshold %d implausible (null mean %.1f, max %d)",
			thr, q.NullMeanScore(), q.MaxScore())
	}
	// A planted gene must clear the suggested threshold.
	ref, genes := SyntheticReference(5, 200_000, 1, q.Residues())
	qq, _ := NewQuery(genes[0].Protein)
	thr2, err := qq.SuggestThreshold(ref.Len(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := NewAligner(qq, WithThreshold(thr2))
	found := false
	for _, h := range a.Align(ref) {
		if h.Pos == genes[0].Pos {
			found = true
		}
	}
	if !found {
		t.Error("suggested threshold rejected the true positive")
	}
}

func TestAlignerOptions(t *testing.T) {
	q, _ := NewQuery("MKWVTFISLL")
	a1, err := NewAligner(q, WithThreshold(30), WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	if a1.Threshold() != 30 {
		t.Errorf("threshold %d", a1.Threshold())
	}
	a2, err := NewAligner(q, WithThresholdFraction(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if a2.Threshold() != 15 {
		t.Errorf("fractional threshold %d", a2.Threshold())
	}
	if _, err := NewAligner(q, WithThreshold(1000)); err == nil {
		t.Error("threshold beyond max must fail")
	}
}

func TestKernelSelectionEquivalence(t *testing.T) {
	ref, genes := SyntheticReference(91, 100_000, 3, 40)
	q, _ := NewQuery(genes[1].Protein)
	var results [][]Hit
	for _, kernel := range []Kernel{KernelScalar, KernelBitParallel, KernelAuto} {
		a, err := NewAligner(q, WithThresholdFraction(0.7), WithKernelType(kernel))
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, a.Align(ref))
	}
	for i := 1; i < len(results); i++ {
		if len(results[i]) != len(results[0]) {
			t.Fatalf("kernel %d: %d hits vs %d", i, len(results[i]), len(results[0]))
		}
		for j := range results[0] {
			if results[i][j] != results[0][j] {
				t.Fatalf("kernel %d hit %d differs", i, j)
			}
		}
	}
}

// TestParseKernelWithKernelType pins the name-to-kernel bridge: a name
// parsed by ParseKernel and passed to WithKernelType scans exactly like
// the typed enum, and an unknown name fails with ErrBadOption.
func TestParseKernelWithKernelType(t *testing.T) {
	ref, genes := SyntheticReference(91, 50_000, 2, 30)
	q, err := NewQuery(genes[0].Protein)
	if err != nil {
		t.Fatal(err)
	}
	k, err := ParseKernel("bitparallel")
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := NewAligner(q, WithThresholdFraction(0.7), WithKernelType(k))
	if err != nil {
		t.Fatal(err)
	}
	typed, err := NewAligner(q, WithThresholdFraction(0.7), WithKernelType(KernelBitParallel))
	if err != nil {
		t.Fatal(err)
	}
	want := typed.Align(ref)
	got := parsed.Align(ref)
	if len(got) != len(want) {
		t.Fatalf("parsed kernel: %d hits, typed %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hit %d: parsed %+v, typed %+v", i, got[i], want[i])
		}
	}
	_, err = ParseKernel("gpu")
	if err == nil {
		t.Fatal("unknown kernel must fail")
	}
	if !errors.Is(err, ErrBadOption) {
		t.Errorf("unknown-kernel error %v does not match ErrBadOption", err)
	}
}

func TestMutateProtein(t *testing.T) {
	orig, err := RandomProtein(7, 100)
	if err != nil {
		t.Fatal(err)
	}
	mut, _, err := MutateProtein(8, orig, 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(mut) != len(orig) {
		t.Error("no-indel mutation must preserve length")
	}
	if mut == orig {
		t.Error("mutation should change something at 10%")
	}
	if _, _, err := MutateProtein(1, "XX", 0.1, 0); err == nil {
		t.Error("bad protein must fail")
	}
	if _, err := RandomProtein(1, 0); err == nil {
		t.Error("zero length must fail")
	}
}

func TestSizeOnDevice(t *testing.T) {
	rep, err := SizeOnDevice(DeviceKintex7, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Fits || rep.Iterations != 1 || rep.Bottleneck != "bandwidth-bound" {
		t.Errorf("FabP-50 report: %+v", rep)
	}
	if !strings.Contains(rep.String(), "Kintex") {
		t.Error("report string")
	}
	rep250, err := SizeOnDevice("", 250, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep250.Iterations < 2 || rep250.Seconds <= rep.Seconds {
		t.Errorf("FabP-250 report: %+v", rep250)
	}
	if _, err := SizeOnDevice("nope", 50, 0); err == nil {
		t.Error("unknown device must fail")
	}
	if _, err := SizeOnDevice(DeviceKintex7, 0, 0); err == nil {
		t.Error("zero residues must fail")
	}
	huge, err := SizeOnDevice(DeviceArtix7, 5000, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = huge // may or may not fit; String must not panic either way
	_ = huge.String()
}

func TestGenerateVerilog(t *testing.T) {
	var sb strings.Builder
	luts, ffs, err := GenerateVerilog(&sb, VerilogConfig{
		QueryResidues: 2, BeatElements: 4, Threshold: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if luts == 0 || ffs == 0 {
		t.Error("empty netlist")
	}
	v := sb.String()
	if !strings.Contains(v, "module fabp_q6_b4") || !strings.Contains(v, "LUT6") {
		t.Error("verilog content")
	}
	var sb2 strings.Builder
	lutsTree, _, err := GenerateVerilog(&sb2, VerilogConfig{
		QueryResidues: 2, BeatElements: 4, Threshold: 5, TreeAdderPopcount: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if lutsTree <= luts {
		t.Error("tree-adder build should be larger")
	}
	if _, _, err := GenerateVerilog(&sb, VerilogConfig{}); err == nil {
		t.Error("zero residues must fail")
	}
}

func TestAnalyzeNetlist(t *testing.T) {
	s, err := AnalyzeNetlist(VerilogConfig{QueryResidues: 3, BeatElements: 8, Threshold: 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.LUTs == 0 || s.FFs == 0 || s.Depth < 3 {
		t.Errorf("stats implausible: %+v", s)
	}
	// The paper's 200 MHz operating point must be achievable per the
	// depth-based estimate (the real design pipelines the pop-counter).
	if s.FMaxHz < 100e6 {
		t.Errorf("FMax %.0f MHz too low", s.FMaxHz/1e6)
	}
	tree, err := AnalyzeNetlist(VerilogConfig{
		QueryResidues: 3, BeatElements: 8, Threshold: 5, TreeAdderPopcount: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tree.LUTs <= s.LUTs {
		t.Error("tree popcount should cost more LUTs")
	}
	if _, err := AnalyzeNetlist(VerilogConfig{}); err == nil {
		t.Error("zero residues must fail")
	}
}

func TestGenerateTestbench(t *testing.T) {
	var mod, tb strings.Builder
	err := GenerateTestbench(&mod, &tb, VerilogConfig{
		QueryResidues: 2, BeatElements: 4, Threshold: 5,
	}, 48, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(mod.String(), "module fabp_q6_b4") {
		t.Error("module missing")
	}
	for _, want := range []string{"module fabp_q6_b4_tb;", "TESTBENCH PASS", "stim["} {
		if !strings.Contains(tb.String(), want) {
			t.Errorf("testbench missing %q", want)
		}
	}
	if err := GenerateTestbench(&mod, &tb, VerilogConfig{}, 0, 1); err == nil {
		t.Error("zero residues must fail")
	}
	// Segmented variant must also record and emit.
	var mod2, tb2 strings.Builder
	if err := GenerateTestbench(&mod2, &tb2, VerilogConfig{
		QueryResidues: 2, BeatElements: 4, Threshold: 5, Iterations: 2,
	}, 32, 4); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(mod2.String(), "module fabp_q6_b4_s2") {
		t.Error("segmented module name missing")
	}
}

func TestGenerateDOT(t *testing.T) {
	var sb strings.Builder
	if err := GenerateDOT(&sb, VerilogConfig{QueryResidues: 1, BeatElements: 2, Threshold: 2}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "digraph fabp_q3_b2") {
		t.Errorf("dot output wrong: %s", sb.String()[:80])
	}
	if err := GenerateDOT(&sb, VerilogConfig{}); err == nil {
		t.Error("zero residues must fail")
	}
}

func TestGeneratePrimitiveLibrary(t *testing.T) {
	var sb strings.Builder
	if err := GeneratePrimitiveLibrary(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"module LUT6", "module FDRE", "INIT[{I5, I4, I3, I2, I1, I0}]"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("primitive library missing %q", want)
		}
	}
}

func TestGenerateWaveform(t *testing.T) {
	var sb strings.Builder
	hits, err := GenerateWaveform(&sb, VerilogConfig{
		QueryResidues: 2, BeatElements: 4, Threshold: 6,
	}, 48, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Error("waveform run should find the planted gene")
	}
	for _, want := range []string{"$timescale", "$var wire 1", "hits_valid", "#1"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("VCD missing %q", want)
		}
	}
	if _, err := GenerateWaveform(&sb, VerilogConfig{}, 0, 1); err == nil {
		t.Error("zero residues must fail")
	}
}

func TestComparePlatforms(t *testing.T) {
	c, err := ComparePlatforms(50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.FabP.Seconds >= c.CPU12.Seconds {
		t.Error("FabP must beat the CPU")
	}
	if c.CPU12.Seconds >= c.CPU1.Seconds {
		t.Error("12 threads must beat 1")
	}
	if c.FabP.EnergyJoules >= c.GPU.EnergyJoules {
		t.Error("FabP must be more energy efficient than the GPU")
	}
}

func TestSmithWatermanFacade(t *testing.T) {
	r, err := SmithWaterman("MKWVTFISLL", "MKWVTFISLL")
	if err != nil {
		t.Fatal(err)
	}
	if r.Identity != 1 || r.Gaps != 0 || !strings.HasSuffix(r.CIGAR, "M") {
		t.Errorf("self SW: %+v", r)
	}
	if !strings.Contains(r.Pretty, "Query") || !strings.Contains(r.Pretty, "||||||||||") {
		t.Errorf("pretty rendering missing:\n%s", r.Pretty)
	}
	if _, err := SmithWaterman("XX", "MK"); err == nil {
		t.Error("bad sequence must fail")
	}
	if _, err := SmithWaterman("MK", "XX"); err == nil {
		t.Error("bad sequence must fail")
	}
}

func TestExperimentFacade(t *testing.T) {
	names := ExperimentNames()
	if len(names) < 9 {
		t.Fatalf("experiments: %v", names)
	}
	out, err := RunExperiment("table1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "FabP-250") {
		t.Error("table1 output")
	}
	if _, err := RunExperiment("nope"); err == nil {
		t.Error("unknown experiment must fail")
	}
	if BackTranslationTable() == "" {
		t.Error("encoding table empty")
	}
}

// TestAlignerFootprint pins the retained heap of a resident aligner: a
// stream deployment holds one per query, so 1024 aligners for a 12/16/20 aa
// panel at 0.9 must stay within 3.7 KiB each (one compiled fused kernel;
// the scalar engine's truth tables are built only on first scalar use).
func TestAlignerFootprint(t *testing.T) {
	const n, budget = 1024, 3.7 * 1024
	rng := rand.New(rand.NewSource(1))
	queries := make([]*Query, n)
	for i := range queries {
		q, err := NewQuery(bio.RandomProtSeq(rng, []int{12, 16, 20}[i%3]).String())
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = q
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	aligners := make([]*Aligner, n)
	for i, q := range queries {
		a, err := NewAligner(q, WithThresholdFraction(0.9))
		if err != nil {
			t.Fatal(err)
		}
		aligners[i] = a
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perAligner := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	t.Logf("retained heap per aligner: %.0f B", perAligner)
	if perAligner > budget {
		t.Errorf("retained heap per aligner %.0f B, want <= %.0f B", perAligner, budget)
	}
	runtime.KeepAlive(aligners)
}
