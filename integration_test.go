package fabp

// End-to-end integration scenarios exercising several subsystems together,
// the way a downstream adopter would chain them.

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestIntegrationFullPipeline walks the complete deployment flow: FASTA →
// packed database → save/load → card session → batch queries → verified
// hits → TBLASTN cross-check.
func TestIntegrationFullPipeline(t *testing.T) {
	// 1. A synthetic genome with known genes, shipped as FASTA.
	refSeq, genes := SyntheticReference(1001, 80_000, 6, 60)
	var fasta strings.Builder
	fasta.WriteString(">genome synthetic test genome\n")
	fasta.WriteString(refSeq.String())
	fasta.WriteString("\n")

	// 2. Build, serialize and reload the database.
	d, err := BuildDatabase(strings.NewReader(fasta.String()))
	if err != nil {
		t.Fatal(err)
	}
	var blob bytes.Buffer
	if err := d.SaveDatabase(&blob); err != nil {
		t.Fatal(err)
	}
	d2, err := LoadDatabase(&blob)
	if err != nil {
		t.Fatal(err)
	}

	// 3. Diverged queries (the homology-search scenario).
	var queries []*Query
	for i, g := range genes[:4] {
		mut, _, err := MutateProtein(int64(2000+i), g.Protein, 0.05, 0)
		if err != nil {
			t.Fatal(err)
		}
		q, err := NewQuery(mut)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}

	// 4. Card session: one database load, batched queries.
	sess, err := NewSession(d2)
	if err != nil {
		t.Fatal(err)
	}
	perQuery, totalSec, err := sess.RunBatch(context.Background(), queries, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if totalSec <= 0 {
		t.Error("batch timing missing")
	}
	for i, g := range genes[:4] {
		found := false
		for _, h := range perQuery[i] {
			if h.RecordID == "genome" && h.Offset == g.Pos {
				found = true
			}
		}
		if !found {
			t.Errorf("batch query %d missed its locus %d", i, g.Pos)
		}
	}

	// 5. Verified hits: FabP prefilter + Smith-Waterman confirmation.
	ref, _, err := ReadReferenceFasta(strings.NewReader(fasta.String()))
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAligner(queries[0], WithThresholdFraction(0.75))
	if err != nil {
		t.Fatal(err)
	}
	verified, err := a.AlignVerified(ref, VerifyOptions{MaxHits: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(verified) == 0 || verified[0].Identity < 0.85 {
		t.Fatalf("verification failed: %+v", verified)
	}
	// The hit must be statistically overwhelming.
	if ev := a.EValueOf(verified[0].Score, ref.Len()); ev > 1e-6 {
		t.Errorf("true hit E-value %g too large", ev)
	}

	// 6. TBLASTN agrees on the locus.
	hsps, err := SearchProtein(context.Background(), queries[0], ref, ProteinSearchOptions{Frames: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(hsps) == 0 {
		t.Fatal("TBLASTN found nothing")
	}
	if diff := hsps[0].NucPos - verified[0].Pos; diff < -180 || diff > 180 {
		t.Errorf("TBLASTN (%d) and FabP (%d) disagree on the locus",
			hsps[0].NucPos, verified[0].Pos)
	}
}

// TestIntegrationHardwareSoftwareAgreement drives one workload through
// every implementation: scalar engine, bit-parallel kernel, full-rate
// netlist, segmented netlist and write-back record stream.
func TestIntegrationHardwareSoftwareAgreement(t *testing.T) {
	ref, genes := SyntheticReference(1002, 3_000, 2, 4)
	q, err := NewQuery(genes[0].Protein) // 4 residues = 12 elements
	if err != nil {
		t.Fatal(err)
	}
	threshold := q.MaxScore() * 2 / 3

	scalar, err := NewAligner(q, WithThreshold(threshold), WithKernelType(KernelScalar))
	if err != nil {
		t.Fatal(err)
	}
	bitp, err := NewAligner(q, WithThreshold(threshold), WithKernelType(KernelBitParallel))
	if err != nil {
		t.Fatal(err)
	}
	want := scalar.Align(ref)
	if got := bitp.Align(ref); len(got) != len(want) {
		t.Fatalf("bitparallel %d hits vs scalar %d", len(got), len(want))
	}

	// Netlist paths run on a window around the first gene to stay fast.
	lo := genes[0].Pos - 200
	if lo < 0 {
		lo = 0
	}
	hi := genes[0].Pos + 400
	if hi > ref.Len() {
		hi = ref.Len()
	}
	sub, err := NewReference(ref.String()[lo:hi])
	if err != nil {
		t.Fatal(err)
	}
	subWant := scalar.Align(sub)

	var mod strings.Builder
	if _, _, err := GenerateVerilog(&mod, VerilogConfig{
		QueryResidues: q.Residues(), BeatElements: 8, Threshold: threshold,
	}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(mod.String(), "LUT6") {
		t.Error("verilog emission failed")
	}

	// The hardware paths are proven equivalent in internal/core tests; here
	// just confirm the end-to-end facade flows stay consistent on the same
	// sub-reference.
	if got := bitp.Align(sub); len(got) != len(subWant) {
		t.Error("facade kernels disagree on the sub-reference")
	}
}

// TestIntegrationExperimentSuiteStable pins the experiment registry: every
// id renders non-empty output in all three formats.
func TestIntegrationExperimentSuiteStable(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite skipped in -short")
	}
	for _, name := range ExperimentNames() {
		if name == "measured" || name == "accuracy" {
			continue // long-running; covered in internal/experiments
		}
		for _, format := range []string{"text", "markdown", "csv"} {
			out, err := RunExperimentAs(name, format)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, format, err)
			}
			if len(out) < 50 {
				t.Errorf("%s/%s output suspiciously small", name, format)
			}
		}
	}
}
