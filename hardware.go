package fabp

import (
	"fmt"
	"io"

	"fabp/internal/core"
	"fabp/internal/fpga"
	"fabp/internal/perf"
	"fabp/internal/rtl"
)

// DeviceName selects one of the modeled FPGA parts.
type DeviceName string

// Modeled devices.
const (
	// DeviceKintex7 is the paper's mid-range part (Table I).
	DeviceKintex7 DeviceName = "kintex7"
	// DeviceVirtexUS is a large UltraScale+ part for scaling studies.
	DeviceVirtexUS DeviceName = "virtexus"
	// DeviceArtix7 is a low-end part.
	DeviceArtix7 DeviceName = "artix7"
)

func lookupDevice(name DeviceName) (fpga.Device, error) {
	switch name {
	case DeviceKintex7, "":
		return fpga.Kintex7(), nil
	case DeviceVirtexUS:
		return fpga.VirtexUS(), nil
	case DeviceArtix7:
		return fpga.Artix7(), nil
	}
	return fpga.Device{}, fmt.Errorf("fabp: unknown device %q", name)
}

// DeviceReport projects a FabP build onto a device: the Table I quantities
// plus timing and energy for a reference scan.
type DeviceReport struct {
	Device        string
	QueryResidues int
	// Fits reports whether the build fits the device at any segmentation.
	Fits bool
	// Iterations is the per-beat cycle count (1 = full rate).
	Iterations int
	// Utilization fractions (0..1) per resource class.
	LUTFrac, FFFrac, BRAMFrac, DSPFrac float64
	// Bottleneck is "bandwidth-bound" or "resource-bound" (§IV-B).
	Bottleneck string
	// Seconds, AchievedBandwidth and EnergyJoules project one scan of
	// RefNucleotides database elements.
	RefNucleotides    int
	Seconds           float64
	AchievedBandwidth float64
	PowerWatts        float64
	EnergyJoules      float64
}

// SizeOnDevice sizes a FabP build for queries of queryResidues amino acids
// on the named device and projects a scan of refNucleotides database
// elements (use 0 for the paper's 1 Gnt default).
func SizeOnDevice(name DeviceName, queryResidues, refNucleotides int) (*DeviceReport, error) {
	dev, err := lookupDevice(name)
	if err != nil {
		return nil, err
	}
	if queryResidues <= 0 {
		return nil, fmt.Errorf("fabp: query residues must be positive")
	}
	if refNucleotides <= 0 {
		refNucleotides = 1_000_000_000
	}
	est := fpga.Size(dev, fpga.Config{QueryElems: 3 * queryResidues})
	rep := &DeviceReport{
		Device:        dev.Name,
		QueryResidues: queryResidues,
		Fits:          est.Fits,
		Iterations:    est.Iterations,
		LUTFrac:       est.LUTFrac(),
		FFFrac:        est.FFFrac(),
		BRAMFrac:      est.BRAMFrac(),
		DSPFrac:       est.DSPFrac(),
		Bottleneck:    est.Bottleneck(),
	}
	if !est.Fits {
		return rep, nil
	}
	tm := fpga.Time(est, refNucleotides, nil)
	rep.RefNucleotides = refNucleotides
	rep.Seconds = tm.Seconds
	rep.AchievedBandwidth = tm.AchievedBandwidth
	rep.PowerWatts = est.Power()
	rep.EnergyJoules = tm.EnergyJoules
	return rep, nil
}

// String renders the report like a Table I row plus timing.
func (r *DeviceReport) String() string {
	if !r.Fits {
		return fmt.Sprintf("FabP-%d on %s: does not fit", r.QueryResidues, r.Device)
	}
	return fmt.Sprintf(
		"FabP-%d on %s: iter=%d LUT=%.0f%% FF=%.0f%% BRAM=%.0f%% DSP=%.0f%% (%s) — %.1f ms, %.1f GB/s, %.1f W, %.2f J per %d nt",
		r.QueryResidues, r.Device, r.Iterations,
		100*r.LUTFrac, 100*r.FFFrac, 100*r.BRAMFrac, 100*r.DSPFrac, r.Bottleneck,
		1000*r.Seconds, r.AchievedBandwidth/1e9, r.PowerWatts, r.EnergyJoules, r.RefNucleotides)
}

// VerilogConfig parameterizes GenerateVerilog.
type VerilogConfig struct {
	// QueryResidues is the supported query length in amino acids.
	QueryResidues int
	// BeatElements is the reference elements per AXI transfer (default
	// 256 = one 512-bit beat; small values produce inspectable netlists).
	BeatElements int
	// Threshold is the hit threshold baked into the comparators.
	Threshold int
	// Iterations > 1 emits the segmented long-query datapath (§III-C):
	// comparators sized for one query segment, reused over Iterations
	// cycles per beat with per-instance accumulators.
	Iterations int
	// TreeAdderPopcount swaps in the naive pop-counter (for the §III-D
	// comparison); default is the paper's Pop36 design.
	TreeAdderPopcount bool
	// PipelinedPopcount inserts register stages through the pop-counter
	// (the Fig. 4 pipelined design), raising Fmax at the cost of latency.
	PipelinedPopcount bool
}

// GenerateVerilog emits the FabP datapath for the configuration as
// structural Verilog-2001 (Xilinx LUT6/FDRE primitives) and returns the
// resource statistics of the generated netlist.
func GenerateVerilog(w io.Writer, cfg VerilogConfig) (luts, ffs int, err error) {
	if cfg.QueryResidues <= 0 {
		return 0, 0, fmt.Errorf("fabp: query residues must be positive")
	}
	beat := cfg.BeatElements
	if beat == 0 {
		beat = 256
	}
	pop := core.PopLUTOptimized
	if cfg.TreeAdderPopcount {
		pop = core.PopTree
	}
	n, _, err := core.BuildNetlist(core.NetlistConfig{
		QueryElems:   3 * cfg.QueryResidues,
		Beat:         beat,
		Threshold:    cfg.Threshold,
		Iterations:   cfg.Iterations,
		Pop:          pop,
		PipelinedPop: cfg.PipelinedPopcount,
	})
	if err != nil {
		return 0, 0, err
	}
	if err := rtl.EmitVerilog(w, n); err != nil {
		return 0, 0, err
	}
	s := n.Stats()
	return s.LUTs, s.FFs, nil
}

// NetlistStats reports a generated datapath's structural and timing
// figures.
type NetlistStats struct {
	LUTs, FFs int
	// Depth is the longest combinational path in LUT levels.
	Depth int
	// FMaxHz is the estimated maximum clock frequency for that depth on a
	// Kintex-7-class part.
	FMaxHz float64
}

// AnalyzeNetlist generates the datapath for cfg and returns its resource
// and timing statistics without emitting Verilog.
func AnalyzeNetlist(cfg VerilogConfig) (*NetlistStats, error) {
	if cfg.QueryResidues <= 0 {
		return nil, fmt.Errorf("fabp: query residues must be positive")
	}
	beat := cfg.BeatElements
	if beat == 0 {
		beat = 256
	}
	pop := core.PopLUTOptimized
	if cfg.TreeAdderPopcount {
		pop = core.PopTree
	}
	n, _, err := core.BuildNetlist(core.NetlistConfig{
		QueryElems:   3 * cfg.QueryResidues,
		Beat:         beat,
		Threshold:    cfg.Threshold,
		Iterations:   cfg.Iterations,
		Pop:          pop,
		PipelinedPop: cfg.PipelinedPopcount,
	})
	if err != nil {
		return nil, err
	}
	depth, err := n.Depth()
	if err != nil {
		return nil, err
	}
	s := n.Stats()
	return &NetlistStats{
		LUTs:   s.LUTs,
		FFs:    s.FFs,
		Depth:  depth,
		FMaxHz: rtl.FMaxEstimate(depth),
	}, nil
}

// GenerateTestbench emits both the Verilog module (to mod) and a
// self-checking testbench (to tb) for the configuration. The testbench
// stimulus is a real alignment of a deterministic synthetic reference of
// refNucleotides elements (seeded by seed); its expectations come from the
// cycle-accurate Go simulation, so an HDL simulator re-verifies the
// hardware against this implementation.
func GenerateTestbench(mod, tb io.Writer, cfg VerilogConfig, refNucleotides int, seed int64) error {
	if cfg.QueryResidues <= 0 {
		return fmt.Errorf("fabp: query residues must be positive")
	}
	beat := cfg.BeatElements
	if beat == 0 {
		beat = 8
	}
	if refNucleotides <= 0 {
		refNucleotides = 8 * beat
	}
	pop := core.PopLUTOptimized
	if cfg.TreeAdderPopcount {
		pop = core.PopTree
	}
	ref, genes := SyntheticReference(seed, refNucleotides, 1, cfg.QueryResidues)
	if len(genes) == 0 {
		return fmt.Errorf("fabp: reference too small to embed the query gene")
	}
	q, err := NewQuery(genes[0].Protein)
	if err != nil {
		return err
	}
	runner, err := core.NewNetlistRunner(core.NetlistConfig{
		QueryElems:   q.Elements(),
		Beat:         beat,
		Threshold:    cfg.Threshold,
		Iterations:   cfg.Iterations,
		Pop:          pop,
		PipelinedPop: cfg.PipelinedPopcount,
	}, q.program)
	if err != nil {
		return err
	}
	rec := rtl.NewTraceRecorder(runner.Netlist())
	runner.AttachRecorder(rec)
	runner.Align(ref.d.Seq())
	if err := rtl.EmitVerilog(mod, runner.Netlist()); err != nil {
		return err
	}
	return rec.EmitTestbench(tb)
}

// GenerateDOT emits the generated datapath as a Graphviz digraph for
// structural inspection (use small BeatElements/QueryResidues — the graph
// of a full build is unreadable).
func GenerateDOT(w io.Writer, cfg VerilogConfig) error {
	if cfg.QueryResidues <= 0 {
		return fmt.Errorf("fabp: query residues must be positive")
	}
	beat := cfg.BeatElements
	if beat == 0 {
		beat = 4
	}
	pop := core.PopLUTOptimized
	if cfg.TreeAdderPopcount {
		pop = core.PopTree
	}
	n, _, err := core.BuildNetlist(core.NetlistConfig{
		QueryElems:   3 * cfg.QueryResidues,
		Beat:         beat,
		Threshold:    cfg.Threshold,
		Iterations:   cfg.Iterations,
		Pop:          pop,
		PipelinedPop: cfg.PipelinedPopcount,
	})
	if err != nil {
		return err
	}
	return rtl.EmitDOT(w, n)
}

// GeneratePrimitiveLibrary writes behavioral Verilog models of LUT6 and
// FDRE so generated modules and testbenches simulate under any plain
// Verilog simulator without vendor libraries.
func GeneratePrimitiveLibrary(w io.Writer) error {
	return rtl.EmitPrimitiveLibrary(w)
}

// GenerateWaveform runs a small alignment on the generated netlist and
// dumps every cycle as a VCD waveform — the debug view of the datapath.
// The reference is synthetic (seeded); hits from the run are returned.
func GenerateWaveform(w io.Writer, cfg VerilogConfig, refNucleotides int, seed int64) ([]Hit, error) {
	if cfg.QueryResidues <= 0 {
		return nil, fmt.Errorf("fabp: query residues must be positive")
	}
	beat := cfg.BeatElements
	if beat == 0 {
		beat = 8
	}
	if refNucleotides <= 0 {
		refNucleotides = 8 * beat
	}
	pop := core.PopLUTOptimized
	if cfg.TreeAdderPopcount {
		pop = core.PopTree
	}
	ref, genes := SyntheticReference(seed, refNucleotides, 1, cfg.QueryResidues)
	if len(genes) == 0 {
		return nil, fmt.Errorf("fabp: reference too small to embed the query gene")
	}
	q, err := NewQuery(genes[0].Protein)
	if err != nil {
		return nil, err
	}
	runner, err := core.NewNetlistRunner(core.NetlistConfig{
		QueryElems:   q.Elements(),
		Beat:         beat,
		Threshold:    cfg.Threshold,
		Iterations:   cfg.Iterations,
		Pop:          pop,
		PipelinedPop: cfg.PipelinedPopcount,
	}, q.program)
	if err != nil {
		return nil, err
	}
	vcd, err := runner.AttachVCD(w)
	if err != nil {
		return nil, err
	}
	raw := runner.Align(ref.d.Seq())
	if err := vcd.Err(); err != nil {
		return nil, err
	}
	hits := make([]Hit, len(raw))
	for i, h := range raw {
		hits[i] = Hit{Pos: h.Pos, Score: h.Score}
	}
	return hits, nil
}

// PlatformComparison projects all of Fig. 6's platforms on one workload.
type PlatformComparison struct {
	QueryResidues  int
	RefNucleotides int
	// Results per platform.
	FabP, GPU, CPU1, CPU12 PlatformResult
}

// PlatformResult is one platform's projected run.
type PlatformResult struct {
	Platform     string
	Seconds      float64
	Watts        float64
	EnergyJoules float64
}

func toPlatformResult(r perf.Result) PlatformResult {
	return PlatformResult{
		Platform:     r.Platform,
		Seconds:      r.Seconds,
		Watts:        r.Watts,
		EnergyJoules: r.EnergyJoules(),
	}
}

// ComparePlatforms evaluates the calibrated Fig. 6 models (FabP on the
// Kintex-7, CUDA on a GTX 1080Ti, TBLASTN on an i7-8700K at 1 and 12
// threads) on one workload.
func ComparePlatforms(queryResidues, refNucleotides int) (*PlatformComparison, error) {
	if refNucleotides <= 0 {
		refNucleotides = 1_000_000_000
	}
	f, err := perf.FPGA(fpga.Kintex7(), queryResidues, refNucleotides)
	if err != nil {
		return nil, err
	}
	return &PlatformComparison{
		QueryResidues:  queryResidues,
		RefNucleotides: refNucleotides,
		FabP:           toPlatformResult(f),
		GPU:            toPlatformResult(perf.DefaultGPU().Time(queryResidues, refNucleotides)),
		CPU1:           toPlatformResult(perf.DefaultCPU(1).Time(queryResidues, refNucleotides)),
		CPU12:          toPlatformResult(perf.DefaultCPU(12).Time(queryResidues, refNucleotides)),
	}, nil
}
