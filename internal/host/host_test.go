package host

import (
	"math"
	"testing"

	"fabp/internal/fpga"
)

func TestPCIeTransfer(t *testing.T) {
	link := Gen3x8()
	if link.TransferSec(0) != 0 {
		t.Error("zero bytes must be free")
	}
	oneGB := link.TransferSec(1 << 30)
	if oneGB < 0.1 || oneGB > 0.3 {
		t.Errorf("1 GiB over Gen3 x8 took %.3fs, expected ~0.165s", oneGB)
	}
	// Latency dominates tiny transfers.
	if tiny := link.TransferSec(64); math.Abs(tiny-link.LatencySec) > 1e-6 {
		t.Errorf("tiny transfer %.2e should be ≈latency", tiny)
	}
}

// TestSessionLifecycle: the database load is the 2-bit packed image of
// its length, shipped once over the link; an empty database fails.
func TestSessionLifecycle(t *testing.T) {
	p := DefaultPlatform()
	if _, err := p.Load(0); err == nil {
		t.Error("empty database must fail")
	}
	stats, err := p.Load(100_000)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Bytes != int64((100_000+31)/32*8) {
		t.Errorf("packed bytes %d", stats.Bytes)
	}
	if stats.Seconds != p.Link.TransferSec(stats.Bytes) {
		t.Error("load cost bookkeeping")
	}
}

func TestSessionCapacity(t *testing.T) {
	p := DefaultPlatform()
	p.DRAMBytes = 1024
	if _, err := p.Load(100_000); err == nil {
		t.Error("oversized database must fail")
	}
	if _, err := p.Load(4096); err != nil {
		t.Errorf("a database of exactly the card's DRAM must load: %v", err)
	}
}

// TestRunQueryEndToEnd: the timing legs follow the protocol and add up to
// the total; readback grows with the hit count.
func TestRunQueryEndToEnd(t *testing.T) {
	p := DefaultPlatform()
	est, err := p.Fit(90)
	if err != nil {
		t.Fatal(err)
	}
	if !est.Fits {
		t.Fatal("estimate does not fit")
	}
	tm := p.QueryTiming(est, 90, 80_000, 12)
	sum := tm.EncodeSec + tm.QueryTransferSec + tm.KernelSec + tm.ReadbackSec + p.InvokeOverheadSec
	if math.Abs(sum-tm.TotalSec) > 1e-12 {
		t.Errorf("timing legs %.3e != total %.3e", sum, tm.TotalSec)
	}
	if tm.KernelSec != fpga.Time(est, 80_000, nil).Seconds || tm.KernelSec <= 0 {
		t.Errorf("kernel %.3e does not follow the fpga timing model", tm.KernelSec)
	}
	if tm.EncodeSec != 90*p.EncodeNsPerElement*1e-9 || tm.QueryTransferSec != p.Link.TransferSec(90) {
		t.Errorf("encode/transfer legs %+v", tm)
	}
	if more := p.QueryTiming(est, 90, 80_000, 10_000); more.ReadbackSec <= tm.ReadbackSec {
		t.Error("readback must grow with the hit count")
	}
	if none := p.QueryTiming(est, 90, 80_000, 0); none.ReadbackSec != 0 {
		t.Error("no hits, no readback")
	}
}

func TestRunQueryOversized(t *testing.T) {
	p := DefaultPlatform()
	p.Device = fpga.Artix7()
	p.Device.LUTs = 5000
	if _, err := p.Fit(1500); err == nil {
		t.Error("non-fitting query must fail")
	}
}

// TestRunBatchAmortization: a batch pays one kernel pass per query and one
// readback for all hits; its total is the per-query legs, kernels,
// readback and launch overheads, and a one-query batch costs exactly one
// query's end-to-end time.
func TestRunBatchAmortization(t *testing.T) {
	p := DefaultPlatform()
	elems := []int{120, 90, 60}
	hits := []int{3, 0, 40}
	est, err := p.Fit(120)
	if err != nil {
		t.Fatal(err)
	}
	total, kernel := p.BatchTiming(est, elems, 60_000, hits)
	if kernel != 3*fpga.Time(est, 60_000, nil).Seconds {
		t.Errorf("kernel %.3e, want 3 passes", kernel)
	}
	if kernel <= 0 || total <= kernel {
		t.Errorf("batch timing implausible: total %.3e kernel %.3e", total, kernel)
	}
	var separate float64
	for i, n := range elems {
		separate += p.QueryTiming(est, n, 60_000, hits[i]).TotalSec
	}
	if total >= separate {
		t.Errorf("batch %.3e must amortize the readbacks of %.3e", total, separate)
	}
	one, _ := p.BatchTiming(est, elems[:1], 60_000, hits[:1])
	if q := p.QueryTiming(est, 120, 60_000, 3).TotalSec; math.Abs(one-q) > 1e-15 {
		t.Errorf("one-query batch %.6e != query %.6e", one, q)
	}
}
