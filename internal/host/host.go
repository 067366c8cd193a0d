// Package host models the paper's host-side flow (§IV): the OpenCL host
// encodes queries, ships them and the reference database over PCIe into the
// FPGA DRAM, invokes the RTL kernel, and reads hit records back. The paper
// measures *end-to-end* time — "reading both query and reference sequences
// from the FPGA DRAM, aligning the sequences, and writing the results" —
// so this package accounts every leg. It is pure arithmetic over the
// platform, the query element counts, the database length and the hit
// counts: the hits themselves come from the facade's scan.
package host

import (
	"fmt"

	"fabp/internal/bio"
	"fabp/internal/fpga"
)

// PCIe models the host↔FPGA link.
type PCIe struct {
	// BandwidthBytes is effective bytes/second.
	BandwidthBytes float64
	// LatencySec is the fixed per-transfer cost (doorbells, descriptors).
	LatencySec float64
}

// Gen3x8 returns a PCIe 3.0 x8 link (~7.9 GB/s raw, ~6.5 effective).
func Gen3x8() PCIe { return PCIe{BandwidthBytes: 6.5e9, LatencySec: 10e-6} }

// TransferSec returns the time to move n bytes.
func (p PCIe) TransferSec(n int64) float64 {
	if n <= 0 {
		return 0
	}
	return p.LatencySec + float64(n)/p.BandwidthBytes
}

// Platform bundles the accelerator card and host-side constants.
type Platform struct {
	// Device is the FPGA part.
	Device fpga.Device
	// Link is the PCIe connection.
	Link PCIe
	// DRAMBytes is the card's DRAM capacity for the resident database.
	DRAMBytes int64
	// EncodeNsPerElement is the host CPU cost to back-translate and encode
	// one query element.
	EncodeNsPerElement float64
	// InvokeOverheadSec is the per-kernel-launch overhead.
	InvokeOverheadSec float64
	// HitRecordBytes is the size of one write-back record (position +
	// score).
	HitRecordBytes int
}

// DefaultPlatform is the paper's setup: the Kintex-7 card on PCIe Gen3 x8
// with 8 GB of on-card DRAM.
func DefaultPlatform() Platform {
	return Platform{
		Device:             fpga.Kintex7(),
		Link:               Gen3x8(),
		DRAMBytes:          8 << 30,
		EncodeNsPerElement: 20,
		InvokeOverheadSec:  50e-6,
		HitRecordBytes:     8,
	}
}

// TransferStats describes one host→card movement.
type TransferStats struct {
	Bytes   int64
	Seconds float64
}

// EndToEnd decomposes one query's measured protocol legs.
type EndToEnd struct {
	// EncodeSec is host-side back-translation + encoding.
	EncodeSec float64
	// QueryTransferSec ships the encoded query to card DRAM.
	QueryTransferSec float64
	// KernelSec is the accelerator scan (from the fpga timing model).
	KernelSec float64
	// ReadbackSec returns the hit records.
	ReadbackSec float64
	// TotalSec sums every leg plus the kernel-invocation overhead.
	TotalSec float64
}

// Load is the one-time transfer of a dbLen-nucleotide database, packed
// 2-bit, into card DRAM — the protocol keeps it resident while queries
// stream against it. It fails on an empty database or one the card's DRAM
// cannot hold.
func (p Platform) Load(dbLen int) (TransferStats, error) {
	if dbLen <= 0 {
		return TransferStats{}, fmt.Errorf("host: empty database")
	}
	bytes := int64((dbLen+bio.NucsPerWord-1)/bio.NucsPerWord) * 8
	if bytes > p.DRAMBytes {
		return TransferStats{}, fmt.Errorf("host: database needs %d bytes, card DRAM holds %d",
			bytes, p.DRAMBytes)
	}
	return TransferStats{Bytes: bytes, Seconds: p.Link.TransferSec(bytes)}, nil
}

// Fit sizes the accelerator build for queries of up to maxElems elements
// (a batch sizes for its longest query). It fails when no build fits the
// device.
func (p Platform) Fit(maxElems int) (fpga.Estimate, error) {
	est := fpga.Size(p.Device, fpga.Config{QueryElems: maxElems})
	if !est.Fits {
		return est, fmt.Errorf("host: query of %d elements does not fit %s", maxElems, p.Device.Name)
	}
	return est, nil
}

// QueryTiming decomposes one query's end-to-end time: encoding its elems
// instructions, shipping them, one kernel pass over the dbLen-nucleotide
// resident database on the build est (from Fit), and reading hits records
// back.
func (p Platform) QueryTiming(est fpga.Estimate, elems, dbLen, hits int) EndToEnd {
	t := EndToEnd{
		EncodeSec:        float64(elems) * p.EncodeNsPerElement * 1e-9,
		QueryTransferSec: p.Link.TransferSec(int64(elems)), // 1 byte/instr
		KernelSec:        fpga.Time(est, dbLen, nil).Seconds,
		ReadbackSec:      p.Link.TransferSec(int64(hits * p.HitRecordBytes)),
	}
	t.TotalSec = t.EncodeSec + t.QueryTransferSec + t.KernelSec + t.ReadbackSec + p.InvokeOverheadSec
	return t
}

// BatchTiming is the end-to-end and kernel-only time of a batch against
// the resident database, reproducing the paper's measurement protocol:
// every query is encoded and shipped, one kernel pass per query runs on
// the build est (sized by Fit for the longest query), and the batch's hit
// records return in one readback. elems and hits are index-aligned per
// query.
func (p Platform) BatchTiming(est fpga.Estimate, elems []int, dbLen int, hits []int) (totalSec, kernelSec float64) {
	var hitBytes int64
	for i, n := range elems {
		totalSec += float64(n) * p.EncodeNsPerElement * 1e-9
		totalSec += p.Link.TransferSec(int64(n))
		hitBytes += int64(hits[i] * p.HitRecordBytes)
	}
	kernelSec = fpga.Time(est, dbLen, nil).Seconds * float64(len(elems))
	totalSec += kernelSec
	totalSec += p.Link.TransferSec(hitBytes)
	totalSec += p.InvokeOverheadSec * float64(len(elems))
	return totalSec, kernelSec
}
