// Package db implements the on-disk reference database FabP's host keeps:
// multiple FASTA records concatenated into one 2-bit packed stream (the
// exact DRAM image the accelerator scans) plus a record index, so hits can
// be attributed back to sequences and hits spanning record boundaries can
// be rejected. The format is a single self-contained binary file; the
// current version (v2, see format.go) additionally carries the packed
// bit-planes, a content digest and per-section checksums so a reload is a
// warm start that never re-packs.
package db

import (
	"fmt"
	"sort"
	"sync"

	"fabp/internal/bio"
	"fabp/internal/bitpar"
	"fabp/internal/core"
)

// Record is one database sequence's index entry.
type Record struct {
	// ID and Description come from the FASTA header.
	ID          string
	Description string
	// Start is the record's offset in the concatenated element stream;
	// Length its element count.
	Start, Length int
}

// Database is an indexed, packed reference ready for scanning.
type Database struct {
	records []Record
	packed  *bio.PackedNucSeq
	// digest identifies the packed content (see Digest); computed at
	// construction so it can key caches without re-hashing.
	digest Digest

	// planesMu guards the memoized bit-planes: either deserialized from a
	// v2 file's plane section (planesPersisted) or packed once by
	// EnsurePlanes. planeErr records why a declared plane section was
	// rejected — the load still succeeds, packing happens in-process.
	planesMu        sync.Mutex
	planes          *bitpar.Planes
	planesPersisted bool
	planeErr        error
}

// newDatabase wires up a database over validated records and payload.
func newDatabase(records []Record, packed *bio.PackedNucSeq) *Database {
	return &Database{
		records: records,
		packed:  packed,
		digest:  computeDigest(packed.Len(), packed.Words()),
	}
}

// Build concatenates nucleotide FASTA records into a database.
func Build(records []*bio.FastaRecord) (*Database, error) {
	if len(records) == 0 {
		return nil, fmt.Errorf("db: no records")
	}
	var seq bio.NucSeq
	idx := make([]Record, 0, len(records))
	for i, rec := range records {
		s, err := rec.Nuc()
		if err != nil {
			return nil, fmt.Errorf("db: record %d (%s): %w", i, rec.ID, err)
		}
		if len(s) == 0 {
			return nil, fmt.Errorf("db: record %d (%s) is empty", i, rec.ID)
		}
		idx = append(idx, Record{
			ID: rec.ID, Description: rec.Description,
			Start: len(seq), Length: len(s),
		})
		seq = append(seq, s...)
	}
	return newDatabase(idx, bio.Pack(seq)), nil
}

// FromSeq builds a single-record database from a raw sequence.
func FromSeq(id string, seq bio.NucSeq) (*Database, error) {
	if len(seq) == 0 {
		return nil, fmt.Errorf("db: empty sequence")
	}
	return newDatabase(
		[]Record{{ID: id, Start: 0, Length: len(seq)}},
		bio.Pack(seq),
	), nil
}

// Len returns the total element count.
func (d *Database) Len() int { return d.packed.Len() }

// NumRecords returns the record count.
func (d *Database) NumRecords() int { return len(d.records) }

// Record returns index entry i.
func (d *Database) Record(i int) Record { return d.records[i] }

// Seq unpacks the full concatenated sequence (the accelerator's scan
// input).
func (d *Database) Seq() bio.NucSeq { return d.packed.Unpack() }

// Packed exposes the DRAM image.
func (d *Database) Packed() *bio.PackedNucSeq { return d.packed }

// Digest returns the SHA-256 content digest of the packed payload (length
// plus words). Two databases with identical concatenated sequences share
// a digest regardless of how they were built or loaded — it is the
// identity the scan-result cache keys on.
func (d *Database) Digest() Digest { return d.digest }

// EnsurePlanes returns the database's packed bit-planes: the planes
// deserialized from a v2 file when present, otherwise packed on first use
// and memoized, so save-after-load and repeated scans share one packing.
func (d *Database) EnsurePlanes() *bitpar.Planes {
	d.planesMu.Lock()
	defer d.planesMu.Unlock()
	if d.planes == nil {
		d.planes = bitpar.PackReference(d.packed.Unpack())
	}
	return d.planes
}

// PlanesResident reports whether the database holds its bit-planes now
// (persisted or packed), so the next scan packs nothing.
func (d *Database) PlanesResident() bool {
	d.planesMu.Lock()
	defer d.planesMu.Unlock()
	return d.planes != nil
}

// PersistedPlanes returns the bit-planes carried by the file this
// database was loaded from, or nil when the file had none (v1 files, or
// a plane section rejected by its checksum — see PlaneSectionError).
func (d *Database) PersistedPlanes() *bitpar.Planes {
	d.planesMu.Lock()
	defer d.planesMu.Unlock()
	if !d.planesPersisted {
		return nil
	}
	return d.planes
}

// DropPlanes discards the memoized bit-planes (persisted or packed), so
// the next EnsurePlanes packs from scratch — the cold-start control for
// benchmarks and eviction tests. The plane section error, which
// describes the file rather than the memoization, survives.
func (d *Database) DropPlanes() {
	d.planesMu.Lock()
	d.planes = nil
	d.planesPersisted = false
	d.planesMu.Unlock()
}

// PlaneSectionError reports why a declared plane section was rejected at
// load time (checksum mismatch, truncation, unsupported version), or nil
// when the planes loaded cleanly or the file never carried any. A
// non-nil value means scans will fall back to in-process packing.
func (d *Database) PlaneSectionError() error { return d.planeErr }

// Locate maps a global element position to (record index, in-record
// offset); ok is false for out-of-range positions.
func (d *Database) Locate(pos int) (recIdx, offset int, ok bool) {
	if pos < 0 || pos >= d.Len() {
		return 0, 0, false
	}
	i := sort.Search(len(d.records), func(i int) bool {
		return d.records[i].Start+d.records[i].Length > pos
	})
	return i, pos - d.records[i].Start, true
}

// RecordHit is a hit attributed to a database record.
type RecordHit struct {
	// RecordIndex/RecordID identify the sequence.
	RecordIndex int
	RecordID    string
	// Offset is the window start within the record.
	Offset int
	// Score is the alignment score.
	Score int
}

// Attribute maps engine hits (global positions) onto records, dropping any
// window that spans a record boundary — those alignments are artifacts of
// concatenation, exactly what a host-side post-filter removes.
func (d *Database) Attribute(hits []core.Hit, queryElems int) []RecordHit {
	var out []RecordHit
	for _, h := range hits {
		idx, off, ok := d.Locate(h.Pos)
		if !ok {
			continue
		}
		if off+queryElems > d.records[idx].Length {
			continue // spans into the next record
		}
		out = append(out, RecordHit{
			RecordIndex: idx,
			RecordID:    d.records[idx].ID,
			Offset:      off,
			Score:       h.Score,
		})
	}
	return out
}
