// format.go is the database file format. Two versions exist:
//
//	v1 ("FABPDB01"): header, record index, packed payload. No checksums;
//	    every load pays a full bit-plane packing before the first
//	    bit-parallel scan.
//	v2 ("FABPDB02"): the same records and payload plus a SHA-256 content
//	    digest in the header, a CRC32 per section, and a serialized
//	    bit-plane section — the preprocessing-once discipline of the
//	    paper's card-resident database: a v2 load installs the persisted
//	    planes and performs zero PackReference work.
//
// Corruption semantics: the header, index and payload sections are
// load-bearing — any mismatch is a *CorruptError (errors.Is ErrCorrupt)
// and the load fails. The plane section is an optimization — a checksum
// mismatch, truncation or unsupported version there degrades the load to
// in-process packing (PlaneSectionError reports why) instead of failing.
package db

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"fabp/internal/bio"
	"fabp/internal/bitpar"
	"fabp/internal/faultinject"
)

// File magics; the trailing digits are the format version.
var (
	magicV1 = [8]byte{'F', 'A', 'B', 'P', 'D', 'B', '0', '1'}
	magicV2 = [8]byte{'F', 'A', 'B', 'P', 'D', 'B', '0', '2'}
)

// flagPlanes marks a v2 file that carries a bit-plane section.
const flagPlanes uint8 = 1 << 0

// Plausibility bounds on header-declared sizes, so a corrupt header
// cannot demand absurd allocations (reads are additionally chunked, so
// memory grows only with bytes actually present).
const (
	maxReasonableTotal   = 1 << 40
	maxReasonableRecords = 1 << 28
)

var crcTable = crc32.MakeTable(crc32.IEEE)

// Digest is the SHA-256 content digest of a database's packed payload —
// the cache identity of the sequence content.
type Digest [sha256.Size]byte

// String renders the digest as lowercase hex.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// computeDigest hashes the packed payload: the element count followed by
// the packed words, all little-endian, fed to the hash in 4 KiB blocks.
func computeDigest(total int, words []uint64) Digest {
	h := sha256.New()
	var buf [4 << 10]byte
	b := binary.LittleEndian.AppendUint64(buf[:0], uint64(total))
	for _, w := range words {
		if len(b) == len(buf) {
			h.Write(b)
			b = buf[:0]
		}
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	h.Write(b)
	var d Digest
	h.Sum(d[:0])
	return d
}

// ErrCorrupt is the sentinel every structural load failure matches via
// errors.Is; CorruptError carries the section detail.
var ErrCorrupt = errors.New("corrupt database file")

// CorruptError describes a structurally invalid database file: which
// section failed and why. It matches ErrCorrupt under errors.Is.
type CorruptError struct {
	// Section is "header", "index", "payload", "digest" or "planes".
	Section string
	Err     error
}

func (e *CorruptError) Error() string { return fmt.Sprintf("db: %s section: %v", e.Section, e.Err) }
func (e *CorruptError) Unwrap() error { return e.Err }

// Is makes errors.Is(err, ErrCorrupt) true for every CorruptError.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// corruptf builds a CorruptError for section from a format string.
func corruptf(section, format string, args ...any) error {
	return &CorruptError{Section: section, Err: fmt.Errorf(format, args...)}
}

// FileInfo is a database file's on-disk shape, as Inspect reports it.
type FileInfo struct {
	// Version is the format version (1 or 2).
	Version int
	// Records / TotalNt are the header-declared geometry.
	Records int
	TotalNt int
	// Digest is the payload content digest (computed for v1 files, which
	// do not store one).
	Digest Digest
	// HasPlanes is true when a plane section was present AND valid.
	// PlaneErr is non-nil when a declared plane section was rejected.
	HasPlanes bool
	PlaneErr  error
	// Section sizes in bytes, each including its trailing CRC32 where the
	// format has one. PlaneBytes counts the bytes actually consumed.
	IndexBytes, PayloadBytes, PlaneBytes int64
}

// sectionWriter counts bytes and maintains a running CRC32 over them.
type sectionWriter struct {
	w   io.Writer
	crc uint32
	n   int64
}

func (sw *sectionWriter) Write(p []byte) (int, error) {
	m, err := sw.w.Write(p)
	sw.crc = crc32.Update(sw.crc, crcTable, p[:m])
	sw.n += int64(m)
	return m, err
}

// sectionReader counts bytes and maintains a running CRC32 over them.
type sectionReader struct {
	r   io.Reader
	crc uint32
	n   int64
}

func (sr *sectionReader) Read(p []byte) (int, error) {
	m, err := sr.r.Read(p)
	sr.crc = crc32.Update(sr.crc, crcTable, p[:m])
	sr.n += int64(m)
	return m, err
}

// WriteTo serializes the database in the current (v2) format, bit-planes
// included (io.WriterTo). Packing happens here if the planes are not
// already resident on the Database — the preprocessing-once cost every
// later load skips.
func (d *Database) WriteTo(w io.Writer) (int64, error) {
	return d.writeV2(w, d.EnsurePlanes())
}

// WriteV1To serializes in the legacy v1 layout — no checksums, no plane
// section — for rollback to readers that predate v2.
func (d *Database) WriteV1To(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	write := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	if err := write(magicV1); err != nil {
		return n, err
	}
	if err := write(uint32(len(d.records))); err != nil {
		return n, err
	}
	if err := write(uint64(d.packed.Len())); err != nil {
		return n, err
	}
	sw := &sectionWriter{w: bw}
	if err := writeRecords(sw, d.records); err != nil {
		return n + sw.n, err
	}
	if err := writeWords(sw, d.packed.Words()); err != nil {
		return n + sw.n, err
	}
	return n + sw.n, bw.Flush()
}

// writeV2 lays out the v2 file: header (magic, geometry, digest, flags),
// then index, payload and plane sections, each followed by its CRC32.
func (d *Database) writeV2(w io.Writer, planes *bitpar.Planes) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	write := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	if err := write(magicV2); err != nil {
		return n, err
	}
	if err := write(uint32(len(d.records))); err != nil {
		return n, err
	}
	if err := write(uint64(d.packed.Len())); err != nil {
		return n, err
	}
	if err := write(d.Digest()); err != nil {
		return n, err
	}
	flags := uint8(0)
	if planes != nil {
		flags |= flagPlanes
	}
	if err := write(flags); err != nil {
		return n, err
	}

	// Index section.
	sw := &sectionWriter{w: bw}
	if err := writeRecords(sw, d.records); err != nil {
		return n + sw.n, err
	}
	n += sw.n
	if err := write(sw.crc); err != nil {
		return n, err
	}

	// Payload section.
	sw = &sectionWriter{w: bw}
	if err := writeWords(sw, d.packed.Words()); err != nil {
		return n + sw.n, err
	}
	n += sw.n
	if err := write(sw.crc); err != nil {
		return n, err
	}

	// Plane section.
	if planes != nil {
		sw = &sectionWriter{w: bw}
		if err := binary.Write(sw, binary.LittleEndian, uint32(bitpar.PlanesWireVersion)); err != nil {
			return n + sw.n, err
		}
		if _, err := planes.WriteTo(sw); err != nil {
			return n + sw.n, err
		}
		n += sw.n
		if err := write(sw.crc); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// writeRecords serializes the record index.
func writeRecords(w io.Writer, records []Record) error {
	for _, r := range records {
		if err := writeString(w, r.ID); err != nil {
			return err
		}
		if err := writeString(w, r.Description); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, uint64(r.Start)); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, uint64(r.Length)); err != nil {
			return err
		}
	}
	return nil
}

// writeWords streams packed payload words in bounded chunks (binary.Write
// buffers its whole argument, so chunking caps the temporary).
func writeWords(w io.Writer, words []uint64) error {
	const chunk = 1 << 16
	for len(words) > 0 {
		n := len(words)
		if n > chunk {
			n = chunk
		}
		if err := binary.Write(w, binary.LittleEndian, words[:n]); err != nil {
			return err
		}
		words = words[n:]
	}
	return nil
}

func writeString(w io.Writer, s string) error {
	if len(s) > 0xFFFF {
		return fmt.Errorf("db: string exceeds 64 KiB")
	}
	if err := binary.Write(w, binary.LittleEndian, uint16(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

// Read deserializes a database written by WriteTo (v2) or WriteV1To (v1).
// Structural failures return a *CorruptError (never a panic); a v2 file
// whose plane section alone is damaged still loads, with the damage
// reported by PlaneSectionError and scans falling back to packing.
func Read(r io.Reader) (*Database, error) {
	d, _, err := readFile(r)
	return d, err
}

// Inspect fully validates a database file — magic, geometry, section
// checksums, content digest, plane section — and reports its shape. The
// returned FileInfo is valid only when err is nil; a rejected plane
// section surfaces as FileInfo.PlaneErr, not as err (the file still
// loads).
func Inspect(r io.Reader) (FileInfo, error) {
	_, info, err := readFile(r)
	return info, err
}

func readFile(r io.Reader) (*Database, FileInfo, error) {
	// The database-load fault hook: an injected failure surfaces as a
	// *CorruptError wrapping the transient cause, the same shape a real
	// torn read produces, so callers exercise their degrade/retry paths
	// (retry.Retryable sees through the wrap to the transient error).
	if err := faultinject.Check(context.Background(), faultinject.SiteDBSection, 0); err != nil {
		return nil, FileInfo{}, &CorruptError{Section: "injected", Err: err}
	}
	br := bufio.NewReader(r)
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, FileInfo{}, corruptf("header", "reading magic: %v", err)
	}
	switch m {
	case magicV1:
		return readV1(br)
	case magicV2:
		return readV2(br)
	}
	return nil, FileInfo{}, corruptf("header", "bad magic %q", m[:])
}

// readHeaderGeometry reads and bounds-checks the record count and element
// total shared by both format versions.
func readHeaderGeometry(r io.Reader) (count uint32, total uint64, err error) {
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return 0, 0, corruptf("header", "reading record count: %v", err)
	}
	if err := binary.Read(r, binary.LittleEndian, &total); err != nil {
		return 0, 0, corruptf("header", "reading element total: %v", err)
	}
	if count == 0 || total == 0 {
		return 0, 0, corruptf("header", "empty database file")
	}
	if total > maxReasonableTotal || count > maxReasonableRecords {
		return 0, 0, corruptf("header", "implausible header (count=%d total=%d)", count, total)
	}
	return count, total, nil
}

// readRecords deserializes count index entries.
func readRecords(r io.Reader, count uint32) ([]Record, error) {
	records := make([]Record, count)
	for i := range records {
		id, err := readString(r)
		if err != nil {
			return nil, err
		}
		desc, err := readString(r)
		if err != nil {
			return nil, err
		}
		var start, length uint64
		if err := binary.Read(r, binary.LittleEndian, &start); err != nil {
			return nil, err
		}
		if err := binary.Read(r, binary.LittleEndian, &length); err != nil {
			return nil, err
		}
		records[i] = Record{ID: id, Description: desc, Start: int(start), Length: int(length)}
	}
	return records, nil
}

// validateTiling checks that records tile [0, total) exactly.
func validateTiling(records []Record, total uint64) error {
	pos := 0
	for i, r := range records {
		if r.Start != pos || r.Length <= 0 {
			return corruptf("index", "record %d index corrupt", i)
		}
		pos += r.Length
	}
	if uint64(pos) != total {
		return corruptf("index", "index covers %d elements, header says %d", pos, total)
	}
	return nil
}

// readWords reads count packed words in bounded chunks, so a header that
// lies about the payload size fails on the missing bytes instead of
// forcing one giant up-front allocation.
func readWords(r io.Reader, count uint64) ([]uint64, error) {
	const chunk = 1 << 16
	first := count
	if first > chunk {
		first = chunk
	}
	words := make([]uint64, 0, first)
	var buf []uint64
	for count > 0 {
		n := count
		if n > chunk {
			n = chunk
		}
		if uint64(cap(buf)) < n {
			buf = make([]uint64, n)
		}
		buf = buf[:n]
		if err := binary.Read(r, binary.LittleEndian, buf); err != nil {
			return nil, err
		}
		words = append(words, buf...)
		count -= n
	}
	return words, nil
}

func readString(r io.Reader) (string, error) {
	var l uint16
	if err := binary.Read(r, binary.LittleEndian, &l); err != nil {
		return "", err
	}
	buf := make([]byte, l)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// readV1 parses the legacy layout (no checksums, no planes).
func readV1(br *bufio.Reader) (*Database, FileInfo, error) {
	count, total, err := readHeaderGeometry(br)
	if err != nil {
		return nil, FileInfo{}, err
	}
	sr := &sectionReader{r: br}
	records, err := readRecords(sr, count)
	if err != nil {
		return nil, FileInfo{}, corruptf("index", "%v", err)
	}
	indexBytes := sr.n
	if err := validateTiling(records, total); err != nil {
		return nil, FileInfo{}, err
	}
	sr = &sectionReader{r: br}
	words, err := readWords(sr, (total+31)/32)
	if err != nil {
		return nil, FileInfo{}, corruptf("payload", "%v", err)
	}
	packed := bio.NewPackedNucSeq(int(total))
	copy(packed.Words(), words)
	d := newDatabase(records, packed)
	info := FileInfo{
		Version: 1, Records: int(count), TotalNt: int(total),
		Digest: d.Digest(), IndexBytes: indexBytes, PayloadBytes: sr.n,
	}
	return d, info, nil
}

// readV2 parses the checksummed layout. Header/index/payload/digest
// failures abort the load; plane-section failures degrade it (the planes
// are an optimization, the payload is the data).
func readV2(br *bufio.Reader) (*Database, FileInfo, error) {
	count, total, err := readHeaderGeometry(br)
	if err != nil {
		return nil, FileInfo{}, err
	}
	var declared Digest
	if _, err := io.ReadFull(br, declared[:]); err != nil {
		return nil, FileInfo{}, corruptf("header", "reading digest: %v", err)
	}
	var flags uint8
	if err := binary.Read(br, binary.LittleEndian, &flags); err != nil {
		return nil, FileInfo{}, corruptf("header", "reading flags: %v", err)
	}
	if flags&^flagPlanes != 0 {
		return nil, FileInfo{}, corruptf("header", "unknown flags %#02x", flags)
	}

	// Index section.
	sr := &sectionReader{r: br}
	records, err := readRecords(sr, count)
	if err != nil {
		return nil, FileInfo{}, corruptf("index", "%v", err)
	}
	var stored uint32
	if err := binary.Read(br, binary.LittleEndian, &stored); err != nil {
		return nil, FileInfo{}, corruptf("index", "reading checksum: %v", err)
	}
	if stored != sr.crc {
		return nil, FileInfo{}, corruptf("index", "checksum mismatch (stored %08x, computed %08x)", stored, sr.crc)
	}
	indexBytes := sr.n + 4
	if err := validateTiling(records, total); err != nil {
		return nil, FileInfo{}, err
	}

	// Payload section.
	sr = &sectionReader{r: br}
	words, err := readWords(sr, (total+31)/32)
	if err != nil {
		return nil, FileInfo{}, corruptf("payload", "%v", err)
	}
	if err := binary.Read(br, binary.LittleEndian, &stored); err != nil {
		return nil, FileInfo{}, corruptf("payload", "reading checksum: %v", err)
	}
	if stored != sr.crc {
		return nil, FileInfo{}, corruptf("payload", "checksum mismatch (stored %08x, computed %08x)", stored, sr.crc)
	}
	payloadBytes := sr.n + 4

	// Content digest binds header to payload (and keys the result cache);
	// a mismatch means the file lies about what it holds.
	computed := computeDigest(int(total), words)
	if computed != declared {
		return nil, FileInfo{}, corruptf("digest", "content digest mismatch (header %s, payload %s)", declared, computed)
	}

	packed := bio.NewPackedNucSeq(int(total))
	copy(packed.Words(), words)
	d := newDatabase(records, packed)
	d.digestOnce.Do(func() { d.digest = computed }) // verified above; never hashed twice
	info := FileInfo{
		Version: 2, Records: int(count), TotalNt: int(total),
		Digest: computed, IndexBytes: indexBytes, PayloadBytes: payloadBytes,
	}

	// Plane section: best-effort. Any failure leaves the database loaded
	// and scannable, with PlaneSectionError telling the caller why the
	// warm start degraded to in-process packing.
	if flags&flagPlanes != 0 {
		planes, consumed, perr := readPlaneSection(br, int(total))
		info.PlaneBytes = consumed
		if perr != nil {
			d.planeErr = &CorruptError{Section: "planes", Err: perr}
			info.PlaneErr = d.planeErr
		} else {
			d.planes = planes
			d.planesPersisted = true
			info.HasPlanes = true
		}
	}
	return d, info, nil
}

// readPlaneSection parses the bit-plane trailer: wire version, serialized
// planes, CRC32. It returns the bytes consumed alongside the planes or
// the rejection reason.
func readPlaneSection(br *bufio.Reader, total int) (*bitpar.Planes, int64, error) {
	sr := &sectionReader{r: br}
	var version uint32
	if err := binary.Read(sr, binary.LittleEndian, &version); err != nil {
		return nil, sr.n, fmt.Errorf("reading version: %w", err)
	}
	if version != bitpar.PlanesWireVersion {
		return nil, sr.n, fmt.Errorf("unsupported plane format version %d (want %d)", version, bitpar.PlanesWireVersion)
	}
	planes, err := bitpar.ReadPlanes(sr, total)
	if err != nil {
		return nil, sr.n, err
	}
	var stored uint32
	if err := binary.Read(br, binary.LittleEndian, &stored); err != nil {
		return nil, sr.n, fmt.Errorf("reading checksum: %w", err)
	}
	if stored != sr.crc {
		return nil, sr.n + 4, fmt.Errorf("checksum mismatch (stored %08x, computed %08x)", stored, sr.crc)
	}
	return planes, sr.n + 4, nil
}
