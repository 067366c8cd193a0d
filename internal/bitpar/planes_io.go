// planes_io.go serializes packed bit-planes — the persistence half of the
// warm-start protocol: a database file that carries its planes lets a
// fresh process install them into the cache and scan without ever calling
// PackReference. The wire layout is the in-memory layout (length, word
// count, then both planes' words, little-endian); framing, versioning and
// checksums belong to the caller (see internal/db's plane section).
package bitpar

import (
	"encoding/binary"
	"fmt"
	"io"
)

// PlanesWireVersion is the serialization format version callers should
// frame WriteTo's output with; ReadPlanes only understands this layout.
const PlanesWireVersion = 1

// WriteTo serializes the packed planes (io.WriterTo): u64 reference
// length, u64 words per plane, then the b0 and b1 plane words, all
// little-endian. The padding words packPlanes adds are included, so a
// deserialized plane is byte-identical to a freshly packed one.
func (pp *Planes) WriteTo(w io.Writer) (int64, error) {
	p := pp.p
	var n int64
	write := func(v any) error {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	if err := write(uint64(p.n)); err != nil {
		return n, err
	}
	if err := write(uint64(len(p.b0))); err != nil {
		return n, err
	}
	if err := write(p.b0); err != nil {
		return n, err
	}
	if err := write(p.b1); err != nil {
		return n, err
	}
	return n, nil
}

// ReadPlanes deserializes planes written by WriteTo. expectLen is the
// reference length the caller knows from its own framing; a stream whose
// declared geometry disagrees with it (or with the packed layout's
// invariants) is rejected, so the returned planes are always structurally
// identical to PackReference output for an expectLen-element reference.
// Short streams return io.ErrUnexpectedEOF-wrapped errors, never partial
// planes.
func ReadPlanes(r io.Reader, expectLen int) (*Planes, error) {
	var n64, words uint64
	if err := binary.Read(r, binary.LittleEndian, &n64); err != nil {
		return nil, fmt.Errorf("bitpar: reading plane length: %w", err)
	}
	if err := binary.Read(r, binary.LittleEndian, &words); err != nil {
		return nil, fmt.Errorf("bitpar: reading plane word count: %w", err)
	}
	if expectLen < 0 || int(n64) != expectLen {
		return nil, fmt.Errorf("bitpar: plane length %d, caller expects %d", n64, expectLen)
	}
	wantWords := uint64((expectLen+63)/64) + 2
	if words != wantWords {
		return nil, fmt.Errorf("bitpar: %d words per plane, want %d for %d elements", words, wantWords, expectLen)
	}
	p := newPlanes(expectLen)
	if err := binary.Read(r, binary.LittleEndian, p.b0); err != nil {
		return nil, fmt.Errorf("bitpar: reading plane b0: %w", err)
	}
	if err := binary.Read(r, binary.LittleEndian, p.b1); err != nil {
		return nil, fmt.Errorf("bitpar: reading plane b1: %w", err)
	}
	return &Planes{p: p}, nil
}

// Equal reports whether two packed planes describe the same reference
// bit-for-bit (nil equals only nil).
func (pp *Planes) Equal(other *Planes) bool {
	if pp == nil || other == nil {
		return pp == other
	}
	a, b := pp.p, other.p
	if a.n != b.n || len(a.b0) != len(b.b0) || len(a.b1) != len(b.b1) {
		return false
	}
	for i := range a.b0 {
		if a.b0[i] != b.b0[i] || a.b1[i] != b.b1[i] {
			return false
		}
	}
	return true
}
