package bitpar

import (
	"bytes"
	"math/rand"
	"testing"

	"fabp/internal/bio"
)

func TestPlanesSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 63, 64, 65, 1000, 4096} {
		ref := bio.RandomNucSeq(rng, n)
		pp := PackReference(ref)
		var buf bytes.Buffer
		written, err := pp.WriteTo(&buf)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if written != int64(buf.Len()) {
			t.Fatalf("n=%d: reported %d bytes, wrote %d", n, written, buf.Len())
		}
		got, err := ReadPlanes(&buf, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !got.Equal(pp) {
			t.Fatalf("n=%d: round-trip lost bits", n)
		}
	}
}

func TestReadPlanesRejectsBadGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pp := PackReference(bio.RandomNucSeq(rng, 200))
	var buf bytes.Buffer
	if _, err := pp.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Caller expectation disagrees with the stream's declared length.
	if _, err := ReadPlanes(bytes.NewReader(good), 201); err == nil {
		t.Error("length mismatch must fail")
	}
	// Negative expectation can never match.
	if _, err := ReadPlanes(bytes.NewReader(good), -1); err == nil {
		t.Error("negative length must fail")
	}
	// Word count inconsistent with the packed layout.
	mangled := append([]byte(nil), good...)
	mangled[8]++ // low byte of the u64 word count
	if _, err := ReadPlanes(bytes.NewReader(mangled), 200); err == nil {
		t.Error("word count mismatch must fail")
	}
	// Truncations anywhere must error, never return partial planes.
	for cut := 0; cut < len(good); cut += 7 {
		if got, err := ReadPlanes(bytes.NewReader(good[:cut]), 200); err == nil {
			t.Fatalf("cut=%d: accepted truncated stream (planes=%v)", cut, got != nil)
		}
	}
}

func TestPlanesEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ref := bio.RandomNucSeq(rng, 300)
	a, b := PackReference(ref), PackReference(ref)
	if !a.Equal(b) || !a.Equal(a) {
		t.Error("identical content must be Equal")
	}
	other := PackReference(bio.RandomNucSeq(rng, 300))
	if a.Equal(other) {
		t.Error("different content must not be Equal")
	}
	var nilPlanes *Planes
	if a.Equal(nil) || nilPlanes.Equal(a) {
		t.Error("nil equals only nil")
	}
	if !nilPlanes.Equal(nil) {
		t.Error("nil must equal nil")
	}
}
