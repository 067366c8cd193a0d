package bio

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestParseNucSeq(t *testing.T) {
	s, err := ParseNucSeq("ACGU acgt\nACGT")
	if err != nil {
		t.Fatal(err)
	}
	want := NucSeq{A, C, G, U, A, C, G, U, A, C, G, U}
	if !reflect.DeepEqual(s, want) {
		t.Errorf("got %v want %v", s, want)
	}
	if _, err := ParseNucSeq("ACGX"); err == nil {
		t.Error("expected error for X")
	}
}

func TestNucSeqStrings(t *testing.T) {
	s := NucSeq{A, C, G, U}
	if s.String() != "ACGU" {
		t.Errorf("String = %q", s.String())
	}
	if s.DNAString() != "ACGT" {
		t.Errorf("DNAString = %q", s.DNAString())
	}
}

func TestReverseComplement(t *testing.T) {
	s, _ := ParseNucSeq("AACGU")
	rc := s.ReverseComplement()
	if rc.String() != "ACGUU" {
		t.Errorf("rc = %s", rc)
	}
	// Involution property.
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := RandomNucSeq(rng, int(n))
		return reflect.DeepEqual(s.ReverseComplement().ReverseComplement(), s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTranslateFrames(t *testing.T) {
	s, _ := ParseNucSeq("AUGUUUUAA") // Met Phe Stop
	if got := s.Translate(0).String(); got != "MF*" {
		t.Errorf("frame 0 = %q", got)
	}
	// Frame 1: UGU UUU (AA dropped) = Cys Phe
	if got := s.Translate(1).String(); got != "CF" {
		t.Errorf("frame 1 = %q", got)
	}
	// Frame 2: GUU UUA = Val Leu
	if got := s.Translate(2).String(); got != "VL" {
		t.Errorf("frame 2 = %q", got)
	}
	if s.Translate(3) != nil || s.Translate(-1) != nil {
		t.Error("invalid frames must return nil")
	}
	short := NucSeq{A, U}
	if short.Translate(0) != nil {
		t.Error("too-short sequence must return nil")
	}
}

func TestCodonsSplit(t *testing.T) {
	s, _ := ParseNucSeq("AUGUUUGG") // trailing GG dropped
	cs := s.Codons()
	if len(cs) != 2 || cs[0].String() != "AUG" || cs[1].String() != "UUU" {
		t.Errorf("Codons = %v", cs)
	}
}

func TestProtSeqParseAndString(t *testing.T) {
	p, err := ParseProtSeq("MF*ky")
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != "MF*KY" {
		t.Errorf("got %q", p.String())
	}
	if _, err := ParseProtSeq("MXZ"); err == nil {
		t.Error("expected error")
	}
}

func TestBackTranslateArbitraryRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := RandomProtSeq(rng, 1+int(n%64))
		nt := p.BackTranslateArbitrary()
		return nt.Translate(0).String() == p.String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		s := RandomNucSeq(rng, int(n%500))
		return reflect.DeepEqual(Pack(s).Unpack(), s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPackRoundTripLengths: Pack, Unpack and Slice work a 64-bit word at
// a time, so every length 0..100 (partial last words included) and a
// 512 Ki nt sequence must round-trip, and windows straddling word edges
// must equal the same window of the letters.
func TestPackRoundTripLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lengths := []int{512 << 10, 512<<10 - 7}
	for n := 0; n <= 100; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		s := RandomNucSeq(rng, n)
		p := Pack(s)
		for i, w := range p.Words() {
			if n%NucsPerWord != 0 && i == len(p.Words())-1 && w>>(2*uint(n%NucsPerWord)) != 0 {
				t.Fatalf("n=%d: bits past the last element are set in word %d: %#x", n, i, w)
			}
		}
		if got := p.Unpack(); !reflect.DeepEqual(got, s) {
			t.Fatalf("n=%d: Unpack differs from the packed letters", n)
		}
		for _, r := range [][2]int{{0, n}, {1, n - 1}, {31, 33}, {32, 64}, {n / 3, n/3 + 45}, {n - 1, n}} {
			lo, hi := max(r[0], 0), min(r[1], n)
			if lo >= hi {
				continue
			}
			if got := p.Slice(lo, hi); !reflect.DeepEqual(got, s[lo:hi]) {
				t.Fatalf("n=%d: Slice(%d, %d) differs from the letters", n, lo, hi)
			}
		}
	}
}

func BenchmarkPack(b *testing.B) {
	s := RandomNucSeq(rand.New(rand.NewSource(1)), 512<<10)
	b.SetBytes(int64(len(s)))
	for i := 0; i < b.N; i++ {
		Pack(s)
	}
}

func BenchmarkUnpack(b *testing.B) {
	p := Pack(RandomNucSeq(rand.New(rand.NewSource(1)), 512<<10))
	b.SetBytes(int64(p.Len()))
	for i := 0; i < b.N; i++ {
		p.Unpack()
	}
}

func TestPackedAtSetSlice(t *testing.T) {
	p := NewPackedNucSeq(100)
	if p.Len() != 100 {
		t.Fatalf("Len = %d", p.Len())
	}
	for i := 0; i < 100; i++ {
		p.Set(i, Nucleotide(i%4))
	}
	for i := 0; i < 100; i++ {
		if p.At(i) != Nucleotide(i%4) {
			t.Fatalf("At(%d) = %v", i, p.At(i))
		}
	}
	// Overwrite must clear old bits.
	p.Set(7, U)
	p.Set(7, A)
	if p.At(7) != A {
		t.Errorf("Set overwrite failed: %v", p.At(7))
	}
	sl := p.Slice(96, 200)
	if len(sl) != 4 {
		t.Errorf("Slice clipped len = %d", len(sl))
	}
	if p.Slice(10, 10) != nil || p.Slice(-5, 0) != nil {
		t.Error("empty slices must be nil")
	}
}

func TestPackedWordLayout(t *testing.T) {
	// Element i occupies bits [2i, 2i+1] of word i/32 — the FPGA DRAM layout.
	s := make(NucSeq, 33)
	s[0] = U  // word0 bits 0..1 = 11
	s[1] = G  // word0 bits 2..3 = 10
	s[32] = C // word1 bits 0..1 = 01
	p := Pack(s)
	if got := p.Words()[0] & 0xF; got != 0xB { // 10_11
		t.Errorf("word0 low nibble = %#x, want 0xb", got)
	}
	if got := p.Words()[1] & 0x3; got != 0x1 {
		t.Errorf("word1 low bits = %#x, want 0x1", got)
	}
}

func TestPackedBytes(t *testing.T) {
	s := NucSeq{U} // word = 0x3
	b := Pack(s).Bytes()
	if len(b) != 8 || b[0] != 3 {
		t.Errorf("Bytes = %v", b)
	}
}

// TestPackedTranslateFrame checks the payload translator against
// Codon.Translate for all six frames, over every length 0…200 and at
// every 32-nt payload-word edge of a 2 Ki nt sequence, where a codon's
// bases straddle two words.
func TestPackedTranslateFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var lengths []int
	for n := 0; n <= 200; n++ {
		lengths = append(lengths, n)
	}
	for edge := 224; edge <= 2048; edge += NucsPerWord {
		lengths = append(lengths, edge-2, edge-1, edge, edge+1, edge+2)
	}
	for _, n := range lengths {
		s := RandomNucSeq(rng, n)
		p := Pack(s)
		for _, reverse := range []bool{false, true} {
			for off := 0; off < 3; off++ {
				var want ProtSeq
				for k := off; k+3 <= n; k += 3 {
					c := Codon{s[k], s[k+1], s[k+2]}
					if reverse {
						// The reverse strand's codon k reads forward bases
						// n-1-k, n-2-k, n-3-k, complemented.
						c = Codon{s[n-1-k].Complement(), s[n-2-k].Complement(), s[n-3-k].Complement()}
					}
					want = append(want, c.Translate())
				}
				if got := p.TranslateFrame(off, reverse); !reflect.DeepEqual(got, want) {
					t.Fatalf("length %d offset %d reverse %v: got %v, want %v", n, off, reverse, got, want)
				}
			}
		}
	}
}
