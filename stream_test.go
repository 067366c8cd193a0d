package fabp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fabp/internal/bio"
	"fabp/internal/faultinject"
)

// faultReader yields its payload and then errSentinel — on the same Read
// call as the final bytes, exercising the (n > 0, err != nil) contract.
type faultReader struct {
	data string
	err  error
	off  int
}

func (r *faultReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, r.err
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	if r.off >= len(r.data) {
		return n, r.err
	}
	return n, nil
}

// TestAlignStreamReaderErrorFlushesCompleteWindows: a mid-stream reader
// failure must not discard the windows already complete in the current
// chunk — the emitted hits are exactly the hits of the prefix read so
// far, and only then does the wrapped error surface.
func TestAlignStreamReaderErrorFlushesCompleteWindows(t *testing.T) {
	defer func(old int) { streamChunkLetters = old }(streamChunkLetters)
	streamChunkLetters = 4096 // several carry boundaries before the fault

	ref, genes := SyntheticReference(21, 30_000, 3, 40)
	// Query for the first planted gene (slot [0, 10k)), so cutting the
	// stream at 17k leaves its hit inside the delivered prefix.
	q, err := NewQuery(genes[0].Protein)
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("disk on fire")

	for _, kernel := range []Kernel{KernelScalar, KernelBitParallel} {
		a, err := NewAligner(q, WithThresholdFraction(0.7), WithKernelType(kernel))
		if err != nil {
			t.Fatal(err)
		}
		// The stream dies partway through: expected hits are the hits of
		// the delivered prefix.
		cut := 17_000
		prefix, err := NewReference(ref.String()[:cut])
		if err != nil {
			t.Fatal(err)
		}
		want := a.Align(prefix)
		if len(want) == 0 {
			t.Fatal("no hits in prefix; test is vacuous")
		}

		var got []Hit
		streamErr := a.AlignStream(
			&faultReader{data: ref.String()[:cut], err: sentinel},
			func(h Hit) error { got = append(got, h); return nil })
		if !errors.Is(streamErr, sentinel) {
			t.Fatalf("kernel %s: error %v does not wrap the reader's", kernel, streamErr)
		}
		if wantPos := fmt.Sprintf("position %d", cut); !strings.Contains(streamErr.Error(), wantPos) {
			t.Errorf("kernel %s: error %q does not carry %q", kernel, streamErr, wantPos)
		}
		if len(got) != len(want) {
			t.Fatalf("kernel %s: %d hits before the fault, want %d (flush lost windows)",
				kernel, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("kernel %s: hit %d = %+v, want %+v", kernel, i, got[i], want[i])
			}
		}
	}
}

// TestChaosStreamInjectedErrorFlushesCompleteWindows extends the
// flush-before-error contract to injected faults: a stream.read fault
// fired mid-stream (without retries) must behave exactly like a real
// reader failure — every window complete before the fault is emitted,
// then the error surfaces wrapped with the global stream position.
func TestChaosStreamInjectedErrorFlushesCompleteWindows(t *testing.T) {
	defer func(old int) { streamChunkLetters = old }(streamChunkLetters)
	streamChunkLetters = 4096

	ref, genes := SyntheticReference(21, 30_000, 3, 40)
	q, err := NewQuery(genes[0].Protein)
	if err != nil {
		t.Fatal(err)
	}
	// The 5th read faults, so exactly 4 full chunks (16384 letters) are
	// delivered — past gene 0's slot [0, 10k), keeping its hit in the
	// prefix. The injection hooks live on the chunked path every kernel
	// takes.
	const cut = 4 * 4096
	a, err := NewAligner(q, WithThresholdFraction(0.7), WithKernelType(KernelBitParallel))
	if err != nil {
		t.Fatal(err)
	}
	prefix, err := NewReference(ref.String()[:cut])
	if err != nil {
		t.Fatal(err)
	}
	want := a.Align(prefix)
	if len(want) == 0 {
		t.Fatal("no hits in prefix; test is vacuous")
	}

	faultinject.Enable(1, faultinject.Plan{faultinject.SiteStreamRead: {Nth: 5, Fail: true}})
	defer faultinject.Disable()
	var got []Hit
	streamErr := a.AlignStream(strings.NewReader(ref.String()),
		func(h Hit) error { got = append(got, h); return nil })
	if !errors.Is(streamErr, faultinject.ErrInjected) {
		t.Fatalf("error %v does not wrap the injected fault", streamErr)
	}
	if wantPos := fmt.Sprintf("position %d", cut); !strings.Contains(streamErr.Error(), wantPos) {
		t.Errorf("error %q does not carry %q", streamErr, wantPos)
	}
	if len(got) != len(want) {
		t.Fatalf("%d hits before the fault, want %d (flush lost windows)", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hit %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestChaosStreamReadRetryRecoversFullScan: the same injected fault under
// a retry budget is absorbed — the re-read delivers the chunk and the
// stream completes byte-identical to a fault-free scan, with the retry
// counted. Both kernels read the stream through the one chunked path, so
// the scalar engine's stream retries exactly like the bit-parallel one.
func TestChaosStreamReadRetryRecoversFullScan(t *testing.T) {
	defer func(old int) { streamChunkLetters = old }(streamChunkLetters)
	streamChunkLetters = 4096

	ref, genes := SyntheticReference(21, 30_000, 3, 40)
	q, err := NewQuery(genes[0].Protein)
	if err != nil {
		t.Fatal(err)
	}
	for _, kernel := range []Kernel{KernelBitParallel, KernelScalar} {
		t.Run(kernel.String(), func(t *testing.T) {
			a, err := NewAligner(q, WithThresholdFraction(0.7), WithKernelType(kernel),
				WithRetryPolicy(RetryPolicy{MaxRetries: 2, Base: 10 * time.Microsecond}))
			if err != nil {
				t.Fatal(err)
			}
			want := a.Align(ref)
			if len(want) == 0 {
				t.Fatal("no hits; test is vacuous")
			}

			before := DefaultMetrics().Snapshot().Counters["scan.retries"]
			faultinject.Enable(1, faultinject.Plan{faultinject.SiteStreamRead: {Nth: 5, Fail: true}})
			defer faultinject.Disable()
			var got []Hit
			if err := a.AlignStream(strings.NewReader(ref.String()),
				func(h Hit) error { got = append(got, h); return nil }); err != nil {
				t.Fatalf("retried stream failed: %v", err)
			}
			if len(got) != len(want) {
				t.Fatalf("%d hits after retry, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("hit %d = %+v, want %+v", i, got[i], want[i])
				}
			}
			if after := DefaultMetrics().Snapshot().Counters["scan.retries"]; after != before+1 {
				t.Fatalf("scan.retries %d -> %d, want exactly one retry", before, after)
			}
		})
	}
}

// TestAlignStreamPooledPlanesNoAliasing: concurrent streams draw builders
// from one shared pool and reuse plane buffers across chunks; every
// stream's emitted hits must still match its own in-memory oracle exactly
// — reuse may never leak one chunk's (or one stream's) plane words into
// another's results. Run under -race this also proves no shard goroutine
// reads a builder being mutated.
func TestAlignStreamPooledPlanesNoAliasing(t *testing.T) {
	defer func(old int) { streamChunkLetters = old }(streamChunkLetters)
	streamChunkLetters = 2048 // many carries per stream, heavy pool churn

	const streams = 8
	var wg sync.WaitGroup
	errs := make([]error, streams)
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			// Distinct reference and query per stream: cross-contamination
			// between pooled buffers would show up as oracle mismatches.
			ref, genes := SyntheticReference(int64(100+s), 20_000, 2, 30)
			q, err := NewQuery(genes[s%2].Protein)
			if err != nil {
				errs[s] = err
				return
			}
			a, err := NewAligner(q, WithThresholdFraction(0.7), WithKernelType(KernelBitParallel))
			if err != nil {
				errs[s] = err
				return
			}
			want := a.Align(ref)
			if len(want) == 0 {
				errs[s] = fmt.Errorf("stream %d: no hits; test is vacuous", s)
				return
			}
			for round := 0; round < 4; round++ {
				var got []Hit
				if err := a.AlignStream(strings.NewReader(ref.String()),
					func(h Hit) error { got = append(got, h); return nil }); err != nil {
					errs[s] = err
					return
				}
				if len(got) != len(want) {
					errs[s] = fmt.Errorf("stream %d round %d: %d hits, want %d", s, round, len(got), len(want))
					return
				}
				for i := range want {
					if got[i] != want[i] {
						errs[s] = fmt.Errorf("stream %d round %d: hit %d = %+v, want %+v",
							s, round, i, got[i], want[i])
						return
					}
				}
			}
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestAlignStreamSteadyStateZeroChunkAllocs is the pooled-packing
// contract at the stream level: once the builder pool is warm, scanning
// more chunks must not allocate more — the per-run allocation count of a
// 64-chunk stream equals that of a 4-chunk stream over the same letters
// (both pay the same per-call fixed costs: read buffer, decode buffer,
// reader).
func TestAlignStreamSteadyStateZeroChunkAllocs(t *testing.T) {
	defer func(old int) { streamChunkLetters = old }(streamChunkLetters)

	ref, _ := SyntheticReference(31, 64_000, 1, 30)
	refStr := ref.String()
	// A full-score threshold over random sequence: zero hits, so the only
	// allocations are the stream's own.
	q, err := NewQuery("MWKHQTEDLVRSNAGYFCIP")
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAligner(q, WithThresholdFraction(1.0), WithKernelType(KernelBitParallel))
	if err != nil {
		t.Fatal(err)
	}
	scanWith := func(chunk int) float64 {
		streamChunkLetters = chunk
		run := func() {
			if err := a.AlignStream(strings.NewReader(refStr), func(h Hit) error {
				t.Errorf("unexpected hit %+v", h)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the builder pool to this high-water mark
		return testing.AllocsPerRun(20, run)
	}
	few := scanWith(16384) // 4 chunks
	many := scanWith(1024) // 63 chunks
	if many > few+1 {
		t.Fatalf("63-chunk stream allocates %.1f/op vs 4-chunk %.1f/op: chunks are not allocation-free", many, few)
	}
}

// TestAlignStreamInvalidLetterPosition: an invalid byte inside a large
// read — one the front end decodes as parallel spans at GOMAXPROCS 2 —
// fails AlignStream and a Queries scan of a Stream with exactly the
// serial decoder's positioned error: the global letter count before the byte, and the
// byte itself. It covers a bad byte in the first read's second span, at
// the end of a read, in a read after chunk carries, and a second bad byte
// in a later span, which must not win over the first. The error matches
// ErrBadQuery: the bad byte is the caller's input.
func TestAlignStreamInvalidLetterPosition(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ref, genes := SyntheticReference(47, 3<<20, 2, 40)
	var wrapped bytes.Buffer
	for s := ref.String(); len(s) > 0; s = s[min(60, len(s)):] {
		wrapped.WriteString(s[:min(60, len(s))])
		wrapped.WriteByte('\n')
	}
	clean := wrapped.Bytes()
	q0, err := NewQuery(genes[0].Protein)
	if err != nil {
		t.Fatal(err)
	}
	q1, err := NewQuery(genes[1].Protein[:20])
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAligner(q0, WithThresholdFraction(0.9), WithKernelType(KernelBitParallel), WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		bad      []int
		badBytes string
	}{
		{"first read, second span", []int{700_000}, "N"},
		{"last byte of a read", []int{1<<20 - 1}, "x"},
		{"after carries", []int{2<<20 + 800_000}, "*"},
		{"two bad bytes, two spans", []int{100_000, 900_000}, "#-"},
	} {
		src := bytes.Clone(clean)
		for i, at := range tc.bad {
			src[at] = tc.badBytes[i]
		}
		letters := 0
		for _, c := range src[:tc.bad[0]] {
			if c != '\n' {
				letters++
			}
		}
		want := fmt.Sprintf("fabp: position %d: bio: invalid nucleotide letter %q", letters, tc.badBytes[0])
		err := a.AlignStream(bytes.NewReader(src), func(Hit) error { return nil })
		if err == nil || err.Error() != want || !errors.Is(err, ErrBadQuery) {
			t.Errorf("%s: AlignStream error %v, want %q matching ErrBadQuery", tc.name, err, want)
		}
		_, err = Scan(context.Background(), ScanRequest{Queries: []*Query{q0, q1}, Stream: bytes.NewReader(src),
			ThresholdFrac: 0.9, Emit: func(int, Hit) error { return nil }})
		if err == nil || err.Error() != want || !errors.Is(err, ErrBadQuery) {
			t.Errorf("%s: Scan{Queries, Stream} error %v, want %q matching ErrBadQuery", tc.name, err, want)
		}
	}
}

// TestAlignBatchStreamMatchesAlignBatch: the fused streaming batch (a
// Queries scan of a Stream) over a chunked reader must reproduce the
// in-memory fused batch (a Queries scan of the Reference) hit for hit,
// per query, including mixed query lengths (per-query window clamping at
// the final flush).
func TestAlignBatchStreamMatchesAlignBatch(t *testing.T) {
	defer func(old int) { streamChunkLetters = old }(streamChunkLetters)
	streamChunkLetters = 4096

	ref, genes := SyntheticReference(33, 50_000, 3, 40)
	queries := make([]*Query, 0, 4)
	for _, g := range genes {
		q, err := NewQuery(g.Protein)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	// A shorter query so MaxElems != MinElems exercises the tail flush.
	qs, err := NewQuery(genes[0].Protein[:12])
	if err != nil {
		t.Fatal(err)
	}
	queries = append(queries, qs)

	res, err := Scan(context.Background(), ScanRequest{Queries: queries, Reference: ref, ThresholdFrac: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]Hit, len(queries))
	nonEmpty := 0
	for qi, qh := range res.PerQuery {
		want[qi] = qh.Hits
		if len(qh.Hits) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		t.Fatal("batch oracle too sparse; test is vacuous")
	}

	got := make([][]Hit, len(queries))
	if _, err := Scan(context.Background(), ScanRequest{Queries: queries, Stream: strings.NewReader(ref.String()), ThresholdFrac: 0.7,
		Emit: func(qi int, h Hit) error { got[qi] = append(got[qi], h); return nil }}); err != nil {
		t.Fatal(err)
	}
	for qi := range want {
		if len(got[qi]) != len(want[qi]) {
			t.Fatalf("query %d: %d hits, want %d", qi, len(got[qi]), len(want[qi]))
		}
		for i := range want[qi] {
			if got[qi][i] != want[qi][i] {
				t.Fatalf("query %d hit %d = %+v, want %+v", qi, i, got[qi][i], want[qi][i])
			}
		}
	}

	// Streaming telemetry must see the batch: chunks processed and plane
	// words packed.
	snap := DefaultMetrics().Snapshot()
	if snap.Counters["stream.chunks.processed"] == 0 {
		t.Error("stream.chunks.processed is 0 after a batch stream scan")
	}
	if snap.Counters["stream.planes.packed_words"] == 0 {
		t.Error("stream.planes.packed_words is 0 after a batch stream scan")
	}
}

// TestAlignBatchStreamValidation pins the edge contracts of a Queries scan
// of a Stream: an empty batch fails up front, an emit error stops the
// scan, and cancellation surfaces ctx.Err().
func TestAlignBatchStreamValidation(t *testing.T) {
	stream := func(ctx context.Context, queries []*Query, r io.Reader, emit func(int, Hit) error) error {
		_, err := Scan(ctx, ScanRequest{Queries: queries, Stream: r, ThresholdFrac: 0.7, Emit: emit})
		return err
	}
	if err := stream(context.Background(), []*Query{}, strings.NewReader("ACGU"),
		func(int, Hit) error { return nil }); err == nil || !strings.Contains(err.Error(), "empty batch") {
		t.Fatalf("empty batch: err %v", err)
	}

	ref, genes := SyntheticReference(35, 20_000, 2, 30)
	q, err := NewQuery(genes[0].Protein)
	if err != nil {
		t.Fatal(err)
	}
	stop := errors.New("stop")
	err = stream(context.Background(), []*Query{q}, strings.NewReader(ref.String()),
		func(int, Hit) error { return stop })
	if !errors.Is(err, stop) {
		t.Fatalf("emit error: got %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = stream(ctx, []*Query{q}, strings.NewReader(ref.String()),
		func(int, Hit) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled ctx: got %v", err)
	}
}

// TestAlignStreamReaderErrorEmitErrorWins: if the pre-error flush's emit
// callback itself fails, that error surfaces (the reader error would
// otherwise mask where the consumer stopped).
func TestAlignStreamReaderErrorEmitErrorWins(t *testing.T) {
	ref, genes := SyntheticReference(22, 20_000, 2, 40)
	q, err := NewQuery(genes[0].Protein)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAligner(q, WithThresholdFraction(0.7), WithKernelType(KernelBitParallel))
	if err != nil {
		t.Fatal(err)
	}
	emitErr := errors.New("consumer full")
	streamErr := a.AlignStream(
		&faultReader{data: ref.String(), err: errors.New("read failed")},
		func(Hit) error { return emitErr })
	if !errors.Is(streamErr, emitErr) {
		t.Fatalf("error %v, want the emit callback's", streamErr)
	}
}

// streamAll runs an aligner's AlignStream over r, collecting every hit.
func streamAll(a *Aligner, r io.Reader) ([]Hit, error) {
	var hits []Hit
	err := a.AlignStream(r, func(h Hit) error {
		hits = append(hits, h)
		return nil
	})
	return hits, err
}

// TestAlignStreamScalarMatchesAlign: the scalar engine's stream over an
// io.Reader reproduces its in-memory scan exactly across two default-size
// chunk boundaries (context and carry correctness).
func TestAlignStreamScalarMatchesAlign(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	q, err := NewQuery(bio.RandomProtSeq(rng, 6).String())
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAligner(q, WithThreshold(q.MaxScore()*2/3), WithKernelType(KernelScalar))
	if err != nil {
		t.Fatal(err)
	}
	// 2.5 Mi letters force two boundaries of the default 1 Mi-letter chunk.
	ref := newReference(bio.RandomNucSeq(rng, 2_500_000))
	got, err := streamAll(a, strings.NewReader(ref.String()))
	if err != nil {
		t.Fatal(err)
	}
	assertHitsEqual(t, "scalar stream", a.Align(ref), got)
}

// TestAlignStreamScalarPlantedAtBoundary plants perfect genes straddling
// the default chunk boundary both ways; both kernels must recover every
// one and equal the in-memory scan.
func TestAlignStreamScalarPlantedAtBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	p := bio.ProtSeq{bio.Met, bio.Lys, bio.Trp, bio.Glu, bio.His}
	seq := bio.RandomNucSeq(rng, 1<<20+3000)
	gene := bio.EncodeGene(rng, p)
	// Non-overlapping (gene is 15 nt), straddling the boundary both ways.
	positions := []int{1<<20 - 45, 1<<20 - 25, 1<<20 - 7, 1<<20 + 15}
	for _, pos := range positions {
		copy(seq[pos:], gene)
	}
	ref := newReference(seq)
	q, err := NewQuery(p.String())
	if err != nil {
		t.Fatal(err)
	}
	for _, kernel := range []Kernel{KernelScalar, KernelBitParallel} {
		a, err := NewAligner(q, WithThreshold(q.MaxScore()), WithKernelType(kernel))
		if err != nil {
			t.Fatal(err)
		}
		hits, err := streamAll(a, strings.NewReader(seq.DNAString()))
		if err != nil {
			t.Fatal(err)
		}
		found := map[int]bool{}
		for _, h := range hits {
			found[h.Pos] = true
		}
		for _, pos := range positions {
			if !found[pos] {
				t.Errorf("%s: planted gene at %d lost at the chunk boundary", kernel, pos)
			}
		}
		assertHitsEqual(t, kernel.String()+" stream", a.Align(ref), hits)
	}
}

// TestAlignStreamScalarWhitespaceAndCase: lowercase letters and CRLF line
// breaks in the stream change nothing, for either kernel.
func TestAlignStreamScalarWhitespaceAndCase(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	q, err := NewQuery(bio.RandomProtSeq(rng, 3).String())
	if err != nil {
		t.Fatal(err)
	}
	seq := bio.RandomNucSeq(rng, 200)
	var sb strings.Builder
	for i, nt := range seq {
		sb.WriteByte(nt.DNALetter() | 0x20) // lowercase
		if i%60 == 59 {
			sb.WriteString("\r\n")
		}
	}
	for _, kernel := range []Kernel{KernelScalar, KernelBitParallel} {
		a, err := NewAligner(q, WithThreshold(0), WithKernelType(kernel))
		if err != nil {
			t.Fatal(err)
		}
		got, err := streamAll(a, strings.NewReader(sb.String()))
		if err != nil {
			t.Fatal(err)
		}
		assertHitsEqual(t, kernel.String()+" whitespace/case", a.Align(newReference(seq)), got)
	}
}

// TestAlignStreamScalarErrors pins the scalar stream's edges: an invalid
// letter fails with its position, an emit error stops the scan, and an
// empty stream yields no hits and no error.
func TestAlignStreamScalarErrors(t *testing.T) {
	q, err := NewQuery("M")
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAligner(q, WithThreshold(0), WithKernelType(KernelScalar))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := streamAll(a, strings.NewReader("ACGX")); err == nil || !strings.Contains(err.Error(), "position 3") {
		t.Errorf("invalid letter: err %v, want it positioned at 3", err)
	}
	boom := errors.New("stop")
	if err := a.AlignStream(strings.NewReader("ACGUACGU"), func(Hit) error { return boom }); !errors.Is(err, boom) {
		t.Errorf("callback error lost: %v", err)
	}
	if hits, err := streamAll(a, strings.NewReader("")); err != nil || hits != nil {
		t.Errorf("empty stream: %v %v", hits, err)
	}
}
