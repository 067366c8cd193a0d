package tblastn

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"fabp/internal/bio"
	"fabp/internal/faultinject"
	"fabp/internal/sched"
	kastats "fabp/internal/stats"
	"fabp/internal/swalign"
)

// Sentinel option values. The zero Options selects BLAST-flavoured
// defaults, so "no cutoff" needs an explicit spelling.
const (
	// MinScoreAll disables the raw-score cutoff: every HSP the extender
	// produces is kept (extension itself requires a positive best score).
	// The zero value cannot express this because a zero Options selects
	// the BLAST default (35).
	MinScoreAll = -1

	// NeighborThresholdAll opens the neighborhood index to every word
	// pair scoring at least -1 — effectively every seed a productive
	// extension could start from. The zero value selects the BLAST
	// default (11).
	NeighborThresholdAll = -1
)

// Options tune the search pipeline; zero values take BLAST-like defaults
// via Resolve.
type Options struct {
	// NeighborThreshold is the word-pair score to enter the index (T).
	// Zero selects the BLAST default (11); NeighborThresholdAll admits
	// effectively every word pair.
	NeighborThreshold int
	// TwoHit requires two non-overlapping same-diagonal word hits within
	// HitWindow residues before extending (BLAST's default strategy).
	TwoHit bool
	// HitWindow is the two-hit distance window (A).
	HitWindow int
	// XDrop stops ungapped extension when the running score falls this far
	// below the best seen.
	XDrop int
	// MinScore discards HSPs scoring lower (raw BLOSUM score cutoff).
	// Zero selects the BLAST default (35); MinScoreAll keeps every HSP.
	MinScore int
	// Threads is the worker count (the paper measures 1 and 12). Each
	// reading frame is one job, so at most Frames workers run. The HSP
	// set and Stats are invariant under Threads: the frames share no
	// seeding state and merge in frame order.
	Threads int
	// Frames limits the search to the first N frames (3 = forward only,
	// matching FabP's single-strand scan; 6 = full TBLASTN).
	Frames int
	// MaxEValue, when positive, discards HSPs whose Karlin-Altschul
	// E-value exceeds it (applied after MinScore).
	MaxEValue float64
	// GappedRefine re-aligns each surviving HSP's neighbourhood with
	// Smith-Waterman (BLOSUM62, affine 11/1), filling GappedScore.
	GappedRefine bool
	// KeepContained disables the default culling of HSPs whose query and
	// subject ranges are contained in a higher-scoring same-frame HSP
	// (BLAST's dominance filter).
	KeepContained bool
	// RefineMargin is the residue margin around the HSP used for gapped
	// refinement (default 20).
	RefineMargin int
}

// Resolve fills unset fields with BLAST-flavoured values and validates
// the rest. It is idempotent: resolving a resolved Options is a no-op,
// so callers may pass either raw or resolved options to Search*. The
// *All sentinels (-1) pass through unchanged and are honoured by the
// pipeline; other negative values are rejected.
func (o Options) Resolve() (Options, error) {
	switch {
	case o.NeighborThreshold == 0:
		o.NeighborThreshold = 11
	case o.NeighborThreshold < NeighborThresholdAll:
		return o, fmt.Errorf("tblastn: neighbor threshold %d invalid (use NeighborThresholdAll for maximal seeding)", o.NeighborThreshold)
	}
	switch {
	case o.MinScore == 0:
		o.MinScore = 35
	case o.MinScore < MinScoreAll:
		return o, fmt.Errorf("tblastn: min score %d invalid (use MinScoreAll to keep every HSP)", o.MinScore)
	}
	switch {
	case o.Threads == 0:
		o.Threads = 1
	case o.Threads < 0:
		return o, fmt.Errorf("tblastn: threads must be non-negative, got %d", o.Threads)
	}
	switch {
	case o.HitWindow == 0:
		o.HitWindow = 40
	case o.HitWindow < 0:
		return o, fmt.Errorf("tblastn: hit window must be non-negative, got %d", o.HitWindow)
	}
	switch {
	case o.XDrop == 0:
		o.XDrop = 16
	case o.XDrop < 0:
		return o, fmt.Errorf("tblastn: x-drop must be non-negative, got %d", o.XDrop)
	}
	switch {
	case o.Frames == 0:
		o.Frames = NumFrames
	case o.Frames < 1 || o.Frames > NumFrames:
		return o, fmt.Errorf("tblastn: frames must be 1..6, got %d", o.Frames)
	}
	switch {
	case o.RefineMargin == 0:
		o.RefineMargin = 20
	case o.RefineMargin < 0:
		return o, fmt.Errorf("tblastn: refine margin must be non-negative, got %d", o.RefineMargin)
	}
	if o.MaxEValue < 0 || o.MaxEValue != o.MaxEValue {
		return o, fmt.Errorf("tblastn: max E-value must be non-negative, got %v", o.MaxEValue)
	}
	return o, nil
}

// Defaults fills unset fields with BLAST-flavoured values. It is
// Resolve without the validation: invalid fields pass through and fail
// inside Search. Kept for callers that only want the default view.
func (o Options) Defaults() Options {
	r, err := o.Resolve()
	if err != nil {
		return o
	}
	return r
}

// HSP is a high-scoring segment pair: an ungapped local alignment between
// the query and one translated frame.
type HSP struct {
	Frame Frame
	// QStart/QEnd delimit the query residues (half-open).
	QStart, QEnd int
	// SStart/SEnd delimit the frame's protein positions (half-open).
	SStart, SEnd int
	// Score is the raw BLOSUM62 segment score.
	Score int
	// NucPos is the forward-strand nucleotide offset of the subject
	// segment's lowest-address codon base.
	NucPos int
	// BitScore and EValue are Karlin-Altschul statistics over the search
	// space (ungapped BLOSUM62 parameters).
	BitScore float64
	EValue   float64
	// GappedScore is the Smith-Waterman score of the refined alignment
	// window (0 unless Options.GappedRefine is set).
	GappedScore int
}

// Stats profiles one search, exposing the pipeline costs the paper
// discusses (hash build, lookups, extensions). All fields are invariant
// under Options.Threads.
type Stats struct {
	IndexEntries int
	WordLookups  int
	WordHits     int
	Extensions   int
	HSPs         int
}

// Search runs the TBLASTN pipeline for query q over reference ref.
func Search(q bio.ProtSeq, ref bio.NucSeq, opts Options) ([]HSP, Stats, error) {
	return SearchContext(context.Background(), q, ref, opts)
}

// SearchContext is Search with cancellation: each frame job observes ctx
// every ctxCheckStride subject positions and the containment cull every
// ctxCheckStride HSPs; the search returns ctx.Err() once it fires.
func SearchContext(ctx context.Context, q bio.ProtSeq, ref bio.NucSeq, opts Options) ([]HSP, Stats, error) {
	return SearchPackedContext(ctx, q, bio.Pack(ref), opts)
}

// SearchPackedContext is SearchContext over a reference in its 2-bit
// payload form: each frame job translates its frame straight from the
// packed words, so the reference is never unpacked.
func SearchPackedContext(ctx context.Context, q bio.ProtSeq, ref *bio.PackedNucSeq, opts Options) ([]HSP, Stats, error) {
	o, err := opts.Resolve()
	if err != nil {
		return nil, Stats{}, err
	}
	idx, err := BuildIndex(q, o.NeighborThreshold)
	if err != nil {
		return nil, Stats{}, err
	}
	return searchWithIndex(ctx, idx, ref, &o)
}

// SearchWithIndex runs the scan phase with a prebuilt query index
// (amortizing index construction over many references).
func SearchWithIndex(idx *Index, ref bio.NucSeq, opts Options) ([]HSP, Stats, error) {
	return SearchWithIndexContext(context.Background(), idx, ref, opts)
}

// SearchWithIndexContext is SearchWithIndex with cancellation.
func SearchWithIndexContext(ctx context.Context, idx *Index, ref bio.NucSeq, opts Options) ([]HSP, Stats, error) {
	o, err := opts.Resolve()
	if err != nil {
		return nil, Stats{}, err
	}
	return searchWithIndex(ctx, idx, bio.Pack(ref), &o)
}

// maxFrameLen bounds a frame's residue count: the diagonal rings store
// subject positions as int32.
const maxFrameLen = math.MaxInt32 - 1

// searchWithIndex runs the pipeline on resolved options: one job per
// reading frame on a pool of min(Threads, Frames) workers, merged in
// frame order.
func searchWithIndex(ctx context.Context, idx *Index, ref *bio.PackedNucSeq, o *Options) ([]HSP, Stats, error) {
	tm.searches.Inc()
	start := time.Now()
	defer func() { tm.scanLatency.Observe(time.Since(start)) }()

	if ref.Len()/3 > maxFrameLen {
		return nil, Stats{}, fmt.Errorf("tblastn: reference of %d nt exceeds %d residues per frame", ref.Len(), maxFrameLen)
	}
	hsps, stats, err := scanFrames(ctx, idx, ref, o)
	if err != nil {
		tm.canceled.Inc()
		return nil, Stats{}, err
	}
	stats.HSPs = len(hsps)
	tm.wordLookups.Add(uint64(stats.WordLookups))
	tm.wordHits.Add(uint64(stats.WordHits))
	tm.extensions.Add(uint64(stats.Extensions))
	tm.hsps.Add(uint64(stats.HSPs))
	return hsps, stats, nil
}

// frameScan is one frame job's output. tf keeps the translation only
// when gapped refinement will read it again: otherwise the frame is
// garbage as soon as its job ends.
type frameScan struct {
	tf       TranslatedFrame
	residues int
	hsps     []HSP
	st       Stats
	err      error
}

// scanFrames runs the frame jobs and ranks their concatenated HSPs. The
// frames are independent — each has its own diagonals and its own state
// machine — so the result equals a serial frame-by-frame scan whatever
// the worker count.
func scanFrames(ctx context.Context, idx *Index, ref *bio.PackedNucSeq, o *Options) ([]HSP, Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}
	jobs := make([]frameScan, o.Frames)
	if err := sched.NewPool(min(o.Threads, o.Frames)).EachCtx(ctx, len(jobs), func(f int) {
		jobs[f] = scanFrame(ctx, idx, ref, Frame(f), o)
	}); err != nil {
		return nil, Stats{}, err
	}
	stats := Stats{IndexEntries: idx.Entries()}
	frames := make([]TranslatedFrame, len(jobs))
	residues := 0
	var all []HSP
	for f := range jobs {
		fs := &jobs[f]
		if fs.err != nil {
			return nil, Stats{}, fs.err
		}
		if err := faultinject.Check(ctx, faultinject.SiteShardMerge, uint64(f)); err != nil {
			return nil, Stats{}, err
		}
		stats.WordLookups += fs.st.WordLookups
		stats.WordHits += fs.st.WordHits
		stats.Extensions += fs.st.Extensions
		frames[f] = fs.tf
		residues += fs.residues
		all = append(all, fs.hsps...)
	}
	all, err := rank(ctx, idx.Query, frames, residues, all, o)
	return all, stats, err
}

// ctxCheckStride is how many subject positions a frame job covers
// between context checks.
const ctxCheckStride = 4096

// scanFrame is one frame job: translate frame f from the payload, then
// seed and extend along it in subject order.
func scanFrame(ctx context.Context, idx *Index, ref *bio.PackedNucSeq, f Frame, o *Options) frameScan {
	fs := frameScan{tf: translateFrame(ref, f)}
	q, s := idx.Query, fs.tf.Prot
	dr := newDiagRings(len(q), len(s), o)
	for j := 0; j+WordSize <= len(s); j++ {
		if j%ctxCheckStride == 0 {
			if fs.err = ctx.Err(); fs.err != nil {
				return fs
			}
		}
		fs.st.WordLookups++
		for _, qi := range idx.Lookup(s[j], s[j+1], s[j+2]) {
			fs.st.WordHits++
			i := int(qi)
			if !dr.step(i, j) {
				continue
			}
			fs.st.Extensions++
			h, ok := extend(q, s, i, j, o.XDrop)
			if ok && h.Score >= o.MinScore {
				h.Frame = f
				h.NucPos = fs.tf.NucStart(h.SStart)
				fs.hsps = append(fs.hsps, h)
				dr.accept(j-i, h.SEnd)
			}
		}
	}
	fs.residues = len(s)
	if !o.GappedRefine {
		fs.tf.Prot = nil
	}
	return fs
}

// diagRings is a frame's seeding state machine: two-hit pairing and
// extension suppression per diagonal d = j-i, in two rings indexed by
// d&mask. Hits arrive in non-decreasing j, and diagonal d is live only
// while j ∈ [d, d+len(q)), so with at least len(q)+HitWindow+1 slots a
// slot's previous diagonal is over before the next one using it starts:
// its stale lastHit lies more than HitWindow behind (the pair restarts,
// as for an empty slot) and its stale extended end lies at or before j
// (it suppresses nothing). The rings never need more slots than the
// frame has diagonals.
type diagRings struct {
	twoHit    bool
	hitWindow int
	mask      int
	// lastHit holds j+1 of the diagonal's unpaired word hit (0: none);
	// extended the subject end of the last HSP accepted there (0: none).
	lastHit  []int32
	extended []int32
}

func newDiagRings(qLen, sLen int, o *Options) diagRings {
	slots := sLen + qLen
	if o.HitWindow < sLen {
		slots = min(slots, qLen+o.HitWindow+1)
	}
	size := 1
	for size < slots {
		size <<= 1
	}
	dr := diagRings{twoHit: o.TwoHit, hitWindow: o.HitWindow, mask: size - 1, extended: make([]int32, size)}
	if o.TwoHit {
		dr.lastHit = make([]int32, size)
	}
	return dr
}

// step feeds the word hit (query position i, subject position j) into
// the machine and reports whether it triggers an extension.
func (dr *diagRings) step(i, j int) bool {
	slot := (j - i) & dr.mask
	if j < int(dr.extended[slot]) {
		return false // already inside an HSP on this diagonal
	}
	if !dr.twoHit {
		return true
	}
	prev := int(dr.lastHit[slot]) - 1
	switch {
	case prev < 0 || j-prev > dr.hitWindow:
		dr.lastHit[slot] = int32(j + 1) // first hit, or stale: restart the pair
	case j-prev < WordSize:
		// Overlapping the remembered hit: keep the earlier one.
	default:
		dr.lastHit[slot] = 0
		return true
	}
	return false
}

// accept records an accepted HSP's extent so later hits inside it are
// suppressed.
func (dr *diagRings) accept(diag, sEnd int) { dr.extended[diag&dr.mask] = int32(sEnd) }

// rank gives the frames' HSPs their Karlin-Altschul statistics over the
// translated search space of dbResidues residues, applies the optional
// E-value filter and gapped refinement (which reads frames), sorts
// best-first and culls contained HSPs.
func rank(ctx context.Context, q bio.ProtSeq, frames []TranslatedFrame, dbResidues int, all []HSP, o *Options) ([]HSP, error) {
	params := kastats.UngappedBLOSUM62()
	kept := all[:0]
	for _, h := range all {
		h.BitScore = params.BitScore(h.Score)
		h.EValue = params.EValue(h.Score, len(q), dbResidues)
		if o.MaxEValue > 0 && h.EValue > o.MaxEValue {
			continue
		}
		if o.GappedRefine {
			h.GappedScore = refineGapped(q, &frames[int(h.Frame)], h, o.RefineMargin)
		}
		kept = append(kept, h)
	}
	sort.Slice(kept, func(i, j int) bool { return lessHSP(&kept[i], &kept[j]) })
	if o.KeepContained {
		return kept, nil
	}
	return cullContained(ctx, kept)
}

// lessHSP is the result ordering: score-descending, then ascending on
// every coordinate so equal-scoring HSPs have a total order and the
// final sort (and the cullContained pass that walks it) is deterministic
// regardless of arrival order.
func lessHSP(a, b *HSP) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if a.Frame != b.Frame {
		return a.Frame < b.Frame
	}
	if a.SStart != b.SStart {
		return a.SStart < b.SStart
	}
	if a.QStart != b.QStart {
		return a.QStart < b.QStart
	}
	if a.QEnd != b.QEnd {
		return a.QEnd < b.QEnd
	}
	return a.SEnd < b.SEnd
}

// cullContained removes HSPs whose query and subject ranges both lie
// inside a higher-scoring HSP of the same frame (input sorted best-first).
// A container k of h has h.SEnd-span < k.SStart <= h.SStart, span being
// the widest subject extent present, so each HSP is compared only with
// the kept HSPs of its frame whose SStart falls in its own bucket of
// width span or the one below. The cull observes ctx every
// ctxCheckStride HSPs.
func cullContained(ctx context.Context, hsps []HSP) ([]HSP, error) {
	span := 1
	for x := range hsps {
		span = max(span, hsps[x].SEnd-hsps[x].SStart)
	}
	type bucket struct {
		frame Frame
		b     int
	}
	buckets := map[bucket][]int32{} // indices into kept
	kept := hsps[:0]
	contained := func(ids []int32, h *HSP) bool {
		for _, id := range ids {
			k := &kept[id]
			if k.QStart <= h.QStart && h.QEnd <= k.QEnd && k.SStart <= h.SStart && h.SEnd <= k.SEnd {
				return true
			}
		}
		return false
	}
	for x := range hsps {
		if x%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		h := &hsps[x]
		b := bucket{h.Frame, h.SStart / span}
		if contained(buckets[b], h) || contained(buckets[bucket{h.Frame, b.b - 1}], h) {
			continue
		}
		buckets[b] = append(buckets[b], int32(len(kept)))
		kept = append(kept, *h)
	}
	return kept, nil
}

// extend performs ungapped X-drop extension around the seed word at query
// position i / subject position j. It is a pure function of (q, s, i, j,
// xdrop).
func extend(q, s bio.ProtSeq, i, j, xdrop int) (HSP, bool) {
	// Seed score.
	score := 0
	for k := 0; k < WordSize; k++ {
		score += bio.Blosum62(q[i+k], s[j+k])
	}
	best := score
	qs, ss := i, j
	qe, se := i+WordSize, j+WordSize

	// Extend right.
	cur := best
	bi, bj := qe, se
	for x, y := qe, se; x < len(q) && y < len(s); x, y = x+1, y+1 {
		cur += bio.Blosum62(q[x], s[y])
		if cur > best {
			best = cur
			bi, bj = x+1, y+1
		}
		if best-cur > xdrop {
			break
		}
	}
	qe, se = bi, bj

	// Extend left.
	cur = best
	bi, bj = qs, ss
	for x, y := qs-1, ss-1; x >= 0 && y >= 0; x, y = x-1, y-1 {
		cur += bio.Blosum62(q[x], s[y])
		if cur > best {
			best = cur
			bi, bj = x, y
		}
		if best-cur > xdrop {
			break
		}
	}
	qs, ss = bi, bj

	if best <= 0 {
		return HSP{}, false
	}
	return HSP{QStart: qs, QEnd: qe, SStart: ss, SEnd: se, Score: best}, true
}

// refineGapped re-aligns the query against the HSP's subject neighbourhood
// with banded Smith-Waterman (the gapped extension stage of BLAST): the
// seed fixes the diagonal, so a corridor of ±margin diagonals suffices to
// recover alignments the ungapped pass truncated at indels.
func refineGapped(q bio.ProtSeq, tf *TranslatedFrame, h HSP, margin int) int {
	lo := h.SStart - len(q) - margin
	if lo < 0 {
		lo = 0
	}
	hi := h.SEnd + len(q) + margin
	if hi > len(tf.Prot) {
		hi = len(tf.Prot)
	}
	if lo >= hi {
		return 0
	}
	// The HSP pairs query position QStart with subject position SStart, so
	// within the window the alignment sits near diagonal (SStart-lo)-QStart.
	diag := (h.SStart - lo) - h.QStart
	return swalign.ScoreBanded(q, tf.Prot[lo:hi], swalign.DefaultScoring(), diag, margin)
}
