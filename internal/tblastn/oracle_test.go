package tblastn

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"fabp/internal/bio"
)

// This file holds an independent oracle for the frame-job scan: frames
// translated through the unpacked sequence and its reverse complement,
// a serial frame-by-frame scan driving a map-keyed diagonal state
// machine, and the quadratic containment cull. Thread-invariance tests
// compare the scan with itself; these compare it with a second
// algorithm.

// oracleFrames translates the first n frames through NucSeq.Translate.
func oracleFrames(ref bio.NucSeq, n int) []TranslatedFrame {
	rc := ref.ReverseComplement()
	frames := make([]TranslatedFrame, n)
	for f := range frames {
		src := ref
		if Frame(f).IsReverse() {
			src = rc
		}
		frames[f] = TranslatedFrame{Frame: Frame(f), Prot: src.Translate(Frame(f).Offset()), refLen: len(ref)}
	}
	return frames
}

// diagState is the seeding state machine keyed by diagonal in Go maps.
type diagState struct {
	twoHit    bool
	hitWindow int
	lastHit   map[int]int
	extended  map[int]int
}

func (ds *diagState) step(i, j int) bool {
	diag := j - i
	if end, done := ds.extended[diag]; done && j < end {
		return false
	}
	if !ds.twoHit {
		return true
	}
	prev, ok := ds.lastHit[diag]
	switch {
	case !ok || j-prev > ds.hitWindow:
		ds.lastHit[diag] = j
	case j-prev < WordSize:
	default:
		delete(ds.lastHit, diag)
		return true
	}
	return false
}

// oracleSearch is the serial map-based pipeline with the quadratic cull.
func oracleSearch(t *testing.T, q bio.ProtSeq, ref bio.NucSeq, opts Options) ([]HSP, Stats) {
	t.Helper()
	o, err := opts.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	idx, err := BuildIndex(q, o.NeighborThreshold)
	if err != nil {
		t.Fatal(err)
	}
	frames := oracleFrames(ref, o.Frames)
	st := Stats{IndexEntries: idx.Entries()}
	var all []HSP
	for fi := range frames {
		tf := &frames[fi]
		s := tf.Prot
		ds := diagState{twoHit: o.TwoHit, hitWindow: o.HitWindow, lastHit: map[int]int{}, extended: map[int]int{}}
		for j := 0; j+WordSize <= len(s); j++ {
			st.WordLookups++
			for _, qi := range idx.Lookup(s[j], s[j+1], s[j+2]) {
				st.WordHits++
				i := int(qi)
				if !ds.step(i, j) {
					continue
				}
				st.Extensions++
				h, ok := extend(q, s, i, j, o.XDrop)
				if ok && h.Score >= o.MinScore {
					h.Frame = tf.Frame
					h.NucPos = tf.NucStart(h.SStart)
					all = append(all, h)
					ds.extended[j-i] = h.SEnd
				}
			}
		}
	}
	residues := 0
	for i := range frames {
		residues += len(frames[i].Prot)
	}
	ro := o
	ro.KeepContained = true
	all, err = rank(context.Background(), q, frames, residues, all, &ro)
	if err != nil {
		t.Fatal(err)
	}
	if !o.KeepContained {
		all = quadraticCull(all)
	}
	st.HSPs = len(all)
	return all, st
}

// quadraticCull compares every HSP with every kept one.
func quadraticCull(hsps []HSP) []HSP {
	var kept []HSP
	for _, h := range hsps {
		contained := false
		for _, k := range kept {
			if k.Frame == h.Frame &&
				k.QStart <= h.QStart && h.QEnd <= k.QEnd &&
				k.SStart <= h.SStart && h.SEnd <= k.SEnd {
				contained = true
				break
			}
		}
		if !contained {
			kept = append(kept, h)
		}
	}
	return kept
}

// TestSearchMatchesOracle differentially checks the frame-job scan
// against the map-based serial oracle over random queries and
// references, across hit windows that alias the diagonal rings (1, 40)
// and one that cannot (no smaller than the frame), frame counts, seeding
// modes, worker counts, and with gapped refinement on every other seed.
func TestSearchMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(700 + seed))
		q := bio.RandomProtSeq(rng, 10+rng.Intn(70))
		// Every third seed seeds maximally, on a shorter reference.
		all := seed%3 == 0
		refLen := 300 + rng.Intn(6000)
		if all {
			refLen = 300 + rng.Intn(1200)
		}
		ref := bio.RandomNucSeq(rng, refLen)
		for c := rng.Intn(4); c > 0 && len(ref) > 3*len(q)+3; c-- {
			pos := rng.Intn(len(ref) - 3*len(q) - 2)
			copy(ref[pos:], bio.MutateNucSubstitutions(rng, bio.EncodeGene(rng, q), 0.05))
		}
		for _, hw := range []int{1, 40, len(ref)} {
			for _, frames := range []int{1, 3, 6} {
				for _, twoHit := range []bool{true, false} {
					opts := Options{HitWindow: hw, Frames: frames, TwoHit: twoHit, MinScore: 20, GappedRefine: seed%2 == 1}
					if all {
						opts.NeighborThreshold, opts.MinScore = NeighborThresholdAll, MinScoreAll
					}
					want, wantSt := oracleSearch(t, q, ref, opts)
					for _, threads := range []int{1, 3} {
						opts.Threads = threads
						got, gotSt, err := Search(q, ref, opts)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) || gotSt != wantSt {
							t.Fatalf("seed %d %+v: %d HSPs %+v, oracle %d HSPs %+v",
								seed, opts, len(got), gotSt, len(want), wantSt)
						}
					}
				}
			}
		}
	}
}

// TestTranslate6MatchesOracle checks the payload translator's frames and
// coordinates against the unpacked reverse-complement path.
func TestTranslate6MatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 0; n <= 200; n++ {
		ref := bio.RandomNucSeq(rng, n)
		got, want := Translate6(ref), oracleFrames(ref, NumFrames)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("length %d: payload frames differ from the unpacked translation", n)
		}
	}
}

// TestCullContainedMatchesQuadratic checks the bucketed cull against the
// quadratic form on random best-first HSP sets: nested, overlapping and
// disjoint ranges, several frames, and spans from 3 residues to the
// whole subject.
func TestCullContainedMatchesQuadratic(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(300)
		subject := 20 + rng.Intn(2000)
		maxSpan := 3 + rng.Intn(subject)
		hsps := make([]HSP, n)
		for i := range hsps {
			sLen := 3 + rng.Intn(maxSpan)
			sStart := rng.Intn(subject)
			qStart := rng.Intn(40)
			hsps[i] = HSP{
				Frame:  Frame(rng.Intn(NumFrames)),
				QStart: qStart, QEnd: qStart + 3 + rng.Intn(sLen),
				SStart: sStart, SEnd: sStart + sLen,
				Score: rng.Intn(60),
			}
		}
		sort.Slice(hsps, func(i, j int) bool { return lessHSP(&hsps[i], &hsps[j]) })
		want := quadraticCull(hsps)
		got, err := cullContained(context.Background(), append([]HSP(nil), hsps...))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: bucketed cull kept %d HSPs, quadratic %d", seed, len(got), len(want))
		}
	}
}

// TestCullContainedObservesContext: a canceled cull returns ctx.Err().
func TestCullContainedObservesContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cullContained(ctx, make([]HSP, 10)); err != context.Canceled {
		t.Fatalf("canceled cull: err %v, want context.Canceled", err)
	}
}
