package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"

	"fabp"
)

// sameJSON reports whether two outputs encode to the same bytes — the
// byte-for-byte comparison every cross-check in the benchmark uses.
func sameJSON(a, b any) bool {
	x, err1 := json.Marshal(a)
	y, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(x, y)
}

// recallRecordHits requires a planted query's hit at its (record, offset).
func recallRecordHits(q query, hits []fabp.RecordHit) error {
	if q.Kind != kindPlanted {
		return nil
	}
	for _, h := range hits {
		if h.RecordIndex == q.Rec && h.Offset == q.Off && h.RecordID == recID(q.Rec) {
			return nil
		}
	}
	return fmt.Errorf("planted query missed %s:%d (%d hits)", recID(q.Rec), q.Off, len(hits))
}

func recallWireHits(q query, hits []wireHit) error {
	rh := make([]fabp.RecordHit, len(hits))
	for i, h := range hits {
		rh[i] = fabp.RecordHit{RecordID: h.Record, RecordIndex: h.RecordIndex, Offset: h.Offset, Score: h.Score}
	}
	return recallRecordHits(q, rh)
}

// recallHits requires a planted query's hit at its stream position.
func recallHits(q query, hits []fabp.Hit) error {
	if q.Kind != kindPlanted {
		return nil
	}
	for _, h := range hits {
		if h.Pos == q.Pos {
			return nil
		}
	}
	return fmt.Errorf("planted query missed position %d (%d hits)", q.Pos, len(hits))
}

// recallHSPs requires a planted protein query to be found on its own
// forward-strand diagonal.
func recallHSPs(q query, hsps []wireHSP) error {
	if q.Kind != kindPlanted {
		return nil
	}
	for _, h := range hsps {
		if h.Frame[0] == '+' && h.NucPos-3*h.QStart == q.Pos {
			return nil
		}
	}
	return fmt.Errorf("planted protein query missed position %d (%d HSPs)", q.Pos, len(hsps))
}

func toWireHits(hits []fabp.RecordHit) []wireHit {
	out := make([]wireHit, len(hits))
	for i, h := range hits {
		out[i] = wireHit{Record: h.RecordID, RecordIndex: h.RecordIndex, Offset: h.Offset, Score: h.Score}
	}
	return out
}

func toWireHSPs(hsps []fabp.HSP) []wireHSP {
	out := make([]wireHSP, len(hsps))
	for i, h := range hsps {
		out[i] = wireHSP{Frame: h.Frame, QStart: h.QStart, QEnd: h.QEnd, SStart: h.SStart, SEnd: h.SEnd,
			NucPos: h.NucPos, Score: h.Score, BitScore: h.BitScore, EValue: h.EValue}
	}
	return out
}

// verifyServe checks every response of a serve_mixed run: every request
// succeeded (a refusal, 5xx or timeout is a failure), planted queries are
// found, every /align answer for one query is identical whether it was a
// cache hit or a miss, and a seeded sample of requests matches the
// reference path run in-process on the same database. A request that
// fails a check is marked bad and recorded as a problem.
func verifyServe(rep *report, d *fabp.Database, in *inputs, phases []*phaseResult) {
	bad := func(r *loadReq, format string, args ...any) {
		if r.bad == nil {
			r.bad = fmt.Errorf(format, args...)
			rep.problem("%s request: %v", r.req.Kind, r.bad)
		}
	}
	byQuery := map[string]*loadReq{} // first /align answer per query
	var samples []*loadReq
	for _, p := range phases {
		for _, r := range p.reqs {
			if r.call.Err != nil {
				bad(r, "%v", r.call.Err)
				continue
			}
			resp := &r.call.Resp
			switch r.req.Kind {
			case reqSearch:
				if err := recallHSPs(r.req.Queries[0], resp.HSPs); err != nil {
					bad(r, "%v", err)
				}
			case reqBatch:
				if len(resp.Queries) != len(r.req.Queries) {
					bad(r, "%d results for %d queries", len(resp.Queries), len(r.req.Queries))
					continue
				}
				for k, q := range r.req.Queries {
					if err := recallWireHits(q, resp.Queries[k].Hits); err != nil {
						bad(r, "%v", err)
					}
				}
			default:
				q := r.req.Queries[0]
				if err := recallWireHits(q, resp.Hits); err != nil {
					bad(r, "%v", err)
				}
				if first, ok := byQuery[q.Protein]; !ok {
					byQuery[q.Protein] = r
				} else if !sameJSON(first.call.Resp.Hits, resp.Hits) {
					bad(r, "cache %q answer differs from the %q answer for the same query", resp.Cache, first.call.Resp.Cache)
				}
			}
			if p.phase.Frac > 0 {
				samples = append(samples, r)
			}
		}
	}

	// Golden re-runs: three /align, one /search and one /align/batch.
	want := map[string]int{reqAlignPool: 1, reqAlignDistinct: 2, reqSearch: 1, reqBatch: 1}
	rng := rand.New(rand.NewSource(rep.Seed))
	rng.Shuffle(len(samples), func(a, b int) { samples[a], samples[b] = samples[b], samples[a] })
	ctx := context.Background()
	for _, r := range samples {
		if want[r.req.Kind] == 0 || r.bad != nil {
			continue
		}
		want[r.req.Kind]--
		got, err := goldenServe(ctx, d, in.Shape.Frac, r.req)
		if err != nil {
			bad(r, "golden re-run: %v", err)
			continue
		}
		var served any = r.call.Resp.Hits
		switch r.req.Kind {
		case reqSearch:
			served = r.call.Resp.HSPs
		case reqBatch:
			hits := make([][]wireHit, len(r.call.Resp.Queries))
			for k, q := range r.call.Resp.Queries {
				hits[k] = q.Hits
			}
			served = hits
		}
		if !sameJSON(got, served) {
			bad(r, "differs from the in-process reference path")
		}
	}
}

// goldenServe answers one request in-process on the reference path.
func goldenServe(ctx context.Context, d *fabp.Database, frac float64, r *serveReq) (any, error) {
	qs, err := sutQueries(protStrings(r.Queries))
	if err != nil {
		return nil, err
	}
	if r.Kind == reqSearch {
		hsps, err := sutSearchDB(ctx, d, qs[0], 1)
		return toWireHSPs(hsps), err
	}
	out := make([][]wireHit, len(qs))
	for k, q := range qs {
		hits, err := sutScan(ctx, d, q, frac, fabp.KernelScalar)
		if err != nil {
			return nil, err
		}
		out[k] = toWireHits(hits)
	}
	if r.Kind == reqBatch {
		return out, nil
	}
	return out[0], nil
}

func protStrings(qs []query) []string {
	out := make([]string, len(qs))
	for i, q := range qs {
		out[i] = q.Protein
	}
	return out
}
