package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records spans in memory; writeChrome writes them out at the end
// of the run as Chrome trace-event JSON. A nil *tracer records nothing, so
// the same composition code runs traced and untraced.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

// span is one timed call into a layer. Work and Aux carry the call's
// work counts; their meaning depends on the span name (see layers.go).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root
	Req    int64  `json:"req"`    // the op or request the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Work   int64  `json:"work"`
	Aux    int64  `json:"aux"`
}

func (s *span) dur() int64 { return s.End - s.Start }

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanCtx is an open span. Its zero value (from a nil tracer) is inert.
type spanCtx struct {
	tr     *tracer
	id     int64
	parent int64
	req    int64
	name   string
	start  int64
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// root opens a root span for request req.
func (t *tracer) root(name string, req int64) spanCtx {
	if t == nil {
		return spanCtx{}
	}
	return spanCtx{tr: t, id: t.ids.Add(1), req: req, name: name, start: t.now()}
}

// child opens a span under s; safe to call from any goroutine.
func (s spanCtx) child(name string) spanCtx {
	if s.tr == nil {
		return spanCtx{}
	}
	return spanCtx{tr: s.tr, id: s.tr.ids.Add(1), parent: s.id, req: s.req, name: name, start: s.tr.now()}
}

// end closes the span with its work counts.
func (s spanCtx) end(work, aux int64) {
	if s.tr == nil {
		return
	}
	sp := span{ID: s.id, Parent: s.parent, Req: s.req, Name: s.name, Start: s.start, End: s.tr.now(), Work: work, Aux: aux}
	s.tr.mu.Lock()
	s.tr.spans = append(s.tr.spans, sp)
	s.tr.mu.Unlock()
}

// serveSpans records one HTTP request as the client saw it: a
// serve.request root from send to response, and a serve.handler child as
// long as the server's reported elapsed_ms, placed at the end of that
// interval (the server does not say when its handler started).
func (t *tracer) serveSpans(req int64, c serveCall) {
	if t == nil {
		return
	}
	start, end := int64(c.Sent.Sub(t.epoch)), int64(c.Done.Sub(t.epoch))
	root := span{ID: t.ids.Add(1), Req: req, Name: "serve.request", Start: start, End: end}
	handler := span{ID: t.ids.Add(1), Parent: root.ID, Req: req, Name: "serve.handler",
		Start: max(start, end-int64(c.Resp.ElapsedMs*1e6)), End: end}
	t.mu.Lock()
	t.spans = append(t.spans, root, handler)
	t.mu.Unlock()
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format. The span tree travels in args; tid is the request ID.
type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`  // µs
	Dur  float64 `json:"dur"` // µs
	Pid  int     `json:"pid"`
	Tid  int64   `json:"tid"`
	Args span    `json:"args"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// writeChrome writes the recorded spans to path.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	ct := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: make([]chromeEvent, len(t.spans))}
	for i, s := range t.spans {
		ct.TraceEvents[i] = chromeEvent{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3,
			Dur: float64(s.dur()) / 1e3, Pid: 1, Tid: s.Req, Args: s}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(ct)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// readChrome parses a trace written by writeChrome back into spans.
func readChrome(path string) ([]span, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ct chromeTrace
	if err := json.Unmarshal(b, &ct); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make([]span, len(ct.TraceEvents))
	for i, e := range ct.TraceEvents {
		out[i] = e.Args
	}
	return out, nil
}

// selfTimes returns each span's self time in ns: the part of its interval
// in which it was running and none of its children was. Where several
// spans of one tree run at once (shards on pool workers), each instant is
// shared equally among the spans running then with no running child, so
// the self times of a tree sum exactly to its root's duration.
func selfTimes(spans []span) map[int64]float64 {
	byID := make(map[int64]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	rootOf := func(s *span) int64 {
		for s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok {
				break
			}
			s = p
		}
		return s.ID
	}
	trees := map[int64][]*span{}
	for i := range spans {
		r := rootOf(&spans[i])
		trees[r] = append(trees[r], &spans[i])
	}
	self := make(map[int64]float64, len(spans))
	type event struct {
		at    int64
		delta int // +1 start, -1 end
		s     *span
	}
	for _, tree := range trees {
		events := make([]event, 0, 2*len(tree))
		for _, s := range tree {
			events = append(events, event{s.Start, 1, s}, event{s.End, -1, s})
		}
		sort.Slice(events, func(i, j int) bool { return events[i].at < events[j].at })
		// Counts, not flags: a zero-length span's start and end share a
		// timestamp and may be applied in either order.
		running := map[*span]int{}
		kids := map[int64]int{} // running children per span
		for i := 0; i < len(events); {
			at := events[i].at
			for ; i < len(events) && events[i].at == at; i++ {
				ev := events[i]
				running[ev.s] += ev.delta
				if running[ev.s] == 0 {
					delete(running, ev.s)
				}
				kids[ev.s.Parent] += ev.delta
			}
			if i == len(events) {
				break
			}
			dt := float64(events[i].at - at)
			var leaves []*span
			for s := range running {
				if kids[s.ID] == 0 {
					leaves = append(leaves, s)
				}
			}
			for _, s := range leaves {
				self[s.ID] += dt / float64(len(leaves))
			}
		}
	}
	return self
}
