// server.go holds the fabp-serve HTTP layer, separated from main so the
// handler stack is testable with httptest: a preloaded database, an align
// endpoint riding the facade's unified Scan spine (content-addressed
// result cache included), a deadline-aware weighted admission queue, and
// the observability endpoints.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"context"

	"fabp"
	"fabp/internal/sched"
	"fabp/internal/telemetry"
)

// serverConfig sizes a server.
type serverConfig struct {
	// db is the preloaded database every query scans.
	db *fabp.Database
	// maxInflight bounds concurrently executing align requests (the
	// admission queue's capacity, weighted in scan units: a K-query batch
	// weighs K).
	maxInflight int
	// maxQueue bounds how many requests may wait for a slot before the
	// server sheds with 429; 0 (the default) keeps the historical
	// immediate-shed behavior — capacity full means 429 now.
	maxQueue int
	// cacheBytes bounds the process-wide scan-result cache; 0 (the
	// default) leaves it disabled, the library default.
	cacheBytes int64
	// defaultTimeout applies when a request names no timeout_ms;
	// maxTimeout caps what a request may ask for.
	defaultTimeout, maxTimeout time.Duration
	// maxHits caps hits returned per request when the request does not
	// set max_hits lower (0 = serverDefaultMaxHits).
	maxHits int
	// maxBatch caps the queries one /align/batch request may carry
	// (0 = serverDefaultMaxBatch).
	maxBatch int
	// planeSource records where the database's bit-planes came from at
	// startup ("persisted" for a v2 file's plane section, "packed" when
	// the server packed them itself) — surfaced on /healthz.
	planeSource string
	// retryPolicy is the server's default scan resilience (retries,
	// backoff, hedging), set on every /align, /align/batch and
	// /align/stream request; an /align request's retry_budget overrides
	// the retry count within [0, serverMaxRetryBudget]. The zero policy
	// scans single-attempt, the historical behavior.
	retryPolicy fabp.RetryPolicy
}

const (
	serverDefaultTimeout  = 10 * time.Second
	serverDefaultMaxHits  = 1000
	serverDefaultMaxBatch = 64
	// serverMaxRetryBudget caps a request's retry_budget: a client cannot
	// buy more re-execution than this no matter what it asks for.
	serverMaxRetryBudget = 10
)

// server is the fabp-serve handler state.
type server struct {
	cfg serverConfig
	// adm is the weighted, deadline-aware admission queue every scan
	// passes through — except cache hits, which bypass it entirely.
	adm *sched.Admission
	// scan executes one prepared request — a single query, a batch or a
	// stream — against the unified Scan spine under the request context.
	// Overridable in tests to model slow or stuck scans deterministically.
	scan func(ctx context.Context, req fabp.ScanRequest) (*fabp.ScanResult, error)
	// lookup probes the scan-result cache without scanning or queueing;
	// a hit answers the request before admission. Overridable in tests.
	lookup func(req fabp.ScanRequest) (*fabp.ScanResult, bool)
	// m holds the serve-layer counters, registered beside the alignment
	// pipeline's metrics in the process-wide registry so /metrics is one
	// coherent snapshot.
	m serveMetrics
}

type serveMetrics struct {
	requests, rejected, timeouts, clientGone, failed *telemetry.Counter
	batchRequests, batchQueries                      *telemetry.Counter
	streamRequests                                   *telemetry.Counter
	searchRequests                                   *telemetry.Counter
	degraded, cacheHits                              *telemetry.Counter
	inflight                                         *telemetry.Gauge
	latency                                          *telemetry.Histogram
}

func newServer(cfg serverConfig) *server {
	if cfg.maxInflight < 1 {
		cfg.maxInflight = 1
	}
	if cfg.defaultTimeout <= 0 {
		cfg.defaultTimeout = serverDefaultTimeout
	}
	if cfg.maxTimeout <= 0 {
		cfg.maxTimeout = cfg.defaultTimeout
	}
	if cfg.maxHits <= 0 {
		cfg.maxHits = serverDefaultMaxHits
	}
	if cfg.maxBatch <= 0 {
		cfg.maxBatch = serverDefaultMaxBatch
	}
	if cfg.planeSource == "" {
		cfg.planeSource = "packed"
	}
	if cfg.cacheBytes > 0 {
		fabp.SetScanCacheCapacity(cfg.cacheBytes)
	}
	reg := telemetry.Default()
	return &server{
		cfg: cfg,
		adm: sched.NewAdmission(cfg.maxInflight, cfg.maxQueue),
		scan: func(ctx context.Context, req fabp.ScanRequest) (*fabp.ScanResult, error) {
			return fabp.Scan(ctx, req)
		},
		lookup: fabp.CachedScan,
		m: serveMetrics{
			requests:       reg.Counter("serve.requests"),
			rejected:       reg.Counter("serve.rejected.overload"),
			timeouts:       reg.Counter("serve.timeouts"),
			clientGone:     reg.Counter("serve.client.gone"),
			failed:         reg.Counter("serve.failed"),
			batchRequests:  reg.Counter("serve.batch.requests"),
			batchQueries:   reg.Counter("serve.batch.queries"),
			streamRequests: reg.Counter("serve.stream.requests"),
			searchRequests: reg.Counter("serve.search.requests"),
			degraded:       reg.Counter("serve.degraded"),
			cacheHits:      reg.Counter("serve.cache.hits"),
			inflight:       reg.Gauge("serve.inflight"),
			latency:        reg.Histogram("serve.latency"),
		},
	}
}

// handler builds the route table.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /align", s.handleAlign)
	mux.HandleFunc("POST /align/batch", s.handleAlignBatch)
	mux.HandleFunc("POST /align/stream", s.handleAlignStream)
	mux.HandleFunc("POST /search", s.handleSearch)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// alignRequest is the /align request body.
type alignRequest struct {
	// Query is the protein in one-letter codes (required).
	Query string `json:"query"`
	// ThresholdFrac is the hit threshold as a fraction of the maximum
	// score (default 0.8). Threshold is an absolute score instead;
	// setting both is a client error.
	ThresholdFrac *float64 `json:"threshold_frac,omitempty"`
	Threshold     *int     `json:"threshold,omitempty"`
	// Kernel names the alignment implementation: auto (default), scalar
	// or bitparallel.
	Kernel string `json:"kernel,omitempty"`
	// MaxHits caps the hits returned (default and ceiling: the server's
	// -max-hits).
	MaxHits int `json:"max_hits,omitempty"`
	// TimeoutMs bounds this request's scan (default: the server's
	// -timeout, capped at -max-timeout). The deadline is also what the
	// admission queue sheds against: a request that cannot finish within
	// it is answered 429 instead of burning a slot on a guaranteed 504.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// RetryBudget overrides the server's per-shard retry count for this
	// request (clamped to [0, 10]); nil inherits the server's -retries.
	RetryBudget *int `json:"retry_budget,omitempty"`
	// Partial opts this request into degraded completion: if shards still
	// fail after retries, respond 200 with the surviving hits,
	// degraded=true and the uncovered ranges, instead of a 5xx. Partial
	// responses are never served from or stored in the result cache.
	Partial bool `json:"partial,omitempty"`
}

// alignHit is one hit in the /align response.
type alignHit struct {
	Record      string `json:"record"`
	RecordIndex int    `json:"record_index"`
	Offset      int    `json:"offset"`
	Score       int    `json:"score"`
}

// failedRange is one uncovered window-start range of a degraded scan.
type failedRange struct {
	Lo    int    `json:"lo"`
	Hi    int    `json:"hi"`
	Error string `json:"error"`
}

// alignResponse is the /align response body.
type alignResponse struct {
	Residues  int        `json:"residues"`
	Elements  int        `json:"elements"`
	Threshold int        `json:"threshold"`
	MaxScore  int        `json:"max_score"`
	Hits      []alignHit `json:"hits"`
	Truncated bool       `json:"truncated"`
	ElapsedMs float64    `json:"elapsed_ms"`
	// Cache is the result's provenance: "hit" (served resident, no scan,
	// no admission slot), "shared" (joined an in-flight identical scan),
	// "miss" (this request scanned and seeded the cache), "bypass"
	// (cache disabled or ineligible). Empty when the scan hook is stubbed.
	Cache string `json:"cache,omitempty"`
	// Degraded marks a partial-mode response whose scan lost shards after
	// retries: Hits covers everything outside FailedRanges.
	Degraded     bool          `json:"degraded"`
	FailedRanges []failedRange `json:"failed_ranges,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// retryAfterSeconds rounds a shed hint up to whole seconds for the
// Retry-After header (minimum 1 — a zero hint is not actionable).
func retryAfterSeconds(d time.Duration) string {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// writeAdmitError answers a request the admission queue did not grant:
// ShedErrors become 429 + Retry-After, a deadline that expired while
// queued becomes 504, and a vanished client gets nothing.
func (s *server) writeAdmitError(w http.ResponseWriter, err error, timeout time.Duration) {
	var shed *sched.ShedError
	switch {
	case errors.As(err, &shed):
		s.m.rejected.Inc()
		w.Header().Set("Retry-After", retryAfterSeconds(shed.RetryAfter))
		writeError(w, http.StatusTooManyRequests, "%v", shed)
	case errors.Is(err, context.DeadlineExceeded):
		s.m.timeouts.Inc()
		writeError(w, http.StatusGatewayTimeout,
			"request deadline expired before admission (%s)", timeout)
	default:
		// Client went away while queued; nobody is reading the response.
		s.m.clientGone.Inc()
	}
}

// writeScanResult maps a Scan outcome onto the HTTP surface: clean and
// degraded results are 200s, the error taxonomy picks the status for the
// rest (ErrBadQuery/ErrBadOption → 400, deadline → 504, cancel → client
// gone, anything else → 500).
func (s *server) writeScanResult(w http.ResponseWriter, q *fabp.Query, res *fabp.ScanResult, err error, timeout time.Duration, t0 time.Time) {
	var pe *fabp.PartialError
	switch {
	case err == nil:
	case errors.As(err, &pe) && res != nil:
		// Degraded completion under partial mode: the hits are real, the
		// uncovered ranges are declared below. A 200, not a 5xx — the
		// client asked for exactly this contract.
		s.m.degraded.Inc()
	default:
		s.writeScanError(w, "scan", err, timeout)
		return
	}

	hits := make([]alignHit, 0, len(res.RecordHits))
	for _, h := range res.RecordHits {
		hits = append(hits, alignHit{
			Record:      h.RecordID,
			RecordIndex: h.RecordIndex,
			Offset:      h.Offset,
			Score:       h.Score,
		})
	}
	resp := alignResponse{
		Residues:  q.Residues(),
		Elements:  q.Elements(),
		Threshold: res.Threshold,
		MaxScore:  q.MaxScore(),
		Hits:      hits,
		Truncated: res.Truncated,
		Cache:     string(res.Cache),
		ElapsedMs: float64(time.Since(t0).Nanoseconds()) / 1e6,
	}
	if res.Degraded {
		resp.Degraded = true
		resp.FailedRanges = make([]failedRange, len(res.FailedRanges))
		for i, fr := range res.FailedRanges {
			resp.FailedRanges[i] = failedRange{Lo: fr.Lo, Hi: fr.Hi, Error: fr.Err.Error()}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// limits resolves a request's deadline and hit cap: a positive request
// value overrides -timeout and -max-hits, capped by -max-timeout and
// -max-hits.
func (s *server) limits(timeoutMs, maxHits int) (time.Duration, int) {
	timeout := s.cfg.defaultTimeout
	if timeoutMs > 0 {
		timeout = time.Duration(timeoutMs) * time.Millisecond
	}
	hits := s.cfg.maxHits
	if maxHits > 0 && maxHits < hits {
		hits = maxHits
	}
	return min(timeout, s.cfg.maxTimeout), hits
}

// writeScanError answers a failed scan through the error taxonomy:
// ErrBadQuery/ErrBadOption → 400, deadline → 504, cancel → client gone
// (no body), anything else → 500. what names the scan in the message.
func (s *server) writeScanError(w http.ResponseWriter, what string, err error, timeout time.Duration) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.m.timeouts.Inc()
		writeError(w, http.StatusGatewayTimeout, "%s exceeded its %s deadline", what, timeout)
	case errors.Is(err, context.Canceled):
		// Client went away; nobody is reading the response.
		s.m.clientGone.Inc()
	case errors.Is(err, fabp.ErrBadQuery), errors.Is(err, fabp.ErrBadOption):
		writeError(w, http.StatusBadRequest, "%v", err)
	default:
		s.m.failed.Inc()
		writeError(w, http.StatusInternalServerError, "%s failed: %v", what, err)
	}
}

func (s *server) handleAlign(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Inc()
	t0 := time.Now()
	defer func() { s.m.latency.Observe(time.Since(t0)) }()

	var req alignRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		writeError(w, http.StatusBadRequest, "missing query")
		return
	}
	q, err := fabp.NewQuery(req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid query: %v", err)
		return
	}
	kernel := fabp.KernelAuto
	if req.Kernel != "" {
		kernel, err = fabp.ParseKernel(req.Kernel)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	rp := s.cfg.retryPolicy
	if req.RetryBudget != nil {
		budget := *req.RetryBudget
		if budget < 0 {
			writeError(w, http.StatusBadRequest, "negative retry_budget %d", budget)
			return
		}
		if budget > serverMaxRetryBudget {
			budget = serverMaxRetryBudget
		}
		rp.MaxRetries = budget
	}
	timeout, maxHits := s.limits(req.TimeoutMs, req.MaxHits)
	sreq := fabp.ScanRequest{
		Query:       q,
		Database:    s.cfg.db,
		Kernel:      kernel,
		MaxHits:     maxHits,
		RetryPolicy: rp,
		Partial:     req.Partial,
	}
	switch {
	case req.Threshold != nil:
		sreq.Threshold = req.Threshold
	case req.ThresholdFrac != nil:
		sreq.ThresholdFrac = *req.ThresholdFrac
	}

	// Cache fast path: a resident result answers immediately, without an
	// admission slot — repeats cost a map lookup, not queue position.
	if res, ok := s.lookup(sreq); ok {
		s.m.cacheHits.Inc()
		s.writeScanResult(w, q, res, nil, timeout, t0)
		return
	}

	// The request context roots the scan: a client disconnect cancels it,
	// the per-request deadline bounds it, and a server drain (see main)
	// lets it finish before the listener closes. The same deadline drives
	// admission: infeasible requests are shed as 429, not queued into a
	// guaranteed 504.
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	if err := s.adm.Admit(ctx, 1); err != nil {
		s.writeAdmitError(w, err, timeout)
		return
	}
	s.m.inflight.Add(1)
	tScan := time.Now()
	res, err := s.scan(ctx, sreq)
	observed := time.Since(tScan)
	if err != nil {
		// Failed or aborted scans are not representative work; keep them
		// out of the admission cost estimate.
		observed = 0
	}
	s.adm.Release(1, observed)
	s.m.inflight.Add(-1)
	s.writeScanResult(w, q, res, err, timeout, t0)
}

// searchRequest is the /search request body: a TBLASTN-style protein
// search of the resident database through the Scan spine.
type searchRequest struct {
	// Query is the protein in one-letter codes (required).
	Query string `json:"query"`
	// MinScore is the raw BLOSUM62 HSP cutoff. Omitted selects the BLAST
	// default (35); an explicit 0 or negative value keeps every HSP.
	MinScore *int `json:"min_score,omitempty"`
	// TwoHit enables BLAST's two-hit seeding (default one-hit).
	TwoHit bool `json:"two_hit,omitempty"`
	// Frames limits the search to the first N translated frames
	// (3 = forward strand only; default 6 = full TBLASTN).
	Frames int `json:"frames,omitempty"`
	// MaxEValue, when positive, discards HSPs whose E-value exceeds it.
	MaxEValue float64 `json:"max_evalue,omitempty"`
	// MaxHits caps the HSPs returned (default and ceiling: the server's
	// -max-hits).
	MaxHits int `json:"max_hits,omitempty"`
	// TimeoutMs bounds this request's search (default: the server's
	// -timeout, capped at -max-timeout).
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// searchHSP is one HSP in the /search response.
type searchHSP struct {
	Frame    string  `json:"frame"`
	QStart   int     `json:"q_start"`
	QEnd     int     `json:"q_end"`
	SStart   int     `json:"s_start"`
	SEnd     int     `json:"s_end"`
	NucPos   int     `json:"nuc_pos"`
	Score    int     `json:"score"`
	BitScore float64 `json:"bit_score"`
	EValue   float64 `json:"evalue"`
}

// searchStats profiles the pipeline run behind a /search response.
type searchStats struct {
	IndexEntries int `json:"index_entries"`
	WordLookups  int `json:"word_lookups"`
	WordHits     int `json:"word_hits"`
	Extensions   int `json:"extensions"`
}

// searchResponse is the /search response body.
type searchResponse struct {
	Residues  int          `json:"residues"`
	HSPs      []searchHSP  `json:"hsps"`
	Truncated bool         `json:"truncated"`
	Cache     string       `json:"cache,omitempty"`
	ElapsedMs float64      `json:"elapsed_ms"`
	Stats     *searchStats `json:"stats,omitempty"`
}

// handleSearch serves POST /search: a protein query against all (or the
// forward) translated frames of the resident database, riding the same
// spine as /align — cache fast path before admission, one weighted slot
// while scanning, the per-request deadline shared between queue and scan.
func (s *server) handleSearch(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Inc()
	s.m.searchRequests.Inc()
	t0 := time.Now()
	defer func() { s.m.latency.Observe(time.Since(t0)) }()

	var req searchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		writeError(w, http.StatusBadRequest, "missing query")
		return
	}
	q, err := fabp.NewQuery(req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid query: %v", err)
		return
	}
	opts := fabp.ProteinSearchOptions{
		Threads:   runtime.GOMAXPROCS(0),
		Frames:    req.Frames,
		TwoHit:    req.TwoHit,
		MaxEValue: req.MaxEValue,
	}
	if req.MinScore != nil {
		// The wire contract is simpler than the library's: any explicit
		// non-positive min_score means "keep every HSP".
		if *req.MinScore <= 0 {
			opts.MinScore = fabp.MinScoreAll
		} else {
			opts.MinScore = *req.MinScore
		}
	}
	timeout, maxHits := s.limits(req.TimeoutMs, req.MaxHits)
	sreq := fabp.ScanRequest{
		Query:         q,
		Database:      s.cfg.db,
		MaxHits:       maxHits,
		ProteinSearch: &opts,
	}

	// Cache fast path: a resident result answers without an admission
	// slot. Thread count is not part of the protein cache key, so any
	// earlier identical search serves this one.
	if res, ok := s.lookup(sreq); ok {
		s.m.cacheHits.Inc()
		s.writeSearchResult(w, q, res, nil, timeout, t0)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	if err := s.adm.Admit(ctx, 1); err != nil {
		s.writeAdmitError(w, err, timeout)
		return
	}
	s.m.inflight.Add(1)
	tScan := time.Now()
	res, err := s.scan(ctx, sreq)
	observed := time.Since(tScan)
	if err != nil {
		observed = 0
	}
	s.adm.Release(1, observed)
	s.m.inflight.Add(-1)
	s.writeSearchResult(w, q, res, err, timeout, t0)
}

// writeSearchResult maps a protein-search outcome onto the HTTP surface
// with the same error taxonomy as /align (deadline → 504, cancel →
// client gone, bad input → 400, the rest → 500).
func (s *server) writeSearchResult(w http.ResponseWriter, q *fabp.Query, res *fabp.ScanResult, err error, timeout time.Duration, t0 time.Time) {
	if err != nil {
		s.writeScanError(w, "search", err, timeout)
		return
	}

	hsps := make([]searchHSP, len(res.HSPs))
	for i, h := range res.HSPs {
		hsps[i] = searchHSP{
			Frame:  h.Frame,
			QStart: h.QStart, QEnd: h.QEnd,
			SStart: h.SStart, SEnd: h.SEnd,
			NucPos:   h.NucPos,
			Score:    h.Score,
			BitScore: h.BitScore,
			EValue:   h.EValue,
		}
	}
	resp := searchResponse{
		Residues:  q.Residues(),
		HSPs:      hsps,
		Truncated: res.Truncated,
		Cache:     string(res.Cache),
		ElapsedMs: float64(time.Since(t0).Nanoseconds()) / 1e6,
	}
	if st := res.ProteinStats; st != nil {
		resp.Stats = &searchStats{
			IndexEntries: st.IndexEntries,
			WordLookups:  st.WordLookups,
			WordHits:     st.WordHits,
			Extensions:   st.Extensions,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// batchAlignRequest is the /align/batch request body: one fused scan of
// the resident database for every query, all sharing one threshold
// fraction.
type batchAlignRequest struct {
	// Queries are proteins in one-letter codes (required, at most the
	// server's -max-batch).
	Queries []string `json:"queries"`
	// ThresholdFrac is every query's hit threshold as a fraction of its
	// own maximum score (default 0.8).
	ThresholdFrac *float64 `json:"threshold_frac,omitempty"`
	// MaxHits caps the hits returned per query (default and ceiling: the
	// server's -max-hits).
	MaxHits int `json:"max_hits,omitempty"`
	// TimeoutMs bounds the whole batch scan (default: the server's
	// -timeout, capped at -max-timeout).
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// parseBatch parses the proteins and threshold fraction of a batch or
// stream request and counts its queries on serve.batch.queries. On the
// first problem it answers 400 itself and reports false: an empty or
// over-wide batch, a blank or invalid protein, or a fraction outside
// (0, 1] — an explicit 0 is a client error here, not the 0.8 default.
func (s *server) parseBatch(w http.ResponseWriter, proteins []string, frac float64) ([]*fabp.Query, bool) {
	if len(proteins) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch: at least one query is required")
		return nil, false
	}
	if len(proteins) > s.cfg.maxBatch {
		writeError(w, http.StatusBadRequest,
			"batch of %d queries exceeds the server's limit of %d", len(proteins), s.cfg.maxBatch)
		return nil, false
	}
	queries := make([]*fabp.Query, len(proteins))
	for i, qs := range proteins {
		if strings.TrimSpace(qs) == "" {
			writeError(w, http.StatusBadRequest, "query %d is empty", i)
			return nil, false
		}
		q, err := fabp.NewQuery(qs)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid query %d: %v", i, err)
			return nil, false
		}
		queries[i] = q
	}
	if frac <= 0 || frac > 1 || frac != frac {
		writeError(w, http.StatusBadRequest, "threshold_frac %v outside (0,1]", frac)
		return nil, false
	}
	s.m.batchQueries.Add(uint64(len(queries)))
	return queries, true
}

// batchQueryResult is one query's slice of the /align/batch response.
type batchQueryResult struct {
	Residues  int        `json:"residues"`
	Elements  int        `json:"elements"`
	MaxScore  int        `json:"max_score"`
	Hits      []alignHit `json:"hits"`
	Truncated bool       `json:"truncated"`
}

// batchAlignResponse is the /align/batch response body; Queries is
// index-aligned with the request's queries.
type batchAlignResponse struct {
	Queries   []batchQueryResult `json:"queries"`
	ElapsedMs float64            `json:"elapsed_ms"`
}

// handleAlignBatch serves POST /align/batch: the whole batch scans the
// resident database in one fused pass (each reference tile read once for
// every query). The body is parsed before admission so the request's
// weight is known up front: a K-query batch asks the admission queue for
// K units atomically — the admission currency is scan work, not request
// count, so a batch can't slip K queries' worth of load past a limit
// tuned for single scans. Batches that don't fit are shed with 429 (or
// queued whole when -max-queue allows); fused results stay uncached —
// the batch, not the query, is the unit of work here.
func (s *server) handleAlignBatch(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Inc()
	s.m.batchRequests.Inc()
	t0 := time.Now()
	defer func() { s.m.latency.Observe(time.Since(t0)) }()

	var req batchAlignRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	frac := 0.8
	if req.ThresholdFrac != nil {
		frac = *req.ThresholdFrac
	}
	queries, ok := s.parseBatch(w, req.Queries, frac)
	if !ok {
		return
	}

	timeout, maxHits := s.limits(req.TimeoutMs, req.MaxHits)
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// All-or-nothing weighted admission: the queue clamps an over-wide
	// batch to full capacity ("everything") and grants atomically.
	weight := len(queries)
	if err := s.adm.Admit(ctx, weight); err != nil {
		s.writeAdmitError(w, err, timeout)
		return
	}
	s.m.inflight.Add(int64(weight))
	tScan := time.Now()
	res, err := s.scan(ctx, fabp.ScanRequest{
		Queries:       queries,
		Database:      s.cfg.db,
		ThresholdFrac: frac,
		RetryPolicy:   s.cfg.retryPolicy,
	})
	observed := time.Since(tScan)
	if err != nil {
		observed = 0
	}
	s.adm.Release(weight, observed)
	s.m.inflight.Add(-int64(weight))
	if err != nil {
		s.writeScanError(w, "batch scan", err, timeout)
		return
	}

	resp := batchAlignResponse{Queries: make([]batchQueryResult, len(queries))}
	for i, qh := range res.PerQuery {
		hits := qh.RecordHits
		qr := &resp.Queries[i]
		qr.Residues = queries[i].Residues()
		qr.Elements = queries[i].Elements()
		qr.MaxScore = queries[i].MaxScore()
		if len(hits) > maxHits {
			hits = hits[:maxHits]
			qr.Truncated = true
		}
		qr.Hits = make([]alignHit, len(hits))
		for j, h := range hits {
			qr.Hits[j] = alignHit{
				Record:      h.RecordID,
				RecordIndex: h.RecordIndex,
				Offset:      h.Offset,
				Score:       h.Score,
			}
		}
	}
	resp.ElapsedMs = float64(time.Since(t0).Nanoseconds()) / 1e6
	writeJSON(w, http.StatusOK, resp)
}

// streamHit is one NDJSON hit line of the /align/stream response: the
// query's index in the request, the hit's global position in the streamed
// reference, and its score.
type streamHit struct {
	Query int `json:"query"`
	Pos   int `json:"pos"`
	Score int `json:"score"`
}

// streamTrailer is the final NDJSON line of the /align/stream response.
// Done is false when the scan ended early; Error then says why, and every
// hit line already written remains valid (they cover the stream prefix).
type streamTrailer struct {
	Done      bool    `json:"done"`
	Hits      int     `json:"hits"`
	Truncated bool    `json:"truncated"`
	ElapsedMs float64 `json:"elapsed_ms"`
	Error     string  `json:"error,omitempty"`
}

// handleAlignStream serves POST /align/stream: the request body is a raw
// nucleotide stream (letters, whitespace tolerated, unbounded length) and
// the query parameters name K proteins; the server packs each chunk of the
// body into bit-planes once and the fused batch kernel scores all K
// queries from those shared plane words — K queries cost one read+pack per
// chunk. Hits stream back as NDJSON lines as each chunk completes,
// followed by one trailer line. Like /align/batch, the request weighs K
// admission units; unlike it, hits carry stream positions, not record
// attributions — the reference is the client's stream, not the resident
// database. Errors after the first hit line surface in the trailer (the
// status line is already committed); earlier errors use the normal JSON
// error surface.
func (s *server) handleAlignStream(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Inc()
	s.m.streamRequests.Inc()

	params := r.URL.Query()
	frac := 0.8
	if v := params.Get("threshold_frac"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad threshold_frac: %v", err)
			return
		}
		frac = f
	}
	queries, ok := s.parseBatch(w, params["query"], frac)
	if !ok {
		return
	}
	var reqMaxHits, reqTimeoutMs int
	if v := params.Get("max_hits"); v != "" {
		mh, err := strconv.Atoi(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad max_hits: %v", err)
			return
		}
		reqMaxHits = mh
	}
	if v := params.Get("timeout_ms"); v != "" {
		ms, err := strconv.Atoi(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad timeout_ms: %v", err)
			return
		}
		reqTimeoutMs = ms
	}
	timeout, maxHits := s.limits(reqTimeoutMs, reqMaxHits)

	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	weight := len(queries)
	if err := s.adm.Admit(ctx, weight); err != nil {
		s.writeAdmitError(w, err, timeout)
		return
	}
	s.m.inflight.Add(int64(weight))
	t0 := time.Now()
	defer func() { s.m.latency.Observe(time.Since(t0)) }()

	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	counts := make([]int, len(queries))
	total, wrote, truncated := 0, false, false
	emit := func(qi int, h fabp.Hit) error {
		if counts[qi] >= maxHits {
			truncated = true
			return nil
		}
		counts[qi]++
		total++
		if !wrote {
			// First hit commits the streaming response.
			w.Header().Set("Content-Type", "application/x-ndjson")
			wrote = true
		}
		if eerr := enc.Encode(streamHit{Query: qi, Pos: h.Pos, Score: h.Score}); eerr != nil {
			return eerr
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	_, err := s.scan(ctx, fabp.ScanRequest{
		Queries:       queries,
		Stream:        r.Body,
		Emit:          emit,
		ThresholdFrac: frac,
		RetryPolicy:   s.cfg.retryPolicy,
	})
	observed := time.Since(t0)
	if err != nil {
		observed = 0
	}
	s.adm.Release(weight, observed)
	s.m.inflight.Add(-int64(weight))

	if err != nil && !wrote {
		// Nothing streamed yet: the full JSON error surface is still open.
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			s.m.timeouts.Inc()
			writeError(w, http.StatusGatewayTimeout, "stream scan exceeded its %s deadline", timeout)
		case errors.Is(err, context.Canceled):
			s.m.clientGone.Inc()
		default:
			// Stream scans fail on what the client sent — a bad byte in the
			// stream, a bad fraction — so the error is the client's to fix.
			s.m.failed.Inc()
			writeError(w, http.StatusBadRequest, "stream scan failed: %v", err)
		}
		return
	}
	trailer := streamTrailer{
		Done:      err == nil,
		Hits:      total,
		Truncated: truncated,
		ElapsedMs: float64(time.Since(t0).Nanoseconds()) / 1e6,
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			s.m.clientGone.Inc()
			return // nobody is reading; skip the trailer
		}
		if errors.Is(err, context.DeadlineExceeded) {
			s.m.timeouts.Inc()
		} else {
			s.m.failed.Inc()
		}
		trailer.Error = err.Error()
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = enc.Encode(trailer)
}

// healthzResponse is the /healthz body: liveness plus the shape of the
// resident database, its warm-start state, and the admission/cache
// posture.
type healthzResponse struct {
	Status   string `json:"status"`
	Records  int    `json:"records"`
	LengthNt int    `json:"length_nt"`
	Inflight int    `json:"inflight"`
	Capacity int    `json:"capacity"`
	// QueueDepth is how many admitted-pending requests are waiting right
	// now (0 when -max-queue is 0, the immediate-shed configuration).
	QueueDepth int `json:"queue_depth"`
	// CacheCapacityBytes is the scan-result cache bound (0 = disabled);
	// CacheResidentBytes is its current footprint.
	CacheCapacityBytes int64 `json:"cache_capacity_bytes"`
	CacheResidentBytes int64 `json:"cache_resident_bytes"`
	// Planes names where the bit-planes came from at startup ("persisted"
	// from a v2 file, "packed" by this process); PlanesResident reports
	// whether they are in the shared cache right now — the readiness
	// signal that the first query will not pay packing latency.
	Planes         string `json:"planes"`
	PlanesResident bool   `json:"planes_resident"`
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	cs := fabp.ScanCacheSnapshot()
	writeJSON(w, http.StatusOK, healthzResponse{
		Status:             "ok",
		Records:            s.cfg.db.NumRecords(),
		LengthNt:           s.cfg.db.Len(),
		Inflight:           s.adm.Held(),
		Capacity:           s.adm.Capacity(),
		QueueDepth:         s.adm.QueueDepth(),
		CacheCapacityBytes: cs.CapacityBytes,
		CacheResidentBytes: cs.ResidentBytes,
		Planes:             s.cfg.planeSource,
		PlanesResident:     s.cfg.db.PlanesResident(),
	})
}

// handleMetrics serves the process-wide telemetry snapshot as expvar-style
// JSON: the alignment pipeline's counters (align.*, scan.*, pool.*,
// cache.*, rcache.*, admission.*) plus the serve.* layer registered here.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	b, err := json.MarshalIndent(fabp.DefaultMetrics(), "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, "snapshot: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(b)
	_, _ = w.Write([]byte("\n"))
}

// logf is the server's log hook (swappable in tests to keep output quiet).
var logf = log.Printf
