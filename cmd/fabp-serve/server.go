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

// handler builds the route table: each scan route is one parser on the
// shared route lifecycle.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /align", s.route(nil, s.parseAlign))
	mux.HandleFunc("POST /align/batch", s.route(s.m.batchRequests, s.parseAlignBatch))
	mux.HandleFunc("POST /align/stream", s.route(s.m.streamRequests, s.parseAlignStream))
	mux.HandleFunc("POST /search", s.route(s.m.searchRequests, s.parseSearch))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// call is one decoded and validated scan request: what the lifecycle
// runs, and how the route answers the outcome.
type call struct {
	req fabp.ScanRequest
	// timeout is the request's deadline: the admission queue sheds
	// against it and the scan runs under it.
	timeout time.Duration
	// what names the scan in error messages.
	what string
	// write answers the outcome of the scan or cache hit of a request
	// that arrived at t0. An error it hands back is answered through the
	// error taxonomy (writeScanError).
	write func(w http.ResponseWriter, res *fabp.ScanResult, err error, t0 time.Time) error
}

// route is the one lifecycle of every scan route: count the request on
// serve.requests and on routeRequests (when set), parse it, probe the
// result cache, admit it under its deadline, scan, release, and hand the
// outcome to the route's writer. serve.latency observes every answer from
// arrival — refusals, sheds and cache hits included.
func (s *server) route(routeRequests *telemetry.Counter, parse func(http.ResponseWriter, *http.Request) (call, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		s.m.requests.Inc()
		routeRequests.Inc()
		defer func() { s.m.latency.Observe(time.Since(t0)) }()

		c, err := parse(w, r)
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &tooBig):
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxBodyBytes)
			return
		case err != nil:
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}

		// Cache fast path: a resident result answers without an admission
		// slot — repeats cost a map lookup, not queue position. CachedScan
		// refuses every cache-ineligible plan (batch, stream, partial).
		res, hit := s.lookup(c.req)
		if hit {
			s.m.cacheHits.Inc()
		} else {
			// The request context roots the scan: a client disconnect
			// cancels it, the deadline bounds it, and a server drain (see
			// main) lets it finish before the listener closes. The same
			// deadline drives admission: infeasible requests are shed as
			// 429 + Retry-After, not queued into a guaranteed 504, and a
			// deadline that expires while queued is a 504.
			ctx, cancel := context.WithTimeout(r.Context(), c.timeout)
			defer cancel()
			// The request weighs its scan work: 1, or K for a K-query batch
			// or stream, so a batch cannot slip K queries' worth of load
			// past a limit tuned for single scans. The queue grants all K
			// atomically, clamping an over-wide batch to full capacity.
			weight := max(1, len(c.req.Queries))
			if err := s.adm.Admit(ctx, weight); err != nil {
				var shed *sched.ShedError
				switch {
				case errors.As(err, &shed):
					s.m.rejected.Inc()
					w.Header().Set("Retry-After", retryAfterSeconds(shed.RetryAfter))
					writeError(w, http.StatusTooManyRequests, "%v", shed)
				case errors.Is(err, context.DeadlineExceeded):
					s.m.timeouts.Inc()
					writeError(w, http.StatusGatewayTimeout,
						"request deadline expired before admission (%s)", c.timeout)
				default:
					// Client went away while queued; nobody is reading the
					// response.
					s.m.clientGone.Inc()
				}
				return
			}
			s.m.inflight.Add(int64(weight))
			tScan := time.Now()
			res, err = s.scan(ctx, c.req)
			observed := time.Since(tScan)
			if err != nil {
				// Failed or aborted scans are not representative work; keep
				// them out of the admission cost estimate.
				observed = 0
			}
			s.adm.Release(weight, observed)
			s.m.inflight.Add(-int64(weight))
		}
		if err := c.write(w, res, err, t0); err != nil {
			s.writeScanError(w, c.what, err, c.timeout)
		}
	}
}

// alignRequest is the /align request body.
type alignRequest struct {
	// Query is the protein in one-letter codes (required).
	Query string `json:"query"`
	// ThresholdFrac is the hit threshold as a fraction of the maximum
	// score, in (0, 1] (default 0.8). Threshold is an absolute score
	// instead; setting both is a client error.
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

// maxBodyBytes bounds the JSON body of /align, /align/batch and /search.
// The largest legal request, a -max-batch batch of long queries, fits
// far below it; a larger body is refused with 413 before it is buffered.
const maxBodyBytes = 4 << 20

// maxRequestResidues caps the residues a request's queries hold in total:
// /align and /search carry one query, /align/batch and /align/stream up
// to -max-batch. Encoding a query and compiling its kernel cost memory and
// time in proportion to its length (about 220 MiB and half a second for a
// million residues) before any scan starts, and maxBodyBytes alone admits
// a query of four million. The cap sits above titin, the longest known
// protein (34 350 aa).
const maxRequestResidues = 1 << 16

// checkResidues refuses proteins whose residues exceed maxRequestResidues
// in total. It counts letters the way the query parser does (whitespace
// skipped) and runs before any query is encoded.
func checkResidues(proteins ...string) error {
	n := 0
	for _, p := range proteins {
		n += len(p) - strings.Count(p, " ") - strings.Count(p, "\t") -
			strings.Count(p, "\n") - strings.Count(p, "\r")
	}
	if n > maxRequestResidues {
		return fmt.Errorf("request holds %d residues, above the server's limit of %d", n, maxRequestResidues)
	}
	return nil
}

// decodeBody decodes a JSON request body of at most maxBodyBytes into v.
// The error of a larger body wraps *http.MaxBytesError.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
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

// parseAlign parses POST /align: one query against the resident database.
func (s *server) parseAlign(w http.ResponseWriter, r *http.Request) (call, error) {
	var req alignRequest
	if err := decodeBody(w, r, &req); err != nil {
		return call{}, err
	}
	if strings.TrimSpace(req.Query) == "" {
		return call{}, errors.New("missing query")
	}
	if err := checkResidues(req.Query); err != nil {
		return call{}, err
	}
	q, err := fabp.NewQuery(req.Query)
	if err != nil {
		return call{}, fmt.Errorf("invalid query: %v", err)
	}
	kernel := fabp.KernelAuto
	if req.Kernel != "" {
		if kernel, err = fabp.ParseKernel(req.Kernel); err != nil {
			return call{}, err
		}
	}
	rp := s.cfg.retryPolicy
	if req.RetryBudget != nil {
		budget := *req.RetryBudget
		if budget < 0 {
			return call{}, fmt.Errorf("negative retry_budget %d", budget)
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
		Threshold:   req.Threshold,
		Kernel:      kernel,
		MaxHits:     maxHits,
		RetryPolicy: rp,
		Partial:     req.Partial,
	}
	// Both threshold fields pass through: setting both is the library's
	// ErrBadOption, a 400.
	if req.ThresholdFrac != nil {
		if err := checkFrac(*req.ThresholdFrac); err != nil {
			return call{}, err
		}
		sreq.ThresholdFrac = *req.ThresholdFrac
	}
	return call{req: sreq, timeout: timeout, what: "scan",
		write: func(w http.ResponseWriter, res *fabp.ScanResult, err error, t0 time.Time) error {
			var pe *fabp.PartialError
			switch {
			case err == nil:
			case errors.As(err, &pe) && res != nil:
				// Degraded completion under partial mode: the hits are real,
				// the uncovered ranges are declared below. A 200, not a 5xx —
				// the client asked for exactly this contract.
				s.m.degraded.Inc()
			default:
				return err
			}
			resp := alignResponse{
				Residues:  q.Residues(),
				Elements:  q.Elements(),
				Threshold: res.Threshold,
				MaxScore:  q.MaxScore(),
				Hits:      alignHits(res.RecordHits),
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
			return nil
		},
	}, nil
}

// alignHits converts record hits to their wire form (never nil, so an
// empty list encodes as []).
func alignHits(hits []fabp.RecordHit) []alignHit {
	out := make([]alignHit, len(hits))
	for i, h := range hits {
		out[i] = alignHit{
			Record:      h.RecordID,
			RecordIndex: h.RecordIndex,
			Offset:      h.Offset,
			Score:       h.Score,
		}
	}
	return out
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

// searchHSP is one HSP in the /search response: fabp.HSP field for
// field, so a conversion renders it.
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

// parseSearch parses POST /search: a protein query against all (or the
// forward) translated frames of the resident database. Thread count is
// not part of the protein cache key, so any earlier identical search
// serves this one from the cache.
func (s *server) parseSearch(w http.ResponseWriter, r *http.Request) (call, error) {
	var req searchRequest
	if err := decodeBody(w, r, &req); err != nil {
		return call{}, err
	}
	if strings.TrimSpace(req.Query) == "" {
		return call{}, errors.New("missing query")
	}
	if err := checkResidues(req.Query); err != nil {
		return call{}, err
	}
	q, err := fabp.NewQuery(req.Query)
	if err != nil {
		return call{}, fmt.Errorf("invalid query: %v", err)
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
	return call{req: sreq, timeout: timeout, what: "search",
		write: func(w http.ResponseWriter, res *fabp.ScanResult, err error, t0 time.Time) error {
			if err != nil {
				return err
			}
			resp := searchResponse{
				Residues:  q.Residues(),
				HSPs:      make([]searchHSP, len(res.HSPs)),
				Truncated: res.Truncated,
				Cache:     string(res.Cache),
				ElapsedMs: float64(time.Since(t0).Nanoseconds()) / 1e6,
			}
			for i, h := range res.HSPs {
				resp.HSPs[i] = searchHSP(h)
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
			return nil
		},
	}, nil
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

// parseQueries parses the proteins and threshold fraction of a batch or
// stream request and counts its queries on serve.batch.queries. It
// refuses an empty or over-wide batch, one over maxRequestResidues, a
// blank or invalid protein, and a fraction outside (0, 1] — an explicit 0
// is a client error here, not the 0.8 default.
func (s *server) parseQueries(proteins []string, frac float64) ([]*fabp.Query, error) {
	if len(proteins) == 0 {
		return nil, errors.New("empty batch: at least one query is required")
	}
	if len(proteins) > s.cfg.maxBatch {
		return nil, fmt.Errorf("batch of %d queries exceeds the server's limit of %d", len(proteins), s.cfg.maxBatch)
	}
	if err := checkResidues(proteins...); err != nil {
		return nil, err
	}
	queries := make([]*fabp.Query, len(proteins))
	for i, qs := range proteins {
		if strings.TrimSpace(qs) == "" {
			return nil, fmt.Errorf("query %d is empty", i)
		}
		q, err := fabp.NewQuery(qs)
		if err != nil {
			return nil, fmt.Errorf("invalid query %d: %v", i, err)
		}
		queries[i] = q
	}
	if err := checkFrac(frac); err != nil {
		return nil, err
	}
	s.m.batchQueries.Add(uint64(len(queries)))
	return queries, nil
}

// checkFrac refuses a threshold fraction outside (0, 1], NaN included.
// The library reads a zero fraction as its 0.8 default, so an explicit
// 0 must be refused here or it would silently mean 0.8.
func checkFrac(frac float64) error {
	if frac <= 0 || frac > 1 || frac != frac {
		return fmt.Errorf("threshold_frac %v outside (0,1]", frac)
	}
	return nil
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

// parseAlignBatch parses POST /align/batch: the whole batch scans the
// resident database in one fused pass (each reference tile read once for
// every query) at weight K. Fused results stay uncached — the batch, not
// the query, is the unit of work here.
func (s *server) parseAlignBatch(w http.ResponseWriter, r *http.Request) (call, error) {
	var req batchAlignRequest
	if err := decodeBody(w, r, &req); err != nil {
		return call{}, err
	}
	frac := 0.8
	if req.ThresholdFrac != nil {
		frac = *req.ThresholdFrac
	}
	queries, err := s.parseQueries(req.Queries, frac)
	if err != nil {
		return call{}, err
	}
	timeout, maxHits := s.limits(req.TimeoutMs, req.MaxHits)
	sreq := fabp.ScanRequest{
		Queries:       queries,
		Database:      s.cfg.db,
		ThresholdFrac: frac,
		RetryPolicy:   s.cfg.retryPolicy,
	}
	return call{req: sreq, timeout: timeout, what: "batch scan",
		write: func(w http.ResponseWriter, res *fabp.ScanResult, err error, t0 time.Time) error {
			if err != nil {
				return err
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
				qr.Hits = alignHits(hits)
			}
			resp.ElapsedMs = float64(time.Since(t0).Nanoseconds()) / 1e6
			writeJSON(w, http.StatusOK, resp)
			return nil
		},
	}, nil
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
// ElapsedMs counts from the request's arrival, queue wait included.
type streamTrailer struct {
	Done      bool    `json:"done"`
	Hits      int     `json:"hits"`
	Truncated bool    `json:"truncated"`
	ElapsedMs float64 `json:"elapsed_ms"`
	Error     string  `json:"error,omitempty"`
}

// parseAlignStream parses POST /align/stream: the request body is a raw
// nucleotide stream (letters, whitespace tolerated, unbounded length) and
// the query parameters name K proteins; the server packs each chunk of the
// body into bit-planes once and the fused batch kernel scores all K
// queries from those shared plane words — K queries cost one read+pack per
// chunk. Hits stream back as NDJSON lines as each chunk completes,
// followed by one trailer line. Like /align/batch, the request weighs K
// admission units; unlike it, hits carry stream positions, not record
// attributions — the reference is the client's stream, not the resident
// database. Errors before the first hit line take the JSON error taxonomy
// (a bad byte is 400, a failed shard 500); later ones surface in the
// trailer, since the status line is already committed.
func (s *server) parseAlignStream(w http.ResponseWriter, r *http.Request) (call, error) {
	params := r.URL.Query()
	frac := 0.8
	if v := params.Get("threshold_frac"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return call{}, fmt.Errorf("bad threshold_frac: %v", err)
		}
		frac = f
	}
	queries, err := s.parseQueries(params["query"], frac)
	if err != nil {
		return call{}, err
	}
	var reqMaxHits, reqTimeoutMs int
	if v := params.Get("max_hits"); v != "" {
		mh, err := strconv.Atoi(v)
		if err != nil {
			return call{}, fmt.Errorf("bad max_hits: %v", err)
		}
		reqMaxHits = mh
	}
	if v := params.Get("timeout_ms"); v != "" {
		ms, err := strconv.Atoi(v)
		if err != nil {
			return call{}, fmt.Errorf("bad timeout_ms: %v", err)
		}
		reqTimeoutMs = ms
	}
	timeout, maxHits := s.limits(reqTimeoutMs, reqMaxHits)

	// Each hit is one NDJSON line, at most maxHits per query; the first
	// line commits the 200.
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
			w.Header().Set("Content-Type", "application/x-ndjson")
			wrote = true
		}
		if err := enc.Encode(streamHit{Query: qi, Pos: h.Pos, Score: h.Score}); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	sreq := fabp.ScanRequest{
		Queries:       queries,
		Stream:        r.Body,
		Emit:          emit,
		ThresholdFrac: frac,
		RetryPolicy:   s.cfg.retryPolicy,
	}
	return call{req: sreq, timeout: timeout, what: "stream scan",
		write: func(w http.ResponseWriter, _ *fabp.ScanResult, err error, t0 time.Time) error {
			if err != nil && !wrote {
				return err // nothing streamed yet: the JSON error surface is open
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
					return nil // nobody is reading; skip the trailer
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
			return nil
		},
	}, nil
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
	// whether the database holds them right now — the readiness signal
	// that the next query will not pay packing latency.
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
// rcache.*, admission.*) plus the serve.* layer registered here.
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
