package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"fabp"
	"fabp/internal/faultinject"
)

// testServer builds a server over a small synthetic database with a
// planted gene, so align requests have real hits to find.
func testServer(t *testing.T, cfg serverConfig) (*server, string) {
	t.Helper()
	ref, genes := fabp.SyntheticReference(7, 20_000, 2, 30)
	db, err := fabp.DatabaseFromReference("synt", ref)
	if err != nil {
		t.Fatal(err)
	}
	cfg.db = db
	return newServer(cfg), genes[0].Protein
}

func postAlign(t *testing.T, url string, req alignRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/align", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestAlignEndpoint(t *testing.T) {
	s, protein := testServer(t, serverConfig{maxInflight: 4})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	resp, body := postAlign(t, ts.URL, alignRequest{Query: protein})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("align status %d: %s", resp.StatusCode, body)
	}
	var res alignResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("bad response JSON: %v\n%s", err, body)
	}
	if len(res.Hits) == 0 {
		t.Fatal("planted gene not found")
	}
	if res.MaxScore != res.Elements || res.Threshold <= 0 {
		t.Errorf("implausible response: %+v", res)
	}
	for _, h := range res.Hits {
		if h.Record != "synt" || h.Score < res.Threshold {
			t.Errorf("bad hit %+v", h)
		}
	}

	// healthz reports the resident database.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var hz healthzResponse
	if err := json.NewDecoder(hr.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.Records != 1 || hz.LengthNt != 20_000 {
		t.Errorf("healthz = %+v", hz)
	}

	// metrics is valid JSON and carries both the serve layer and the
	// alignment pipeline.
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.NewDecoder(mr.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["serve.requests"] == 0 {
		t.Error("metrics missing serve.requests")
	}
	if snap.Counters["align.queries.started"] == 0 {
		t.Error("metrics missing align.queries.started")
	}
}

func TestAlignValidation(t *testing.T) {
	s, _ := testServer(t, serverConfig{maxInflight: 2})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	cases := []struct {
		name string
		req  alignRequest
	}{
		{"empty query", alignRequest{}},
		{"bad residues", alignRequest{Query: "MK123"}},
		{"bad kernel", alignRequest{Query: "MKWVTF", Kernel: "quantum"}},
		{"bad fraction", alignRequest{Query: "MKWVTF", ThresholdFrac: ptr(1.5)}},
	}
	for _, tc := range cases {
		resp, body := postAlign(t, ts.URL, tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", tc.name, resp.StatusCode, body)
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body not JSON: %s", tc.name, body)
		}
	}
}

func ptr[T any](v T) *T { return &v }

func postBatch(t *testing.T, url string, req batchAlignRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/align/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestAlignBatchEndpoint drives the fused batch endpoint through the real
// scan path and cross-checks every query's hits against the single-query
// endpoint (the fused path must be bit-exact with per-query scans).
func TestAlignBatchEndpoint(t *testing.T) {
	ref, genes := fabp.SyntheticReference(7, 20_000, 3, 30)
	db, err := fabp.DatabaseFromReference("synt", ref)
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(serverConfig{db: db, maxInflight: 8})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	var proteins []string
	for _, g := range genes {
		proteins = append(proteins, g.Protein)
	}
	resp, body := postBatch(t, ts.URL, batchAlignRequest{
		Queries: proteins, ThresholdFrac: ptr(0.9),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var res batchAlignResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("bad response JSON: %v\n%s", err, body)
	}
	if len(res.Queries) != len(proteins) {
		t.Fatalf("%d query results, want %d", len(res.Queries), len(proteins))
	}
	for i, p := range proteins {
		qr := res.Queries[i]
		if len(qr.Hits) == 0 {
			t.Errorf("query %d found no hits", i)
		}
		// Bit-exactness: the single-query endpoint must agree.
		sr, sbody := postAlign(t, ts.URL, alignRequest{Query: p, ThresholdFrac: ptr(0.9)})
		if sr.StatusCode != http.StatusOK {
			t.Fatalf("single status %d: %s", sr.StatusCode, sbody)
		}
		var single alignResponse
		if err := json.Unmarshal(sbody, &single); err != nil {
			t.Fatal(err)
		}
		if len(single.Hits) != len(qr.Hits) {
			t.Fatalf("query %d: batch %d hits, single %d", i, len(qr.Hits), len(single.Hits))
		}
		for j := range single.Hits {
			if single.Hits[j] != qr.Hits[j] {
				t.Errorf("query %d hit %d: batch %+v, single %+v", i, j, qr.Hits[j], single.Hits[j])
			}
		}
	}

	// Per-query truncation honors max_hits.
	resp, body = postBatch(t, ts.URL, batchAlignRequest{
		Queries: proteins, ThresholdFrac: ptr(0.5), MaxHits: 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("truncated batch status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	for i, qr := range res.Queries {
		if len(qr.Hits) > 1 {
			t.Errorf("query %d returned %d hits over the cap", i, len(qr.Hits))
		}
		if len(qr.Hits) == 1 && !qr.Truncated {
			t.Errorf("query %d capped but not flagged truncated", i)
		}
	}

	// The serve layer accounted the batch.
	snap := fabp.DefaultMetrics().Snapshot()
	if snap.Counters["serve.batch.requests"] == 0 || snap.Counters["serve.batch.queries"] == 0 {
		t.Error("serve.batch.* counters missing")
	}
}

func TestAlignBatchValidation(t *testing.T) {
	s, protein := testServer(t, serverConfig{maxInflight: 2, maxBatch: 2})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	cases := []struct {
		name string
		req  batchAlignRequest
	}{
		{"empty batch", batchAlignRequest{}},
		{"blank query", batchAlignRequest{Queries: []string{protein, "  "}}},
		{"bad residues", batchAlignRequest{Queries: []string{"MK123"}}},
		{"bad fraction", batchAlignRequest{Queries: []string{protein}, ThresholdFrac: ptr(1.5)}},
		{"over max-batch", batchAlignRequest{Queries: []string{protein, protein, protein}}},
	}
	for _, tc := range cases {
		resp, body := postBatch(t, ts.URL, tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", tc.name, resp.StatusCode, body)
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body not JSON: %s", tc.name, body)
		}
	}
}

// TestAlignBatchAdmissionWeight pins the weighted admission contract: a
// K-query batch needs K free slots, is shed when they are not all free,
// and releases every slot on completion.
func TestAlignBatchAdmissionWeight(t *testing.T) {
	s, protein := testServer(t, serverConfig{maxInflight: 3, maxBatch: 8})
	blocked := make(chan struct{})
	s.scan = func(ctx context.Context, req fabp.ScanRequest) (*fabp.ScanResult, error) {
		select {
		case <-blocked:
			return &fabp.ScanResult{PerQuery: make([]fabp.QueryHits, len(req.Queries))}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	// A 2-query batch takes 2 of the 3 slots.
	first := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(batchAlignRequest{Queries: []string{protein, protein}})
		resp, err := http.Post(ts.URL+"/align/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			first <- -1
			return
		}
		defer resp.Body.Close()
		first <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.Held() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("batch never took its slots")
		}
		time.Sleep(time.Millisecond)
	}

	// Another 2-query batch needs 2 slots but only 1 is free: shed, and the
	// one slot it probed is released (inflight stays at 2).
	resp, body := postBatch(t, ts.URL, batchAlignRequest{Queries: []string{protein, protein}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overweight batch status %d, want 429: %s", resp.StatusCode, body)
	}
	if s.adm.Held() != 2 {
		t.Errorf("shed batch leaked slots: %d in flight, want 2", s.adm.Held())
	}

	close(blocked)
	if code := <-first; code != http.StatusOK {
		t.Errorf("first batch finished %d, want 200", code)
	}
	// The handler releases its slots after the response is written; poll.
	deadline = time.Now().Add(5 * time.Second)
	for s.adm.Held() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("slots not released after batch: %d", s.adm.Held())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAlignBatchShedObservesLatency: /align/batch starts its clock on
// arrival, like /align and /search, so a batch shed at admission still
// adds exactly one serve.latency observation.
func TestAlignBatchShedObservesLatency(t *testing.T) {
	s, protein := testServer(t, serverConfig{maxInflight: 1, maxBatch: 4})
	blocked := make(chan struct{})
	s.scan = func(ctx context.Context, req fabp.ScanRequest) (*fabp.ScanResult, error) {
		select {
		case <-blocked:
			return &fabp.ScanResult{PerQuery: make([]fabp.QueryHits, len(req.Queries))}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	first := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(batchAlignRequest{Queries: []string{protein}})
		resp, err := http.Post(ts.URL+"/align/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			first <- -1
			return
		}
		defer resp.Body.Close()
		first <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.Held() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("batch never took its slot")
		}
		time.Sleep(time.Millisecond)
	}

	before := s.m.latency.Count()
	resp, body := postBatch(t, ts.URL, batchAlignRequest{Queries: []string{protein}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("batch on a full server: status %d, want 429: %s", resp.StatusCode, body)
	}
	if got := s.m.latency.Count() - before; got != 1 {
		t.Errorf("shed batch added %d serve.latency observations, want 1", got)
	}
	close(blocked)
	if code := <-first; code != http.StatusOK {
		t.Errorf("first batch finished %d, want 200", code)
	}
}

// TestAlignBatchErrorTaxonomy: /align/batch maps errors like /align — a
// server-side shard failure is a 500 on both routes, not a 400, while a
// bad threshold fraction stays the client's 400.
func TestAlignBatchErrorTaxonomy(t *testing.T) {
	s, protein := testServer(t, serverConfig{maxInflight: 4, maxBatch: 4})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	resp, body := postBatch(t, ts.URL, batchAlignRequest{Queries: []string{protein}, ThresholdFrac: ptr(1.5)})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("threshold_frac 1.5: status %d (%s), want 400", resp.StatusCode, body)
	}

	faultinject.Enable(1, faultinject.Plan{
		faultinject.SiteShardDispatch: {Prob: 1, Sticky: true, Fail: true},
	})
	defer faultinject.Disable()
	resp, body = postAlign(t, ts.URL, alignRequest{Query: protein})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("/align under a sticky fault: status %d (%s), want 500", resp.StatusCode, body)
	}
	resp, body = postBatch(t, ts.URL, batchAlignRequest{Queries: []string{protein, protein}})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("/align/batch under a sticky fault: status %d (%s), want 500", resp.StatusCode, body)
	}
	if faultinject.Fired(faultinject.SiteShardDispatch) == 0 {
		t.Fatal("no faults fired; the taxonomy check is vacuous")
	}
}

// TestConcurrentQueries drives many parallel align requests through the
// real scan path; with capacity for all of them every request must
// succeed and find the planted gene (exercised under -race in CI).
func TestConcurrentQueries(t *testing.T) {
	s, protein := testServer(t, serverConfig{maxInflight: 16})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	const n = 12
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(kernel string) {
			defer wg.Done()
			body, _ := json.Marshal(alignRequest{Query: protein, Kernel: kernel})
			resp, err := http.Post(ts.URL+"/align", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var res alignResponse
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
				errs <- err
				return
			}
			if len(res.Hits) == 0 {
				errs <- fmt.Errorf("no hits")
			}
		}([]string{"auto", "scalar", "bitparallel"}[i%3])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// blockScan replaces the server's scan with one that parks until released
// (or the request context fires), making overload and drain deterministic.
func blockScan(s *server) (release func()) {
	ch := make(chan struct{})
	s.scan = func(ctx context.Context, req fabp.ScanRequest) (*fabp.ScanResult, error) {
		select {
		case <-ch:
			return &fabp.ScanResult{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	var once sync.Once
	return func() { once.Do(func() { close(ch) }) }
}

func TestAdmissionControl429(t *testing.T) {
	s, protein := testServer(t, serverConfig{maxInflight: 1})
	release := blockScan(s)
	defer release()
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	// Occupy the only slot.
	first := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(alignRequest{Query: protein})
		resp, err := http.Post(ts.URL+"/align", "application/json", bytes.NewReader(body))
		if err != nil {
			first <- -1
			return
		}
		defer resp.Body.Close()
		first <- resp.StatusCode
	}()

	// Wait until the first request holds its slot.
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.Held() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never took a slot")
		}
		time.Sleep(time.Millisecond)
	}

	// The second request must be shed immediately, not queued.
	t1 := time.Now()
	resp, body := postAlign(t, ts.URL, alignRequest{Query: protein})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if d := time.Since(t1); d > 2*time.Second {
		t.Errorf("shed request took %v, want immediate rejection", d)
	}

	release()
	if code := <-first; code != http.StatusOK {
		t.Errorf("first request finished %d, want 200", code)
	}
}

func TestPerRequestTimeout(t *testing.T) {
	s, protein := testServer(t, serverConfig{
		maxInflight:    2,
		defaultTimeout: 10 * time.Second,
		maxTimeout:     10 * time.Second,
	})
	_ = blockScan(s) // never released: the deadline must cut the scan loose
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	before := fabp.DefaultMetrics().Snapshot().Counters["serve.timeouts"]
	t0 := time.Now()
	resp, body := postAlign(t, ts.URL, alignRequest{Query: protein, TimeoutMs: 50})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Errorf("timeout took %v, want ~50ms", d)
	}
	if !strings.Contains(string(body), "deadline") {
		t.Errorf("timeout body: %s", body)
	}
	after := fabp.DefaultMetrics().Snapshot().Counters["serve.timeouts"]
	if after <= before {
		t.Error("serve.timeouts not incremented")
	}
}

// TestGracefulShutdownDrain pins the drain contract: Shutdown does not
// return while a scan is running, the scan's response still reaches the
// client, and new connections are refused after the drain.
func TestGracefulShutdownDrain(t *testing.T) {
	s, protein := testServer(t, serverConfig{maxInflight: 2})
	release := blockScan(s)
	defer release()
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	inFlight := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(alignRequest{Query: protein})
		resp, err := http.Post(ts.URL+"/align", "application/json", bytes.NewReader(body))
		if err != nil {
			inFlight <- -1
			return
		}
		defer resp.Body.Close()
		inFlight <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.Held() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never started")
		}
		time.Sleep(time.Millisecond)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- ts.Config.Shutdown(ctx)
	}()

	// The drain must wait for the running scan.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) while a scan was running", err)
	case <-time.After(100 * time.Millisecond):
	}

	release()
	if code := <-inFlight; code != http.StatusOK {
		t.Errorf("draining request finished %d, want 200", code)
	}
	select {
	case err := <-shutdownDone:
		if err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown hung after the last scan finished")
	}
}

// TestBatchAdmissionShedStorm hammers the weighted batch admission with
// concurrent requests while most slots are held: every shed request must
// release ALL the slots it partially acquired (no leak — the in-flight
// count never exceeds capacity and returns exactly to the blocker's
// weight), and every 429 must carry Retry-After.
func TestBatchAdmissionShedStorm(t *testing.T) {
	const capacity = 4
	s, protein := testServer(t, serverConfig{maxInflight: capacity, maxBatch: capacity})
	blocked := make(chan struct{})
	s.scan = func(ctx context.Context, req fabp.ScanRequest) (*fabp.ScanResult, error) {
		select {
		case <-blocked:
			return &fabp.ScanResult{PerQuery: make([]fabp.QueryHits, len(req.Queries))}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	// A 3-query batch parks on 3 of the 4 slots.
	blocker := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(batchAlignRequest{Queries: []string{protein, protein, protein}})
		resp, err := http.Post(ts.URL+"/align/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			blocker <- -1
			return
		}
		defer resp.Body.Close()
		blocker <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.Held() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("blocker batch never took its slots")
		}
		time.Sleep(time.Millisecond)
	}

	// Storm: concurrent 2-query batches all need 2 slots with only 1
	// free. Every one must probe, fail, roll its partial acquisition
	// back, and answer 429 with Retry-After.
	const stormers = 32
	var wg sync.WaitGroup
	type verdict struct {
		status     int
		retryAfter string
	}
	verdicts := make(chan verdict, stormers)
	for i := 0; i < stormers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(batchAlignRequest{Queries: []string{protein, protein}})
			resp, err := http.Post(ts.URL+"/align/batch", "application/json", bytes.NewReader(body))
			if err != nil {
				verdicts <- verdict{status: -1}
				return
			}
			defer resp.Body.Close()
			verdicts <- verdict{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
		}()
	}
	wg.Wait()
	close(verdicts)
	for v := range verdicts {
		if v.status != http.StatusTooManyRequests {
			t.Fatalf("storm request status %d, want 429", v.status)
		}
		if v.retryAfter == "" {
			t.Fatal("429 without Retry-After")
		}
	}
	// No storm request may have leaked a probed slot: exactly the
	// blocker's 3 remain held.
	if got := s.adm.Held(); got != 3 {
		t.Fatalf("after shed storm %d slots held, want the blocker's 3 (leak)", got)
	}

	// Release the blocker: its batch completes and every slot frees.
	close(blocked)
	if code := <-blocker; code != http.StatusOK {
		t.Fatalf("blocker batch finished %d, want 200", code)
	}
	deadline = time.Now().Add(5 * time.Second)
	for s.adm.Held() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("slots not released after storm: %d", s.adm.Held())
		}
		time.Sleep(time.Millisecond)
	}

	// Aftershock: with scans now instant, a mixed-weight storm must end
	// with every slot back and only 200s or well-formed 429s.
	verdicts2 := make(chan verdict, stormers)
	for i := 0; i < stormers; i++ {
		wg.Add(1)
		go func(weight int) {
			defer wg.Done()
			qs := make([]string, weight)
			for j := range qs {
				qs[j] = protein
			}
			body, _ := json.Marshal(batchAlignRequest{Queries: qs})
			resp, err := http.Post(ts.URL+"/align/batch", "application/json", bytes.NewReader(body))
			if err != nil {
				verdicts2 <- verdict{status: -1}
				return
			}
			defer resp.Body.Close()
			verdicts2 <- verdict{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
		}(1 + i%capacity)
	}
	wg.Wait()
	close(verdicts2)
	for v := range verdicts2 {
		switch v.status {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			if v.retryAfter == "" {
				t.Fatal("aftershock 429 without Retry-After")
			}
		default:
			t.Fatalf("aftershock status %d, want 200 or 429", v.status)
		}
	}
	deadline = time.Now().Add(5 * time.Second)
	for s.adm.Held() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("slots leaked after aftershock: %d", s.adm.Held())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPartialDegradedServeResponse drives the partial-result contract
// end-to-end through the HTTP surface: with shards failing sticky (beyond
// any retry budget) and the request opting into partial mode, the service
// answers 200 with degraded=true and the failed ranges listed — and a
// negative retry budget is rejected up front.
func TestPartialDegradedServeResponse(t *testing.T) {
	s, protein := testServer(t, serverConfig{maxInflight: 4})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	// The 20k test database is one shard at the default shard length;
	// seed 13's sticky selection includes it, so the whole scan degrades:
	// 200, degraded=true, every range declared, no hits silently lost.
	faultinject.Enable(13, faultinject.Plan{
		faultinject.SiteShardDispatch: {Prob: 0.4, Sticky: true, Fail: true},
	})
	defer faultinject.Disable()

	budget := 1
	resp, body := postAlign(t, ts.URL, alignRequest{
		Query: protein, RetryBudget: &budget, Partial: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial align status %d: %s", resp.StatusCode, body)
	}
	var res alignResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("bad response JSON: %v\n%s", err, body)
	}
	if !res.Degraded || len(res.FailedRanges) == 0 {
		t.Fatalf("degraded=%v failed_ranges=%d; want a degraded response", res.Degraded, len(res.FailedRanges))
	}
	for _, fr := range res.FailedRanges {
		if fr.Hi <= fr.Lo || fr.Error == "" {
			t.Errorf("implausible failed range %+v", fr)
		}
	}
	if s.m.degraded.Load() == 0 {
		t.Error("serve.degraded not counted")
	}

	// The same request without partial mode is a server-side failure, not
	// silent hit loss.
	resp, body = postAlign(t, ts.URL, alignRequest{Query: protein, RetryBudget: &budget})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("non-partial sticky faults: status %d (%s), want 500", resp.StatusCode, body)
	}

	// Negative budgets are a client error.
	bad := -1
	resp, body = postAlign(t, ts.URL, alignRequest{Query: protein, RetryBudget: &bad})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative retry_budget: status %d (%s), want 400", resp.StatusCode, body)
	}
}

// TestPartialRetryBudgetAbsorbsTransients: a request-scoped retry budget
// turns transient (key-limited) injected failures into a full, clean 200
// — no degradation, hits identical to the fault-free scan.
func TestPartialRetryBudgetAbsorbsTransients(t *testing.T) {
	s, protein := testServer(t, serverConfig{maxInflight: 4})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	resp, body := postAlign(t, ts.URL, alignRequest{Query: protein})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fault-free align status %d: %s", resp.StatusCode, body)
	}
	var want alignResponse
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}

	faultinject.Enable(9, faultinject.Plan{
		faultinject.SiteShardDispatch: {Every: 1, KeyLimit: 2, Fail: true},
	})
	defer faultinject.Disable()
	budget := 3
	resp, body = postAlign(t, ts.URL, alignRequest{Query: protein, RetryBudget: &budget})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retried align status %d: %s", resp.StatusCode, body)
	}
	var got alignResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Degraded || len(got.Hits) != len(want.Hits) {
		t.Fatalf("retried scan: degraded=%v hits=%d, want clean %d", got.Degraded, len(got.Hits), len(want.Hits))
	}
	for i := range want.Hits {
		if got.Hits[i] != want.Hits[i] {
			t.Fatalf("hit %d = %+v, want %+v", i, got.Hits[i], want.Hits[i])
		}
	}
	if faultinject.Fired(faultinject.SiteShardDispatch) == 0 {
		t.Fatal("no faults fired; the retry test is vacuous")
	}
}

// TestServeCacheHitBypassesAdmission pins the cache fast path's strongest
// property: with the single admission slot parked under a blocked scan
// and no queue, an uncached request is shed with 429 — but a request
// whose result is resident answers 200 without touching admission at
// all. The 200-vs-429 split is the proof; no timing is involved.
func TestServeCacheHitBypassesAdmission(t *testing.T) {
	s, protein := testServer(t, serverConfig{maxInflight: 1, cacheBytes: 8 << 20})
	t.Cleanup(func() { fabp.SetScanCacheCapacity(0) })
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	// Cold request: runs the real scan and seeds the cache.
	resp, body := postAlign(t, ts.URL, alignRequest{Query: protein})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold align status %d: %s", resp.StatusCode, body)
	}
	var cold alignResponse
	if err := json.Unmarshal(body, &cold); err != nil {
		t.Fatal(err)
	}
	if cold.Cache != "miss" {
		t.Fatalf("cold cache = %q, want miss", cold.Cache)
	}
	if len(cold.Hits) == 0 {
		t.Fatal("cold scan found no hits")
	}

	// Park a different query on the only slot.
	release := blockScan(s)
	defer release()
	blocked := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(alignRequest{Query: "MKWVTF"})
		resp, err := http.Post(ts.URL+"/align", "application/json", bytes.NewReader(body))
		if err != nil {
			blocked <- -1
			return
		}
		defer resp.Body.Close()
		blocked <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.Held() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("blocker never took the slot")
		}
		time.Sleep(time.Millisecond)
	}

	// Control: an uncached query cannot get in (queue 0, slot held).
	resp, body = postAlign(t, ts.URL, alignRequest{Query: "MKWVTFISLL"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("uncached query at capacity: status %d (%s), want 429", resp.StatusCode, body)
	}

	// The cached query answers 200 regardless — it never asked admission.
	before := s.m.cacheHits.Load()
	resp, body = postAlign(t, ts.URL, alignRequest{Query: protein})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached align at capacity: status %d (%s), want 200", resp.StatusCode, body)
	}
	var hot alignResponse
	if err := json.Unmarshal(body, &hot); err != nil {
		t.Fatal(err)
	}
	if hot.Cache != "hit" {
		t.Fatalf("hot cache = %q, want hit", hot.Cache)
	}
	if s.m.cacheHits.Load() != before+1 {
		t.Error("serve.cache.hits not incremented")
	}
	// Byte-identical to the cold scan, and cheap: a resident lookup takes
	// a map probe, not a scan (generous bound; the bench pins the ratio).
	if len(hot.Hits) != len(cold.Hits) {
		t.Fatalf("hot hits %d, cold %d", len(hot.Hits), len(cold.Hits))
	}
	for i := range cold.Hits {
		if hot.Hits[i] != cold.Hits[i] {
			t.Errorf("hit %d: hot %+v, cold %+v", i, hot.Hits[i], cold.Hits[i])
		}
	}
	if hot.ElapsedMs > 50 {
		t.Errorf("cache hit took %.2fms, want well under 50ms", hot.ElapsedMs)
	}
	if s.adm.Held() != 1 {
		t.Errorf("held = %d after cache hit, want the blocker's 1", s.adm.Held())
	}

	release()
	if code := <-blocked; code != http.StatusOK {
		t.Errorf("blocker finished %d, want 200", code)
	}
}

// TestServeQueueAdmitsWhenSlotFrees: with -max-queue > 0 a request at
// capacity waits instead of shedding, is granted when the slot frees, and
// requests beyond the queue bound still shed 429.
func TestServeQueueAdmitsWhenSlotFrees(t *testing.T) {
	s, protein := testServer(t, serverConfig{maxInflight: 1, maxQueue: 1})
	release := blockScan(s)
	defer release()
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	holder := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(alignRequest{Query: protein})
		resp, err := http.Post(ts.URL+"/align", "application/json", bytes.NewReader(body))
		if err != nil {
			holder <- -1
			return
		}
		defer resp.Body.Close()
		holder <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.Held() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("holder never took the slot")
		}
		time.Sleep(time.Millisecond)
	}

	// Second request queues rather than shedding.
	queued := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(alignRequest{Query: protein})
		resp, err := http.Post(ts.URL+"/align", "application/json", bytes.NewReader(body))
		if err != nil {
			queued <- -1
			return
		}
		defer resp.Body.Close()
		queued <- resp.StatusCode
	}()
	deadline = time.Now().Add(5 * time.Second)
	for s.adm.QueueDepth() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Third request finds the queue full: immediate 429 with Retry-After.
	resp, body := postAlign(t, ts.URL, alignRequest{Query: protein})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-full status %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// Freeing the slot grants the queued request; both finish 200.
	release()
	if code := <-holder; code != http.StatusOK {
		t.Errorf("holder finished %d, want 200", code)
	}
	if code := <-queued; code != http.StatusOK {
		t.Errorf("queued request finished %d, want 200", code)
	}
}

// TestServeQueuedDeadlineShed: a queued request whose deadline cannot be
// met given the observed cost estimate is shed with 429 + Retry-After —
// before its deadline, while retrying elsewhere is still actionable —
// instead of timing out into a 504.
func TestServeQueuedDeadlineShed(t *testing.T) {
	s, protein := testServer(t, serverConfig{maxInflight: 1, maxQueue: 4})
	release := blockScan(s)
	defer release()
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	// Teach the estimator: one scan that takes ~100ms of wall time.
	warm := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(alignRequest{Query: protein})
		resp, err := http.Post(ts.URL+"/align", "application/json", bytes.NewReader(body))
		if err != nil {
			warm <- -1
			return
		}
		defer resp.Body.Close()
		warm <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.Held() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("warm request never took the slot")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
	release()
	if code := <-warm; code != http.StatusOK {
		t.Fatalf("warm request finished %d, want 200", code)
	}
	if s.adm.Estimate() <= 0 {
		t.Fatal("admission estimate not seeded")
	}

	// Park the slot again, then queue a request with a deadline: the
	// estimate-driven timer sheds it as 429 strictly before the deadline
	// would have produced a 504.
	release2 := blockScan(s)
	defer release2()
	blocked := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(alignRequest{Query: protein})
		resp, err := http.Post(ts.URL+"/align", "application/json", bytes.NewReader(body))
		if err != nil {
			blocked <- -1
			return
		}
		defer resp.Body.Close()
		blocked <- resp.StatusCode
	}()
	deadline = time.Now().Add(5 * time.Second)
	for s.adm.Held() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("blocker never took the slot")
		}
		time.Sleep(time.Millisecond)
	}

	resp, body := postAlign(t, ts.URL, alignRequest{Query: protein, TimeoutMs: 200})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queued deadline shed: status %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("deadline shed without Retry-After")
	}
	if !strings.Contains(string(body), "deadline") {
		t.Errorf("shed body does not name the reason: %s", body)
	}

	release2()
	if code := <-blocked; code != http.StatusOK {
		t.Errorf("blocker finished %d, want 200", code)
	}
}

// TestAlignStreamEndpoint drives the fused streaming endpoint with a real
// nucleotide body: every query's NDJSON hits must match a Queries scan of
// the same letters as a Reference, and the trailer must account for them.
func TestAlignStreamEndpoint(t *testing.T) {
	s, _ := testServer(t, serverConfig{maxInflight: 4})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	ref, genes := fabp.SyntheticReference(9, 30_000, 3, 30)
	queries := make([]*fabp.Query, len(genes))
	vals := make([]string, len(genes))
	for i, g := range genes {
		q, err := fabp.NewQuery(g.Protein)
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = q
		vals[i] = "query=" + g.Protein
	}
	res, err := fabp.Scan(context.Background(), fabp.ScanRequest{Queries: queries, Reference: ref, ThresholdFrac: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]fabp.Hit, len(queries))
	for qi, qh := range res.PerQuery {
		want[qi] = qh.Hits
	}

	url := ts.URL + "/align/stream?" + strings.Join(vals, "&") + "&threshold_frac=0.7"
	resp, err := http.Post(url, "application/octet-stream", strings.NewReader(ref.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}

	got := make([][]fabp.Hit, len(queries))
	var trailer streamTrailer
	sawTrailer := false
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		if sawTrailer {
			t.Fatal("lines after the trailer")
		}
		var raw map[string]json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			t.Fatal(err)
		}
		if _, isTrailer := raw["done"]; isTrailer {
			b, _ := json.Marshal(raw)
			if err := json.Unmarshal(b, &trailer); err != nil {
				t.Fatal(err)
			}
			sawTrailer = true
			continue
		}
		var h streamHit
		b, _ := json.Marshal(raw)
		if err := json.Unmarshal(b, &h); err != nil {
			t.Fatal(err)
		}
		got[h.Query] = append(got[h.Query], fabp.Hit{Pos: h.Pos, Score: h.Score})
	}
	if !sawTrailer || !trailer.Done || trailer.Error != "" {
		t.Fatalf("trailer = %+v", trailer)
	}
	totalWant := 0
	for qi := range want {
		totalWant += len(want[qi])
		if len(got[qi]) != len(want[qi]) {
			t.Fatalf("query %d: %d hits, want %d", qi, len(got[qi]), len(want[qi]))
		}
		for i := range want[qi] {
			if got[qi][i] != want[qi][i] {
				t.Fatalf("query %d hit %d = %+v, want %+v", qi, i, got[qi][i], want[qi][i])
			}
		}
	}
	if totalWant == 0 {
		t.Fatal("no hits; test is vacuous")
	}
	if trailer.Hits != totalWant || trailer.Truncated {
		t.Fatalf("trailer %+v, want %d hits untruncated", trailer, totalWant)
	}
}

// TestAlignStreamValidation pins the stream route's pre-stream error
// surface: bad inputs are plain JSON 400s, and a bad byte mid-stream that
// precedes any hit is as well.
func TestAlignStreamValidation(t *testing.T) {
	s, protein := testServer(t, serverConfig{maxInflight: 2, maxBatch: 2})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	post := func(params, body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/align/stream?"+params, "application/octet-stream", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, buf.Bytes()
	}

	qp := "query=" + protein
	for name, params := range map[string]string{
		"no queries":    "",
		"empty query":   "query=",
		"bad residues":  "query=MK123",
		"over maxBatch": qp + "&" + qp + "&" + qp,
		"bad frac":      qp + "&threshold_frac=nope",
		"bad timeout":   qp + "&timeout_ms=soon",
	} {
		resp, body := post(params, "ACGU")
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, resp.StatusCode, body)
		}
	}

	// An invalid nucleotide before any hit: 400 with the stream position.
	resp, body := post(qp, "ACGUX")
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "position 4") {
		t.Errorf("bad byte: status %d body %s, want 400 naming position 4", resp.StatusCode, body)
	}
}

func postSearch(t *testing.T, url string, req searchRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestSearchEndpoint(t *testing.T) {
	s, protein := testServer(t, serverConfig{maxInflight: 4})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	resp, body := postSearch(t, ts.URL, searchRequest{Query: protein, TwoHit: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d: %s", resp.StatusCode, body)
	}
	var res searchResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.HSPs) == 0 {
		t.Fatal("planted gene produced no HSPs")
	}
	top := res.HSPs[0]
	if top.Frame != "+1" && top.Frame != "+2" && top.Frame != "+3" {
		t.Errorf("top HSP frame %q, want forward (gene planted on forward strand)", top.Frame)
	}
	if top.Score <= 0 || top.EValue < 0 {
		t.Errorf("implausible top HSP: %+v", top)
	}
	if res.Stats == nil || res.Stats.WordLookups == 0 {
		t.Errorf("missing pipeline stats: %+v", res.Stats)
	}
	if res.Residues != len(protein) {
		t.Errorf("residues %d, want %d", res.Residues, len(protein))
	}
}

func TestSearchValidation(t *testing.T) {
	s, protein := testServer(t, serverConfig{maxInflight: 4})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	cases := []struct {
		name string
		req  searchRequest
	}{
		{"missing query", searchRequest{}},
		{"bad residues", searchRequest{Query: "MK123"}},
		{"bad frames", searchRequest{Query: protein, Frames: 9}},
	}
	for _, tc := range cases {
		resp, body := postSearch(t, ts.URL, tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, body)
		}
	}
}

func TestSearchMinScoreZeroMeansAll(t *testing.T) {
	s, protein := testServer(t, serverConfig{maxInflight: 4})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	_, defBody := postSearch(t, ts.URL, searchRequest{Query: protein})
	var def searchResponse
	if err := json.Unmarshal(defBody, &def); err != nil {
		t.Fatal(err)
	}
	_, allBody := postSearch(t, ts.URL, searchRequest{Query: protein, MinScore: ptr(0)})
	var all searchResponse
	if err := json.Unmarshal(allBody, &all); err != nil {
		t.Fatal(err)
	}
	if len(all.HSPs) < len(def.HSPs) {
		t.Errorf("min_score=0 returned fewer HSPs (%d) than the default cutoff (%d)",
			len(all.HSPs), len(def.HSPs))
	}
}

func TestSearchCacheProvenance(t *testing.T) {
	fabp.SetScanCacheCapacity(16 << 20)
	defer fabp.SetScanCacheCapacity(0)
	s, protein := testServer(t, serverConfig{maxInflight: 4, cacheBytes: 16 << 20})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	req := searchRequest{Query: protein, TwoHit: true}
	_, firstBody := postSearch(t, ts.URL, req)
	var first searchResponse
	if err := json.Unmarshal(firstBody, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cache != "miss" {
		t.Fatalf("first search provenance %q, want miss", first.Cache)
	}
	_, secondBody := postSearch(t, ts.URL, req)
	var second searchResponse
	if err := json.Unmarshal(secondBody, &second); err != nil {
		t.Fatal(err)
	}
	if second.Cache != "hit" {
		t.Fatalf("repeat search provenance %q, want hit", second.Cache)
	}
	if fmt.Sprintf("%+v", first.HSPs) != fmt.Sprintf("%+v", second.HSPs) {
		t.Fatal("cached HSPs differ from the seeding search")
	}
}

// postStream posts body to /align/stream with the given query string and
// returns the NDJSON hit lines and the trailer.
func postStream(t *testing.T, url, query, body string) ([]streamHit, streamTrailer) {
	t.Helper()
	resp, err := http.Post(url+"/align/stream?"+query, "application/octet-stream", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	var hits []streamHit
	var trailer streamTrailer
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var raw map[string]json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(raw)
		if _, isTrailer := raw["done"]; isTrailer {
			if err := json.Unmarshal(b, &trailer); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var h streamHit
		if err := json.Unmarshal(b, &h); err != nil {
			t.Fatal(err)
		}
		hits = append(hits, h)
	}
	return hits, trailer
}

// TestServeRetryPolicyBatchAndStream: the server's retry policy rides on
// every /align/batch and /align/stream request, so under transient
// shard-dispatch faults both endpoints answer with exactly the fault-free
// hits. A server without a policy fails the same faulted batch, so the
// recovery comes from the request's policy and nothing else.
func TestServeRetryPolicyBatchAndStream(t *testing.T) {
	s, protein := testServer(t, serverConfig{maxInflight: 4,
		retryPolicy: fabp.RetryPolicy{MaxRetries: 2, Base: 10 * time.Microsecond}})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	bare, _ := testServer(t, serverConfig{maxInflight: 4})
	tsBare := httptest.NewServer(bare.handler())
	defer tsBare.Close()

	ref, genes := fabp.SyntheticReference(9, 30_000, 3, 30)
	batch := batchAlignRequest{Queries: []string{protein, genes[1].Protein}, ThresholdFrac: ptr(0.5)}
	streamQuery := "query=" + genes[0].Protein + "&query=" + genes[2].Protein + "&threshold_frac=0.7"
	resp, wantBatch := postBatch(t, ts.URL, batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fault-free batch status %d: %s", resp.StatusCode, wantBatch)
	}
	wantStream, trailer := postStream(t, ts.URL, streamQuery, ref.String())
	if !trailer.Done || len(wantStream) == 0 {
		t.Fatalf("fault-free stream: %d hits, trailer %+v", len(wantStream), trailer)
	}

	// Every shard key fails its first two dispatches; two retries recover.
	plan := faultinject.Plan{faultinject.SiteShardDispatch: {Every: 1, KeyLimit: 2, Fail: true}}
	faultinject.Enable(5, plan)
	defer faultinject.Disable()
	resp, body := postBatch(t, tsBare.URL, batch)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("faulted batch without a policy: status %d, want 500: %s", resp.StatusCode, body)
	}

	faultinject.Enable(5, plan)
	resp, body = postBatch(t, ts.URL, batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("faulted batch status %d: %s", resp.StatusCode, body)
	}
	var want, got batchAlignResponse
	if err := json.Unmarshal(wantBatch, &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	for qi := range want.Queries {
		if !reflect.DeepEqual(got.Queries[qi].Hits, want.Queries[qi].Hits) {
			t.Errorf("batch query %d: faulted hits differ from the fault-free scan", qi)
		}
	}
	if faultinject.Fired(faultinject.SiteShardDispatch) == 0 {
		t.Fatal("dispatch faults never fired; the batch tested nothing")
	}

	faultinject.Enable(5, plan)
	gotStream, trailer := postStream(t, ts.URL, streamQuery, ref.String())
	if !trailer.Done || trailer.Error != "" {
		t.Fatalf("faulted stream trailer %+v", trailer)
	}
	if !reflect.DeepEqual(gotStream, wantStream) {
		t.Errorf("faulted stream: %d hits differ from the fault-free %d", len(gotStream), len(wantStream))
	}
	if faultinject.Fired(faultinject.SiteShardDispatch) == 0 {
		t.Fatal("dispatch faults never fired; the stream tested nothing")
	}
}

// TestServeBodyLimit: a JSON body over maxBodyBytes on /align,
// /align/batch or /search is refused with 413 before it is buffered, and
// the server answers the next request normally.
func TestServeBodyLimit(t *testing.T) {
	s, protein := testServer(t, serverConfig{maxInflight: 2})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	huge := `{"query":"` + strings.Repeat("M", maxBodyBytes) + `"}`
	for _, route := range []string{"/align", "/align/batch", "/search"} {
		resp, err := http.Post(ts.URL+route, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatalf("%s: %v", route, err)
		}
		var e errorResponse
		derr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: over-limit body got %d, want 413", route, resp.StatusCode)
		}
		if derr != nil || !strings.Contains(e.Error, "exceeds") {
			t.Errorf("%s: 413 body %+v (%v), want a JSON error naming the limit", route, e, derr)
		}

		resp, body := postAlign(t, ts.URL, alignRequest{Query: protein})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request after an over-limit %s body got %d: %s", route, resp.StatusCode, body)
		}
	}
}

// TestServeRouteLifecycle: every scan route rides one lifecycle, so the
// same request outcomes answer alike on all four. A 400 and a 429 shed
// each add exactly one serve.requests and one serve.latency observation
// (the clock starts on arrival), an expired deadline answers 504, and on
// the nucleotide routes a shard failure past retries answers 500 and
// counts on serve.failed.
func TestServeRouteLifecycle(t *testing.T) {
	s, protein := testServer(t, serverConfig{maxInflight: 1, maxBatch: 4})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	ref, _ := fabp.SyntheticReference(9, 30_000, 3, 30)
	realScan := s.scan
	// Two halves of an over-long protein: each fits maxRequestResidues,
	// together they do not.
	long := strings.Repeat("MKWVTFISLL", maxRequestResidues/10+1)
	half := long[:len(long)/2]

	// Each route's good and bad requests; {t} is the request's timeout_ms.
	routes := []struct {
		path             string
		good             string   // JSON body, or the query string of /align/stream
		bad              []string // each a 400
		nucleotideTarget bool
	}{
		{"/align", `{"query":"` + protein + `","timeout_ms":{t}}`, []string{
			`{"query":""}`,
			`{"query":"` + protein + `","threshold":10,"threshold_frac":0.8}`,
			`{"query":"` + protein + `","threshold_frac":0}`,
			`{"query":"` + protein + `","threshold":10,"threshold_frac":0}`,
			`{"query":"` + protein + `","threshold_frac":-0.5}`,
			`{"query":"` + protein + `","threshold_frac":1.5}`,
			`{"query":"` + long + `"}`,
		}, true},
		{"/align/batch", `{"queries":["` + protein + `"],"timeout_ms":{t}}`, []string{
			`{"queries":[]}`,
			`{"queries":["` + protein + `"],"threshold_frac":0}`,
			`{"queries":["` + half + `","` + half + `"]}`,
		}, true},
		{"/align/stream", "query=" + protein + "&timeout_ms={t}", []string{
			"query=",
			"query=" + protein + "&threshold_frac=0",
			"query=" + protein + "&threshold_frac=NaN",
			"query=" + half + "&query=" + half,
		}, true},
		{"/search", `{"query":"` + protein + `","timeout_ms":{t}}`, []string{
			`{"query":"MK123"}`,
			`{"query":"` + long + `"}`,
		}, false},
	}
	for _, rt := range routes {
		post := func(req string, timeoutMs int) (*http.Response, string) {
			t.Helper()
			req = strings.ReplaceAll(req, "{t}", fmt.Sprint(timeoutMs))
			url, body := ts.URL+rt.path, req
			if rt.path == "/align/stream" {
				url, body = url+"?"+req, ref.String()
			}
			resp, err := http.Post(url, "application/octet-stream", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				t.Fatal(err)
			}
			return resp, buf.String()
		}
		// observed asserts one request's answer and its single
		// serve.requests and serve.latency tick.
		observed := func(arm string, want int, send func() (*http.Response, string)) *http.Response {
			t.Helper()
			reqs, lat := s.m.requests.Load(), s.m.latency.Count()
			resp, body := send()
			if resp.StatusCode != want {
				t.Errorf("%s %s: status %d (%s), want %d", rt.path, arm, resp.StatusCode, body, want)
			}
			if got := s.m.requests.Load() - reqs; got != 1 {
				t.Errorf("%s %s: serve.requests +%d, want +1", rt.path, arm, got)
			}
			if got := s.m.latency.Count() - lat; got != 1 {
				t.Errorf("%s %s: serve.latency +%d observations, want +1", rt.path, arm, got)
			}
			return resp
		}

		for _, bad := range rt.bad {
			arm := "bad request " + bad
			if len(arm) > 100 {
				arm = arm[:100] + "…"
			}
			observed(arm, http.StatusBadRequest, func() (*http.Response, string) { return post(bad, 0) })
		}

		// Hold the only slot: with no queue the request sheds at once.
		if err := s.adm.Admit(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
		resp := observed("shed", http.StatusTooManyRequests, func() (*http.Response, string) { return post(rt.good, 0) })
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s shed: 429 without Retry-After", rt.path)
		}
		s.adm.Release(1, 0)

		s.scan = func(ctx context.Context, req fabp.ScanRequest) (*fabp.ScanResult, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		observed("expired deadline", http.StatusGatewayTimeout, func() (*http.Response, string) { return post(rt.good, 20) })
		s.scan = realScan

		if !rt.nucleotideTarget {
			continue
		}
		failed := s.m.failed.Load()
		faultinject.Enable(3, faultinject.Plan{faultinject.SiteShardDispatch: {Every: 1, Fail: true}})
		observed("shard failure", http.StatusInternalServerError, func() (*http.Response, string) { return post(rt.good, 0) })
		fired := faultinject.Fired(faultinject.SiteShardDispatch)
		faultinject.Disable()
		if fired == 0 {
			t.Errorf("%s: no dispatch faults fired; the 500 arm is vacuous", rt.path)
		}
		if s.m.failed.Load() != failed+1 {
			t.Errorf("%s shard failure: serve.failed +%d, want +1", rt.path, s.m.failed.Load()-failed)
		}
	}
	if s.adm.Held() != 0 {
		t.Errorf("%d admission units still held after every route answered", s.adm.Held())
	}
}
