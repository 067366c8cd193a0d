package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fabp"
	"fabp/internal/faultinject"
)

// TestSoakMixedTrafficUnderShardStalls is the nightly soak: ~30 seconds
// of mixed single/batch traffic against an httptest server while 2% of
// shard dispatches stall. The service must stay fully available the
// whole time — nothing 5xx (the only non-200 allowed is admission's 429,
// always carrying Retry-After), and /healthz answering 200 on every poll
// (no flapping).
func TestSoakMixedTrafficUnderShardStalls(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test: 30s of traffic; skipped under -short")
	}

	ref, genes := fabp.SyntheticReference(7, 20_000, 2, 30)
	db, err := fabp.DatabaseFromReference("soak", ref)
	if err != nil {
		t.Fatal(err)
	}
	db.WarmPlanes()
	// The server puts its retry policy on every single and batch request.
	s := newServer(serverConfig{
		db:             db,
		maxInflight:    8,
		defaultTimeout: 5 * time.Second,
		retryPolicy:    fabp.RetryPolicy{MaxRetries: 2, Base: 100 * time.Microsecond},
	})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	// A 2% per-shard stall: pure added latency, never an error, so every
	// request must still succeed — the soak proves injected lag degrades
	// tail latency, not availability.
	faultinject.Enable(2026, faultinject.Plan{
		faultinject.SiteShardDispatch: {Prob: 0.02, Delay: 2 * time.Millisecond},
	})
	defer faultinject.Disable()

	singleBody, err := json.Marshal(alignRequest{Query: genes[0].Protein})
	if err != nil {
		t.Fatal(err)
	}
	batchBody, err := json.Marshal(batchAlignRequest{
		Queries: []string{genes[0].Protein, genes[1].Protein},
	})
	if err != nil {
		t.Fatal(err)
	}

	const soakFor = 30 * time.Second
	deadline := time.Now().Add(soakFor)
	var (
		mu        sync.Mutex
		statuses  = map[int]int{}
		failures  []string
		requests  atomic.Int64
		healthOK  atomic.Int64
		healthAll atomic.Int64
	)
	fail := func(msg string) {
		mu.Lock()
		if len(failures) < 10 {
			failures = append(failures, msg)
		}
		mu.Unlock()
	}
	post := func(client *http.Client, path string, body []byte) {
		resp, err := client.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			fail("transport error: " + err.Error())
			return
		}
		defer resp.Body.Close()
		requests.Add(1)
		mu.Lock()
		statuses[resp.StatusCode]++
		mu.Unlock()
		switch {
		case resp.StatusCode >= 500:
			fail(path + " answered " + resp.Status)
		case resp.StatusCode == http.StatusTooManyRequests:
			if resp.Header.Get("Retry-After") == "" {
				fail("429 without Retry-After")
			}
		case resp.StatusCode != http.StatusOK:
			fail(path + " answered unexpected " + resp.Status)
		}
	}

	var wg sync.WaitGroup
	// Traffic: 6 workers alternating single and batch scans, enough to
	// brush against maxInflight=8 (batches weigh 2 slots) and shed 429s.
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			for i := 0; time.Now().Before(deadline); i++ {
				if (w+i)%3 == 0 {
					post(client, "/align/batch", batchBody)
				} else {
					post(client, "/align", singleBody)
				}
			}
		}(w)
	}
	// Health prober: /healthz must answer 200 on every single poll.
	wg.Add(1)
	go func() {
		defer wg.Done()
		client := &http.Client{Timeout: 5 * time.Second}
		for time.Now().Before(deadline) {
			resp, err := client.Get(ts.URL + "/healthz")
			if err != nil {
				fail("healthz transport error: " + err.Error())
			} else {
				healthAll.Add(1)
				if resp.StatusCode == http.StatusOK {
					healthOK.Add(1)
				} else {
					fail("healthz flapped to " + resp.Status)
				}
				resp.Body.Close()
			}
			time.Sleep(50 * time.Millisecond)
		}
	}()
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	for _, f := range failures {
		t.Error(f)
	}
	if requests.Load() < 100 {
		t.Errorf("only %d scan requests completed in %s; the soak barely ran", requests.Load(), soakFor)
	}
	if healthAll.Load() == 0 || healthOK.Load() != healthAll.Load() {
		t.Errorf("healthz: %d/%d polls OK", healthOK.Load(), healthAll.Load())
	}
	if faultinject.Fired(faultinject.SiteShardDispatch) == 0 {
		t.Error("no stalls fired; the soak tested nothing")
	}
	t.Logf("soak: %d requests, statuses %v, %d/%d healthz OK, %d stalls injected",
		requests.Load(), statuses, healthOK.Load(), healthAll.Load(),
		faultinject.Fired(faultinject.SiteShardDispatch))
}
