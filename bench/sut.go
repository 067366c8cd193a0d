package main

// sut.go is the benchmark's one adapter to the system under test: every
// untraced call goes through the APIs the system's users call — the fabp
// facade and fabp-serve's HTTP routes — and through nothing else.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"fabp"
)

func sutBuildDatabase(fasta []byte) (*fabp.Database, error) {
	d, err := fabp.BuildDatabase(bytes.NewReader(fasta))
	if err != nil {
		return nil, err
	}
	d.WarmPlanes()
	return d, nil
}

func sutLoadDatabase(v2 []byte) (*fabp.Database, error) {
	d, err := fabp.LoadDatabase(bytes.NewReader(v2))
	if err != nil {
		return nil, err
	}
	d.WarmPlanes()
	return d, nil
}

func sutSaveDatabase(d *fabp.Database) ([]byte, error) {
	var b bytes.Buffer
	err := d.SaveDatabase(&b)
	return b.Bytes(), err
}

// sutEvictPlanes drops the database's planes from every cache, so the next
// set-up starts cold.
func sutEvictPlanes(d *fabp.Database) { d.EvictPlanes() }

func sutReference(letters []byte) (*fabp.Reference, error) {
	return fabp.NewReference(string(letters))
}

func sutQueries(proteins []string) ([]*fabp.Query, error) {
	qs := make([]*fabp.Query, len(proteins))
	for i, p := range proteins {
		q, err := fabp.NewQuery(p)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		qs[i] = q
	}
	return qs, nil
}

func sutAligner(q *fabp.Query, frac float64, k fabp.Kernel) (*fabp.Aligner, error) {
	return fabp.NewAligner(q, fabp.WithThresholdFraction(frac), fabp.WithKernelType(k))
}

// sutScan is one K=1 database scan. It fails if the result cache answered,
// since a cached answer would time a lookup instead of a scan.
func sutScan(ctx context.Context, d *fabp.Database, q *fabp.Query, frac float64, k fabp.Kernel) ([]fabp.RecordHit, error) {
	res, err := fabp.Scan(ctx, fabp.ScanRequest{Query: q, Database: d, ThresholdFrac: frac, Kernel: k})
	if err != nil {
		return nil, err
	}
	if res.Cache != fabp.CacheBypass {
		return nil, fmt.Errorf("scan answered from the result cache (%s)", res.Cache)
	}
	return res.RecordHits, nil
}

func sutBatch(ctx context.Context, d *fabp.Database, qs []*fabp.Query, frac float64) ([][]fabp.RecordHit, error) {
	return fabp.AlignDatabaseBatchContext(ctx, d, qs, frac)
}

func sutStream(ctx context.Context, a *fabp.Aligner, stream []byte) ([]fabp.Hit, error) {
	var hits []fabp.Hit
	err := a.AlignStreamContext(ctx, bytes.NewReader(stream), func(h fabp.Hit) error {
		hits = append(hits, h)
		return nil
	})
	return hits, err
}

// sutSearch is one two-hit protein search with the result cache bypassed.
func sutSearch(ctx context.Context, ref *fabp.Reference, q *fabp.Query, threads int) ([]fabp.HSP, error) {
	res, err := fabp.Scan(ctx, fabp.ScanRequest{
		Query: q, Reference: ref, NoCache: true,
		ProteinSearch: &fabp.ProteinSearchOptions{TwoHit: true, Threads: threads},
	})
	if err != nil {
		return nil, err
	}
	return res.HSPs, nil
}

// sutSearchDB is sutSearch against a database, as fabp-serve's /search
// runs it.
func sutSearchDB(ctx context.Context, d *fabp.Database, q *fabp.Query, threads int) ([]fabp.HSP, error) {
	res, err := fabp.Scan(ctx, fabp.ScanRequest{
		Query: q, Database: d, NoCache: true,
		ProteinSearch: &fabp.ProteinSearchOptions{TwoHit: true, Threads: threads},
	})
	if err != nil {
		return nil, err
	}
	return res.HSPs, nil
}

// sutCounter reads one process-wide counter of the facade's telemetry.
func sutCounter(name string) uint64 { return fabp.DefaultMetrics().Snapshot().Counters[name] }

// sutLatency reads one process-wide latency histogram's count and sum.
func sutLatency(name string) (count uint64, sumNs int64) {
	l := fabp.DefaultMetrics().Snapshot().Latencies[name]
	return l.Count, l.SumNs
}

// sutResultCacheOff reports whether the process-wide result cache is
// disabled, as the library workloads require.
func sutResultCacheOff() bool { return fabp.ScanCacheSnapshot().CapacityBytes == 0 }

// serveProc is a running fabp-serve subprocess.
type serveProc struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	logs   chan struct{} // closed when the server's stderr reaches EOF
}

// startServe launches fabp-serve on a database file with default flags
// apart from -db and -addr, and returns once /healthz answers. conns
// bounds the client's connections to the server.
func startServe(bin, dbPath string, conns int) (*serveProc, error) {
	cmd := exec.Command(bin, "-db", dbPath, "-addr", "127.0.0.1:0")
	// The server must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &serveProc{cmd: cmd, logs: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.logs)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "listening on "); ok {
				addr <- a
			}
		}
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.logs:
		s.stop()
		return nil, fmt.Errorf("fabp-serve exited before listening")
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, fmt.Errorf("fabp-serve did not listen within 60s")
	}
	s.client = &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
	}
	for deadline := time.Now().Add(60 * time.Second); ; {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("fabp-serve /healthz never answered 200: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the server down gracefully and returns its peak resident set
// in KiB.
func (s *serveProc) stop() (peakKiB int64, err error) {
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		<-s.logs
		done <- s.cmd.Wait()
	}()
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		err = fmt.Errorf("fabp-serve did not drain within 30s: %v", <-done)
	}
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		peakKiB = ru.Maxrss
	}
	return peakKiB, err
}

// Wire shapes of fabp-serve's responses.
type wireHit struct {
	Record      string `json:"record"`
	RecordIndex int    `json:"record_index"`
	Offset      int    `json:"offset"`
	Score       int    `json:"score"`
}

type wireHSP struct {
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

// wireResp is the union of the /align, /search and /align/batch bodies.
type wireResp struct {
	Hits    []wireHit `json:"hits"`
	HSPs    []wireHSP `json:"hsps"`
	Queries []struct {
		Hits []wireHit `json:"hits"`
	} `json:"queries"`
	Cache     string  `json:"cache"`
	ElapsedMs float64 `json:"elapsed_ms"`
	Error     string  `json:"error"`
}

// serveCall is one request's outcome as the client saw it.
type serveCall struct {
	Status int
	Resp   wireResp
	Sent   time.Time // when the request was handed to the transport
	Done   time.Time // when the response body was read
	Err    error
}

// call sends one request of the given kind; frac is the /align and
// /align/batch threshold fraction.
func (s *serveProc) call(ctx context.Context, kind string, proteins []string, frac float64) serveCall {
	var path string
	var body any
	switch kind {
	case reqSearch:
		path, body = "/search", map[string]any{"query": proteins[0], "two_hit": true}
	case reqBatch:
		path, body = "/align/batch", map[string]any{"queries": proteins, "threshold_frac": frac}
	default:
		path, body = "/align", map[string]any{"query": proteins[0], "threshold_frac": frac}
	}
	buf, _ := json.Marshal(body) // maps of strings and numbers: cannot fail
	c := serveCall{Sent: time.Now()}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+path, bytes.NewReader(buf))
	if err != nil {
		c.Err = err
		return c
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		c.Err, c.Done = err, time.Now()
		return c
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.Done, c.Status = time.Now(), resp.StatusCode
	if err == nil {
		err = json.Unmarshal(raw, &c.Resp)
	}
	if err == nil && c.Status != http.StatusOK {
		err = fmt.Errorf("%s: HTTP %d: %s", path, c.Status, c.Resp.Error)
	}
	c.Err = err
	return c
}

// serveMetrics is the part of fabp-serve's /metrics snapshot the
// benchmark reads.
type serveMetrics struct {
	Counters  map[string]uint64 `json:"counters"`
	Latencies map[string]struct {
		Count uint64 `json:"count"`
		SumNs int64  `json:"sum_ns"`
	} `json:"latencies"`
}

func (s *serveProc) metrics() (*serveMetrics, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	var m serveMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	return &m, nil
}
