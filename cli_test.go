package fabp_test

// Smoke tests for the command-line tools: build each binary once and drive
// its primary flows end-to-end through real files.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"fabp"
)

// buildCLIs compiles every cmd/ binary into a shared temp dir once per
// test binary invocation.
var cliDir string

func buildCLI(t *testing.T, name string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short")
	}
	if cliDir == "" {
		cliDir = t.TempDir()
	}
	bin := filepath.Join(cliDir, name)
	if _, err := os.Stat(bin); err == nil {
		return bin
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestCLITranslate(t *testing.T) {
	bin := buildCLI(t, "fabp-translate")
	out := run(t, bin, "MFSR*")
	for _, want := range []string{"AUG-UU(U/C)-UCD", "Type III", "15 x 6-bit"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	table := run(t, bin, "-table")
	if !strings.Contains(table, "Leu (L)") {
		t.Error("table output wrong")
	}
}

func TestCLIDBRoundTrip(t *testing.T) {
	bin := buildCLI(t, "fabp-db")
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "demo.fabp")

	out := run(t, bin, "demo", "-out", dbPath)
	if !strings.Contains(out, "-query ") {
		t.Fatalf("demo output: %s", out)
	}
	query := strings.TrimSpace(strings.Split(strings.Split(out, "-query ")[1], "\n")[0])

	info := run(t, bin, "info", "-db", dbPath)
	if !strings.Contains(info, "100000 nt") {
		t.Errorf("info output: %s", info)
	}
	search := run(t, bin, "search", "-db", dbPath, "-query", query)
	if !strings.Contains(search, "score") {
		t.Errorf("search output: %s", search)
	}

	// build from FASTA.
	fasta := filepath.Join(dir, "ref.fasta")
	if err := os.WriteFile(fasta, []byte(">r1\nACGTACGTACGTACGT\n>r2\nGGGGCCCC\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	built := filepath.Join(dir, "built.fabp")
	out = run(t, bin, "build", "-in", fasta, "-out", built)
	if !strings.Contains(out, "2 records") {
		t.Errorf("build output: %s", out)
	}
}

// TestCLIDBVerifyCorruption drives the v2 integrity surface end-to-end:
// build → verify → align round-trip, then two kinds of damage — a clipped
// plane section (graceful degrade, exit 0) and a payload flip (hard
// failure, exit 1).
func TestCLIDBVerifyCorruption(t *testing.T) {
	dbBin := buildCLI(t, "fabp-db")
	alignBin := buildCLI(t, "fabp-align")
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "demo.fabp")

	out := run(t, dbBin, "demo", "-out", dbPath)
	query := strings.TrimSpace(strings.Split(strings.Split(out, "-query ")[1], "\n")[0])

	// verify + inspect on the intact file.
	v := run(t, dbBin, "verify", "-db", dbPath)
	if !strings.Contains(v, ": OK — v2") {
		t.Errorf("verify: %s", v)
	}
	var info struct {
		Version   int    `json:"version"`
		Digest    string `json:"digest"`
		HasPlanes bool   `json:"has_planes"`
	}
	if err := json.Unmarshal([]byte(run(t, dbBin, "inspect", "-db", dbPath, "-json")), &info); err != nil {
		t.Fatalf("inspect -json: %v", err)
	}
	if info.Version != 2 || !info.HasPlanes || len(info.Digest) != 64 {
		t.Errorf("inspect = %+v", info)
	}

	// Round-trip through fabp-align -db: a warm start should find the
	// planted gene.
	qFasta := filepath.Join(dir, "q.fasta")
	if err := os.WriteFile(qFasta, []byte(">planted\n"+query+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	aOut := run(t, alignBin, "-query", qFasta, "-db", dbPath, "-threshold-frac", "0.85")
	if !strings.Contains(aOut, "database: ") || strings.Contains(aOut, ": 0 hits") {
		t.Errorf("align -db: %s", aOut)
	}

	good, err := os.ReadFile(dbPath)
	if err != nil {
		t.Fatal(err)
	}

	// Clip the plane section tail: still loadable, verify reports degraded.
	clipped := filepath.Join(dir, "clipped.fabp")
	if err := os.WriteFile(clipped, good[:len(good)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	v = run(t, dbBin, "verify", "-db", clipped)
	if !strings.Contains(v, "OK (degraded)") || !strings.Contains(v, "plane section rejected") {
		t.Errorf("verify clipped: %s", v)
	}
	// The degraded file still answers queries (falls back to packing).
	aOut = run(t, alignBin, "-query", qFasta, "-db", clipped, "-threshold-frac", "0.85")
	if strings.Contains(aOut, ": 0 hits") {
		t.Errorf("align degraded db found nothing: %s", aOut)
	}

	// Flip a payload byte: verify must fail with a corruption message.
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0xFF
	badPath := filepath.Join(dir, "bad.fabp")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	cOut, cErr := exec.Command(dbBin, "verify", "-db", badPath).CombinedOutput()
	if cErr == nil {
		t.Errorf("verify accepted a corrupted payload:\n%s", cOut)
	}
	if !strings.Contains(string(cOut), "payload section") {
		t.Errorf("verify error does not name the damaged section:\n%s", cOut)
	}
}

func TestCLIRTL(t *testing.T) {
	bin := buildCLI(t, "fabp-rtl")
	dir := t.TempDir()
	mod := filepath.Join(dir, "m.v")
	tb := filepath.Join(dir, "tb.v")
	prim := filepath.Join(dir, "prim.v")
	dot := filepath.Join(dir, "g.dot")
	run(t, bin, "-residues", "2", "-beat", "4",
		"-o", mod, "-tb", tb, "-primlib", prim, "-dot", dot)
	for path, want := range map[string]string{
		mod:  "module fabp_q6_b4",
		tb:   "TESTBENCH PASS",
		prim: "module LUT6",
		dot:  "digraph",
	} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !strings.Contains(string(data), want) {
			t.Errorf("%s missing %q", path, want)
		}
	}
	report := run(t, bin, "-residues", "50", "-report-only")
	if !strings.Contains(report, "bandwidth-bound") || !strings.Contains(report, "Fmax") {
		t.Errorf("report: %s", report)
	}
}

func TestCLIAlignDemo(t *testing.T) {
	bin := buildCLI(t, "fabp-align")
	out := run(t, bin, "-demo", "-auto-threshold", "-top", "2")
	for _, want := range []string{"planted gene 0", "E=", "hits"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in demo output", want)
		}
	}
}

// TestCLIAlignMetrics checks the -metrics dump: valid JSON whose counters
// reconcile — shards run == shards planned — and, for a v2 database file,
// a warm load: every query scans the file's planes, none packed in-process.
func TestCLIAlignMetrics(t *testing.T) {
	bin := buildCLI(t, "fabp-align")
	counters := func(out string) map[string]uint64 {
		t.Helper()
		_, jsonPart, found := strings.Cut(out, "=== metrics\n")
		if !found {
			t.Fatalf("no metrics section in output:\n%s", out)
		}
		var snap struct {
			Counters map[string]uint64 `json:"counters"`
		}
		if err := json.Unmarshal([]byte(jsonPart), &snap); err != nil {
			t.Fatalf("metrics are not valid JSON: %v\n%s", err, jsonPart)
		}
		return snap.Counters
	}
	c := counters(run(t, bin, "-demo", "-metrics"))
	if c["align.queries.started"] == 0 {
		t.Error("no queries recorded")
	}
	if c["scan.shards.run"] != c["scan.shards.planned"] || c["scan.shards.run"] == 0 {
		t.Errorf("shards run %d != planned %d", c["scan.shards.run"], c["scan.shards.planned"])
	}

	dir := t.TempDir()
	ref, genes := fabp.SyntheticReference(23, 20_000, 2, 30)
	d, err := fabp.BuildDatabase(strings.NewReader(">synt\n" + ref.String() + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := d.SaveDatabase(&v2); err != nil {
		t.Fatal(err)
	}
	dbPath, qPath := filepath.Join(dir, "synt.fdb"), filepath.Join(dir, "q.fasta")
	if err := os.WriteFile(dbPath, v2.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(qPath, []byte(">g0\n"+genes[0].Protein+"\n>g1\n"+genes[1].Protein+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	c = counters(run(t, bin, "-query", qPath, "-db", dbPath, "-metrics"))
	if c["db.load.planes_reused"] != 1 || c["db.load.planes_packed"] != 0 {
		t.Errorf("v2 load: planes_reused %d, planes_packed %d; want 1 and 0",
			c["db.load.planes_reused"], c["db.load.planes_packed"])
	}
	if c["align.queries.started"] == 0 {
		t.Error("no queries recorded on the database file")
	}
}

// TestCLIServeSmoke drives fabp-serve as a real process: preload a FASTA,
// answer /healthz and one /align query over HTTP, then exit cleanly on
// SIGTERM after draining.
func TestCLIServeSmoke(t *testing.T) {
	bin := buildCLI(t, "fabp-serve")
	dir := t.TempDir()

	ref, genes := fabp.SyntheticReference(31, 20_000, 2, 30)
	fasta := filepath.Join(dir, "ref.fasta")
	if err := os.WriteFile(fasta, []byte(">synt\n"+ref.String()+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(bin, "-ref", fasta, "-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() // backstop; the SIGTERM path below is the real exit

	// The server logs its bound address once the listener is up. logDone
	// closes once the scanner drains the pipe; readers of logTail after
	// process exit must wait on it, or they race the final log lines.
	var logTail bytes.Buffer
	addrCh := make(chan string, 1)
	logDone := make(chan struct{})
	go func() {
		defer close(logDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			logTail.WriteString(line + "\n")
			if _, a, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addrCh <- a:
				default:
				}
			}
		}
	}()
	var base string
	select {
	case a := <-addrCh:
		base = "http://" + a
	case <-time.After(30 * time.Second):
		t.Fatalf("server never reported its address:\n%s", logTail.String())
	}

	hz, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	var health struct {
		Status   string `json:"status"`
		LengthNt int    `json:"length_nt"`
	}
	err = json.NewDecoder(hz.Body).Decode(&health)
	hz.Body.Close()
	if err != nil || health.Status != "ok" || health.LengthNt != 20_000 {
		t.Fatalf("healthz = %+v (%v)", health, err)
	}

	reqBody := []byte(`{"query":"` + genes[0].Protein + `"}`)
	resp, err := http.Post(base+"/align", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatalf("align: %v", err)
	}
	var res struct {
		Hits []struct {
			Score int `json:"score"`
		} `json:"hits"`
	}
	err = json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || len(res.Hits) == 0 {
		t.Fatalf("align status %d, hits %d (%v)", resp.StatusCode, len(res.Hits), err)
	}

	// Graceful shutdown: SIGTERM drains and exits 0. Drain stderr to EOF
	// before reaping: Wait closes the pipe, and closing it mid-read can
	// drop the final log lines the assertions below depend on.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-logDone:
	case <-time.After(30 * time.Second):
		t.Fatalf("stderr never reached EOF after SIGTERM:\n%s", logTail.String())
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("fabp-serve exited %v after SIGTERM:\n%s", err, logTail.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("fabp-serve did not exit after SIGTERM:\n%s", logTail.String())
	}
	if !strings.Contains(logTail.String(), "drained; bye") {
		t.Errorf("missing drain farewell in log:\n%s", logTail.String())
	}
}

func TestCLIBench(t *testing.T) {
	bin := buildCLI(t, "fabp-bench")
	list := run(t, bin, "-list")
	if !strings.Contains(list, "table1") || !strings.Contains(list, "fig6a") {
		t.Errorf("list: %s", list)
	}
	out := run(t, bin, "-exp", "encoding", "-format", "csv")
	if !strings.Contains(out, "amino acid,codons") {
		t.Errorf("csv experiment output: %s", out)
	}
}
