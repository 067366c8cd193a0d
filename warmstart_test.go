package fabp

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"fabp/internal/bitpar"
)

// captureWarnings routes the package warn logger into a slice for the
// duration of the test.
func captureWarnings(t *testing.T) *[]string {
	t.Helper()
	var mu sync.Mutex
	var lines []string
	SetWarnLogger(func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	})
	t.Cleanup(func() { SetWarnLogger(nil) })
	return &lines
}

// TestWarmLoadZeroPacking is the tentpole's acceptance check: loading a
// v2 file and scanning it bit-parallel must perform ZERO PackReference
// work — the planes come from the file.
func TestWarmLoadZeroPacking(t *testing.T) {
	d, genes := buildFacadeDB(t)
	var buf bytes.Buffer
	if err := d.SaveDatabase(&buf); err != nil {
		t.Fatal(err)
	}
	d.EvictPlanes() // the save packed once; forget it

	before := DefaultMetrics().Snapshot()
	packsBefore := bitpar.PackCount()
	d2, err := LoadDatabase(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !d2.PlanesResident() {
		t.Fatal("warm load left the database without the file's planes")
	}

	// Scan with the kernel that reads planes.
	q, err := NewQuery(genes[0].Protein)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAligner(q, WithThresholdFraction(0.7), WithKernelType(KernelBitParallel))
	if err != nil {
		t.Fatal(err)
	}
	hits, err := a.AlignDatabaseContext(t.Context(), d2)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("no hits; test is vacuous")
	}
	if n := bitpar.PackCount() - packsBefore; n != 0 {
		t.Fatalf("warm load + scan ran %d PackReference calls, want 0", n)
	}
	after := DefaultMetrics().Snapshot()
	if got := after.Counters["db.load.planes_reused"] - before.Counters["db.load.planes_reused"]; got != 1 {
		t.Errorf("db.load.planes_reused advanced by %d, want 1", got)
	}
	if got := after.Counters["db.load.planes_packed"] - before.Counters["db.load.planes_packed"]; got != 0 {
		t.Errorf("db.load.planes_packed advanced by %d, want 0", got)
	}
}

// TestLoadDatabaseCorruptPlaneFallback: damage confined to the plane
// section loads with a warning and identical scan results.
func TestLoadDatabaseCorruptPlaneFallback(t *testing.T) {
	warnings := captureWarnings(t)
	d, genes := buildFacadeDB(t)
	var buf bytes.Buffer
	if err := d.SaveDatabase(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)-1] ^= 0xFF // inside the plane section CRC
	d.EvictPlanes()

	before := DefaultMetrics().Snapshot()
	d2, err := LoadDatabase(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("plane-section damage must not fail the load: %v", err)
	}
	after := DefaultMetrics().Snapshot()
	if got := after.Counters["db.load.planes_packed"] - before.Counters["db.load.planes_packed"]; got != 1 {
		t.Errorf("db.load.planes_packed advanced by %d, want 1", got)
	}
	if len(*warnings) == 0 || !strings.Contains((*warnings)[0], "plane section rejected") {
		t.Errorf("fallback warning missing: %v", *warnings)
	}

	q, err := NewQuery(genes[0].Protein)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAligner(q, WithThresholdFraction(0.7), WithKernelType(KernelBitParallel))
	if err != nil {
		t.Fatal(err)
	}
	want := a.AlignDatabase(d)
	got := a.AlignDatabase(d2)
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("degraded load scans %d hits, original %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hit %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

// TestLoadDatabaseCorruptPayloadTyped: structural damage outside the
// plane section is a typed error the caller can match.
func TestLoadDatabaseCorruptPayloadTyped(t *testing.T) {
	d, _ := buildFacadeDB(t)
	var buf bytes.Buffer
	if err := d.SaveDatabase(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[100] ^= 0xFF // index/payload region, well before the plane section
	_, err := LoadDatabase(bytes.NewReader(data))
	if !errors.Is(err, ErrCorruptDatabase) {
		t.Fatalf("corruption error %v does not match ErrCorruptDatabase", err)
	}
}

// TestInspectDatabaseFacade checks the facade view of both formats.
func TestInspectDatabaseFacade(t *testing.T) {
	d, _ := buildFacadeDB(t)
	var v2, v1 bytes.Buffer
	if err := d.SaveDatabase(&v2); err != nil {
		t.Fatal(err)
	}
	if err := d.SaveDatabaseLegacy(&v1); err != nil {
		t.Fatal(err)
	}
	i2, err := InspectDatabase(bytes.NewReader(v2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if i2.Version != 2 || !i2.HasPlanes || i2.TotalNt != d.Len() || i2.Records != d.NumRecords() {
		t.Fatalf("v2 info: %+v", i2)
	}
	i1, err := InspectDatabase(bytes.NewReader(v1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if i1.Version != 1 || i1.HasPlanes || i1.Digest != i2.Digest {
		t.Fatalf("v1 info: %+v (v2 digest %s)", i1, i2.Digest)
	}
}
