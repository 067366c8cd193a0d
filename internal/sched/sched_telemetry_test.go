package sched

import (
	"errors"
	"testing"
	"time"

	"fabp/internal/telemetry"
)

// TestPoolMetricsReconcile: after a quiet pool finishes, completed-task
// counts match submissions and every level gauge is back to zero.
func TestPoolMetricsReconcile(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := NewPool(3)
	p.SetMetrics(reg)

	const n = 25
	p.Each(n, func(i int) { time.Sleep(time.Microsecond) })
	if err := streamOrdered(p, n,
		func(i int) ([]int, error) { return []int{i}, nil },
		func(int) error { return nil },
	); err != nil {
		t.Fatal(err)
	}

	s := reg.Snapshot()
	if got := s.Counters["pool.tasks.completed"]; got != 2*n {
		t.Errorf("completed = %d, want %d", got, 2*n)
	}
	for _, gauge := range []string{"pool.tasks.queued", "pool.tasks.running", "pool.merge.backlog"} {
		if lvl := s.Gauges[gauge]; lvl != 0 {
			t.Errorf("%s = %d after idle, want 0", gauge, lvl)
		}
	}
	if s.Histograms["pool.task.run"].Count != 2*n {
		t.Errorf("run histogram count = %d, want %d", s.Histograms["pool.task.run"].Count, 2*n)
	}
	if s.Histograms["pool.task.wait"].Count == 0 {
		t.Error("wait histogram recorded nothing")
	}
}

// TestStreamOrderedBacklogDrainsOnEarlyStop: an emit error abandons
// in-flight results; the merge-backlog gauge must still return to zero.
func TestStreamOrderedBacklogDrainsOnEarlyStop(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := NewPool(4)
	p.SetMetrics(reg)

	boom := errors.New("boom")
	err := streamOrdered(p, 64,
		func(i int) ([]int, error) {
			time.Sleep(time.Duration(i%5) * time.Millisecond)
			return []int{i}, nil
		},
		func(v int) error {
			if v >= 3 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// The dispatcher drains abandoned results asynchronously; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if reg.Snapshot().Gauges["pool.merge.backlog"] == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("backlog stuck at %d", reg.Snapshot().Gauges["pool.merge.backlog"])
		}
		time.Sleep(time.Millisecond)
	}
	if lvl := reg.Snapshot().Gauges["pool.tasks.queued"]; lvl != 0 {
		t.Errorf("queued = %d after stop", lvl)
	}
}

// TestSerialPoolStillCounts: the Workers()==1 inline fast path must
// record the same counters as the goroutine path.
func TestSerialPoolStillCounts(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := NewPool(1)
	p.SetMetrics(reg)
	p.Each(7, func(i int) {})
	s := reg.Snapshot()
	if s.Counters["pool.tasks.completed"] != 7 {
		t.Errorf("completed = %d, want 7", s.Counters["pool.tasks.completed"])
	}
	if s.Gauges["pool.tasks.running"] != 0 {
		t.Errorf("running = %d", s.Gauges["pool.tasks.running"])
	}
}
