package sched

import (
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
	if got := gather(p, n, func(i int) []int { return []int{i} }); len(got) != n {
		t.Fatalf("gathered %d items, want %d", len(got), n)
	}

	s := reg.Snapshot()
	if got := s.Counters["pool.tasks.completed"]; got != 2*n {
		t.Errorf("completed = %d, want %d", got, 2*n)
	}
	for _, gauge := range []string{"pool.tasks.queued", "pool.tasks.running"} {
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
