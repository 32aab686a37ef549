package main

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestMetricsObserveDuringSnapshot runs observe on several goroutines while
// snapshot reads the windows, so -race patrols the copy made under the mutex
// and the sort done after it; the final snapshot must count every request
// and read its percentiles from the whole window.
func TestMetricsObserveDuringSnapshot(t *testing.T) {
	m := newMetrics()
	const (
		writers = 4
		perW    = 3000
	)
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= perW; i++ {
				m.observe(fmt.Sprintf("ep%d", w%2), time.Duration(i)*time.Microsecond, 1, i%100 == 0)
			}
		}(w)
	}
	snapshots := 0
	go func() {
		wg.Wait()
		close(done)
	}()
	for running := true; running; snapshots++ {
		select {
		case <-done:
			running = false
		default:
		}
		eps, _ := m.snapshot()
		for name, s := range eps {
			if s.P50Micros > s.P95Micros || s.P95Micros > s.P99Micros || s.Errors > s.Count {
				t.Fatalf("snapshot %d, %s: inconsistent %+v", snapshots, name, s)
			}
		}
	}

	eps, _ := m.snapshot()
	for _, name := range []string{"ep0", "ep1"} {
		s := eps[name]
		// Two writers per endpoint: 6 000 requests, 60 failed; the window holds
		// the 5 940 successes, two each of 1…3 000 µs but every hundredth.
		if s.Count != 2*perW || s.Errors != 2*perW/100 || s.MeanLeafIO != 1 {
			t.Fatalf("%s: %+v, want count %d, errors %d, mean leaf I/O 1", name, s, 2*perW, 2*perW/100)
		}
		if s.P50Micros < 1400 || s.P50Micros > 1600 || s.P99Micros < 2900 {
			t.Fatalf("%s: percentiles %d/%d/%d µs do not come from the whole window", name, s.P50Micros, s.P95Micros, s.P99Micros)
		}
	}
	t.Logf("%d snapshots taken during %d observes", snapshots, writers*perW)
}
