package main

import (
	"math"
	"slices"
	"sync"
	"time"
)

// latencyWindow keeps the most recent N latency observations per endpoint so
// /v1/stats can report live percentiles without unbounded memory.
const latencyWindow = 8192

// endpointMetrics accumulates per-endpoint serving statistics.
type endpointMetrics struct {
	Count     int64
	Errors    int64
	LeafIO    int64 // sum of per-query leaf pages read
	latencies []time.Duration
	next      int // ring cursor once the window is full
}

// metrics is the server-wide metrics registry. One mutex is plenty: the
// critical section is a few counter bumps, dwarfed by query evaluation.
type metrics struct {
	mu        sync.Mutex
	start     time.Time
	endpoints map[string]*endpointMetrics
}

func newMetrics() *metrics {
	return &metrics{start: time.Now(), endpoints: make(map[string]*endpointMetrics)}
}

// observe records one request against an endpoint.
func (m *metrics) observe(endpoint string, d time.Duration, leafIO int, failed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.endpoints[endpoint]
	if e == nil {
		e = &endpointMetrics{}
		m.endpoints[endpoint] = e
	}
	e.Count++
	if failed {
		e.Errors++
		return
	}
	e.LeafIO += int64(leafIO)
	if len(e.latencies) < latencyWindow {
		e.latencies = append(e.latencies, d)
	} else {
		e.latencies[e.next] = d
		e.next = (e.next + 1) % latencyWindow
	}
}

// endpointSnapshot is the JSON form of one endpoint's statistics.
type endpointSnapshot struct {
	Count      int64   `json:"count"`
	Errors     int64   `json:"errors"`
	MeanLeafIO float64 `json:"mean_leaf_io"`
	P50Micros  int64   `json:"p50_us"`
	P95Micros  int64   `json:"p95_us"`
	P99Micros  int64   `json:"p99_us"`
}

// snapshot returns per-endpoint statistics plus the server uptime. It only
// copies the windows under the mutex every request's observe takes; the
// sorts run after it is released.
func (m *metrics) snapshot() (map[string]endpointSnapshot, time.Duration) {
	m.mu.Lock()
	out := make(map[string]endpointSnapshot, len(m.endpoints))
	windows := make(map[string][]time.Duration, len(m.endpoints))
	for name, e := range m.endpoints {
		s := endpointSnapshot{Count: e.Count, Errors: e.Errors}
		if ok := e.Count - e.Errors; ok > 0 {
			s.MeanLeafIO = float64(e.LeafIO) / float64(ok)
		}
		out[name] = s
		windows[name] = append([]time.Duration(nil), e.latencies...)
	}
	uptime := time.Since(m.start)
	m.mu.Unlock()

	for name, sorted := range windows {
		slices.Sort(sorted)
		s := out[name]
		s.P50Micros = percentile(sorted, 0.50).Microseconds()
		s.P95Micros = percentile(sorted, 0.95).Microseconds()
		s.P99Micros = percentile(sorted, 0.99).Microseconds()
		out[name] = s
	}
	return out, uptime
}

// percentile reads the p-quantile from an ascending-sorted sample by the
// nearest-rank rule.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
