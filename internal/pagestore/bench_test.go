package pagestore

import (
	"sync/atomic"
	"testing"
)

// benchStore returns a store with n written pages and their IDs.
func benchStore(b *testing.B, n int) (*Store, []PageID) {
	b.Helper()
	s := New(DefaultPageSize)
	sess := NewFullSession(s)
	ids := make([]PageID, n)
	data := make([]byte, DefaultPageSize)
	for i := range data {
		data[i] = byte(i)
	}
	for i := range ids {
		id, err := s.Alloc()
		if err != nil {
			b.Fatal(err)
		}
		if err := sess.Write(id, data); err != nil {
			b.Fatal(err)
		}
		ids[i] = id
	}
	return s, ids
}

// BenchmarkPagestoreView measures the one read path: a liveness check and a
// borrowed slab slice, no copy and no lock.
func BenchmarkPagestoreView(b *testing.B) {
	s, ids := benchStore(b, 1024)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.View(ids[i%len(ids)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPagestoreViewParallel is the read path under GOMAXPROCS-way
// concurrency over a shared working set: only the atomic read counter is
// shared.
func BenchmarkPagestoreViewParallel(b *testing.B) {
	s, ids := benchStore(b, 1024)
	b.ResetTimer()
	b.ReportAllocs()
	var ctr atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(ctr.Add(1))
			if _, err := s.View(ids[i%len(ids)]); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
