package pagestore

import (
	"sync"
	"testing"
)

// TestStoreConcurrentReadersWriters hammers a store with parallel readers
// against writers that rewrite, allocate and free pages. Run under -race this
// validates that the read path (shared lock + atomic counters) never races
// with mutations.
func TestStoreConcurrentReadersWriters(t *testing.T) {
	s := New(256)
	const fixed = 32
	ids := make([]PageID, fixed)
	for i := range ids {
		id, err := s.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}

	var wg sync.WaitGroup
	const iters = 1000

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			buf := make([]byte, 64)
			for i := 0; i < iters; i++ {
				buf[0] = byte(seed + i)
				if err := s.Write(ids[(seed+i)%fixed], buf); err != nil {
					t.Error(err)
					return
				}
				// Churn the allocator too.
				id, err := s.Alloc()
				if err != nil {
					t.Error(err)
					return
				}
				if err := s.Free(id); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := s.Read(ids[(seed+i)%fixed]); err != nil {
					t.Error(err)
					return
				}
				_ = s.Stats()
				_ = s.Live()
			}
		}(r)
	}
	wg.Wait()

	st := s.Stats()
	if st.Reads == 0 || st.Writes == 0 {
		t.Fatalf("expected nonzero traffic, got %+v", st)
	}
	if got := s.Live(); got != fixed {
		t.Fatalf("live pages = %d, want %d", got, fixed)
	}
}
