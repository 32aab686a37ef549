package pagestore

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// TestStoreConcurrentReadersWriters hammers a store with lock-free readers of
// published pages against writers that follow the copy-on-write rule: each
// writer shadows a published page onto a fresh one of its own session,
// writes it, is refused when it tries the published page itself, and frees
// its shadow — churning the allocator the readers' liveness checks consult.
// Readers must see every published page exactly as it was written. Run under
// -race this validates that the ownership rule alone keeps View and writes
// apart, with no lock on either side.
func TestStoreConcurrentReadersWriters(t *testing.T) {
	s := New(256)
	const fixed = 32
	ids := make([]PageID, fixed)
	full := NewFullSession(s)
	for i := range ids {
		id, err := s.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := full.Write(id, fmt.Appendf(nil, "published-%d", i)); err != nil {
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
			var freed []PageID
			sess := NewCOWSession(s, &freed)
			buf := make([]byte, 64)
			for i := 0; i < iters; i++ {
				buf[0] = byte(seed + i)
				shadow, err := sess.Alloc()
				if err != nil {
					t.Error(err)
					return
				}
				if err := sess.Write(shadow, buf); err != nil {
					t.Error(err)
					return
				}
				if err := sess.Write(ids[(seed+i)%fixed], buf); err == nil {
					t.Error("a copy-on-write session rewrote a published page")
					return
				}
				if err := sess.Free(shadow); err != nil {
					t.Error(err)
					return
				}
			}
			if len(freed) != 0 {
				t.Errorf("freeing the session's own pages deferred %d frees", len(freed))
			}
		}(w)
	}

	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (seed + i) % fixed
				p, err := s.View(ids[k])
				if err != nil {
					t.Error(err)
					return
				}
				if want := fmt.Appendf(nil, "published-%d", k); !bytes.Equal(p[:len(want)], want) {
					t.Errorf("published page %d reads %q, want %q", ids[k], p[:len(want)], want)
					return
				}
				_ = s.Stats()
				_ = s.Live()
			}
		}(r)
	}
	wg.Wait()

	st := s.Stats()
	if st.Reads != 8*iters || st.Writes != fixed+4*iters {
		t.Fatalf("stats = %+v, want %d reads and %d writes", st, 8*iters, fixed+4*iters)
	}
	if got := s.Live(); got != fixed {
		t.Fatalf("live pages = %d, want %d", got, fixed)
	}
}
