package pagestore

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

func TestAllocReadWrite(t *testing.T) {
	s := New(128)
	id, err := s.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 {
		t.Fatal("zero page ID allocated")
	}
	data := []byte("hello page store")
	if err := NewFullSession(s).Write(id, data); err != nil {
		t.Fatal(err)
	}
	got, err := s.View(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:len(data)], data) {
		t.Fatalf("read back %q", got[:len(data)])
	}
	for _, b := range got[len(data):] {
		if b != 0 {
			t.Fatal("page not zero-padded")
		}
	}
	st := s.Stats()
	if st.Reads != 1 || st.Writes != 1 || st.Allocs != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWriteOverflow(t *testing.T) {
	s := New(16)
	id, _ := s.Alloc()
	if err := NewFullSession(s).Write(id, make([]byte, 17)); err == nil {
		t.Fatal("oversized write accepted")
	}
}

func TestWriteShorterClearsOldContent(t *testing.T) {
	s := New(16)
	id, _ := s.Alloc()
	sess := NewFullSession(s)
	_ = sess.Write(id, bytes.Repeat([]byte{0xff}, 16))
	_ = sess.Write(id, []byte{1, 2})
	got, _ := s.View(id)
	if got[0] != 1 || got[1] != 2 {
		t.Fatal("prefix lost")
	}
	for _, b := range got[2:] {
		if b != 0 {
			t.Fatal("stale bytes survive shorter write")
		}
	}
}

func TestFreeAndReuse(t *testing.T) {
	s := New(32)
	id1, _ := s.Alloc()
	if err := s.Free(id1); err != nil {
		t.Fatal(err)
	}
	if err := s.Free(id1); err == nil {
		t.Fatal("double free accepted")
	}
	if _, err := s.View(id1); err == nil {
		t.Fatal("read of freed page accepted")
	}
	id2, _ := s.Alloc()
	if id2 != id1 {
		t.Fatalf("freed page not reused: got %d want %d", id2, id1)
	}
	got, _ := s.View(id2)
	for _, b := range got {
		if b != 0 {
			t.Fatal("reused page not zeroed")
		}
	}
	if s.Live() != 1 {
		t.Fatalf("Live = %d", s.Live())
	}
}

func TestLimit(t *testing.T) {
	s := NewLimited(32, 2)
	if _, err := s.Alloc(); err != nil {
		t.Fatal(err)
	}
	id2, err := s.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Alloc(); !errors.Is(err, ErrFull) {
		t.Fatalf("expected ErrFull, got %v", err)
	}
	// Freeing makes room again.
	_ = s.Free(id2)
	if _, err := s.Alloc(); err != nil {
		t.Fatalf("alloc after free: %v", err)
	}
}

func TestStatsSubAndReset(t *testing.T) {
	s := New(32)
	id, _ := s.Alloc()
	before := s.Stats()
	_ = NewFullSession(s).Write(id, []byte{1})
	_, _ = s.View(id)
	_, _ = s.View(id)
	delta := s.Stats().Sub(before)
	if delta.Reads != 2 || delta.Writes != 1 || delta.IO() != 3 {
		t.Fatalf("delta = %+v", delta)
	}
	// A delta over a window without traffic is zero: the counters are
	// never reset, callers take deltas.
	mark := s.Stats()
	if st := s.Stats().Sub(mark); st != (Stats{}) {
		t.Fatalf("idle delta = %+v", st)
	}
	if mark.Allocs != 1 {
		t.Fatalf("alloc counter should persist: %+v", mark)
	}
}

func TestDefaultPageSize(t *testing.T) {
	s := New(0)
	if s.PageSize() != DefaultPageSize {
		t.Fatalf("PageSize = %d", s.PageSize())
	}
}

// TestConcurrentAccess runs eight writers, each in its own copy-on-write
// session, beside one another: every writer allocates, writes, views and
// frees pages of its own and views pages a full session published before it
// started, which it must never see change. The counters must add up exactly.
func TestConcurrentAccess(t *testing.T) {
	s := New(64)
	published := make([]PageID, 32)
	full := NewFullSession(s)
	for i := range published {
		published[i], _ = s.Alloc()
		_ = full.Write(published[i], []byte{byte(i)})
	}
	before := s.Stats()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var freed []PageID
			sess := NewCOWSession(s, &freed)
			for i := 0; i < 100; i++ {
				id, err := sess.Alloc()
				if err != nil {
					t.Error(err)
					return
				}
				if err := sess.Write(id, []byte{byte(w)}); err != nil {
					t.Error(err)
					return
				}
				k := (w*100 + i) % len(published)
				if p, err := s.View(published[k]); err != nil || p[0] != byte(k) {
					t.Errorf("published page %d: %v, %v", published[k], p, err)
					return
				}
				if err := sess.Free(id); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats().Sub(before)
	if st.Reads != 800 || st.Writes != 800 || st.Allocs != 800 || st.Frees != 800 {
		t.Fatalf("stats after concurrent ops: %+v", st)
	}
	if s.Live() != len(published) {
		t.Fatalf("Live = %d, want %d", s.Live(), len(published))
	}
}
