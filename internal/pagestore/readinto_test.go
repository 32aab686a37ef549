package pagestore

import (
	"bytes"
	"testing"
)

func TestReadInto(t *testing.T) {
	s := New(128)
	id, err := s.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xAB}, 100)
	if err := s.Write(id, data); err != nil {
		t.Fatal(err)
	}

	dst := make([]byte, 128)
	if err := s.ReadInto(id, dst); err != nil {
		t.Fatal(err)
	}
	want, _ := s.Read(id)
	if !bytes.Equal(dst, want) {
		t.Fatal("ReadInto contents differ from Read")
	}

	if err := s.ReadInto(id, make([]byte, 64)); err == nil {
		t.Fatal("expected error for short destination buffer")
	}
	if err := s.ReadInto(999, dst); err == nil {
		t.Fatal("expected error for unknown page")
	}

	before := s.Stats().Reads
	_ = s.ReadInto(id, dst)
	if got := s.Stats().Reads - before; got != 1 {
		t.Fatalf("ReadInto counted %d reads, want 1", got)
	}
}

// TestReadIntoZeroAlloc pins the core tentpole property: a pooled-buffer
// read performs no heap allocation.
func TestReadIntoZeroAlloc(t *testing.T) {
	s := New(DefaultPageSize)
	id, _ := s.Alloc()
	if err := s.Write(id, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf := s.AcquirePage()
		if err := s.ReadInto(id, *buf); err != nil {
			t.Fatal(err)
		}
		s.ReleasePage(buf)
	})
	if allocs != 0 {
		t.Fatalf("pooled ReadInto allocates %.1f times per op, want 0", allocs)
	}
}

func TestAcquireReleasePage(t *testing.T) {
	s := New(256)
	buf := s.AcquirePage()
	if len(*buf) != 256 {
		t.Fatalf("AcquirePage returned %d bytes, want 256", len(*buf))
	}
	s.ReleasePage(buf)
	// Wrong-size or nil buffers must be rejected, not pooled.
	wrong := make([]byte, 128)
	s.ReleasePage(&wrong)
	s.ReleasePage(nil)
	if got := s.AcquirePage(); len(*got) != 256 {
		t.Fatalf("pool handed out a %d-byte buffer after bad release", len(*got))
	}
}

// TestShardedAllocFreeReuse checks the allocator across shards: freed IDs
// are reused and Live stays exact.
func TestShardedAllocFreeReuse(t *testing.T) {
	s := New(64)
	var ids []PageID
	for i := 0; i < 3*numShards; i++ {
		id, err := s.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if s.Live() != 3*numShards {
		t.Fatalf("Live = %d, want %d", s.Live(), 3*numShards)
	}
	for _, id := range ids[:numShards] {
		if err := s.Free(id); err != nil {
			t.Fatal(err)
		}
	}
	if s.Live() != 2*numShards {
		t.Fatalf("Live after frees = %d, want %d", s.Live(), 2*numShards)
	}
	id, err := s.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	// Reuse comes off the free list (LIFO), so the most recently freed ID
	// must come back first; a brand-new ID would mean it was ignored.
	if id != ids[numShards-1] {
		t.Fatalf("Alloc returned ID %d instead of reusing freed ID %d", id, ids[numShards-1])
	}
}
