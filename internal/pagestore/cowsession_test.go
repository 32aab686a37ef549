package pagestore

import (
	"bytes"
	"testing"
)

// TestCOWSessionWritesOnlyOwnedPages pins the store's contract: a
// copy-on-write session writes the pages it allocated and refuses every
// other page, leaving its bytes and the write counter alone; a full session
// writes any live page.
func TestCOWSessionWritesOnlyOwnedPages(t *testing.T) {
	s := New(64)
	full := NewFullSession(s)
	shared, err := full.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := full.Write(shared, []byte("published")); err != nil {
		t.Fatalf("full session refused a page: %v", err)
	}

	var freed []PageID
	sess := NewCOWSession(s, &freed)
	before := s.Stats()
	if err := sess.Write(shared, []byte("clobbered")); err == nil {
		t.Fatal("COW session wrote a page it does not own")
	}
	if p, _ := s.View(shared); !bytes.Equal(p[:9], []byte("published")) {
		t.Fatalf("refused write changed the page: %q", p[:9])
	}
	if got := s.Stats().Sub(before).Writes; got != 0 {
		t.Fatalf("refused write counted %d writes", got)
	}

	own, err := sess.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Write(own, []byte("shadow")); err != nil {
		t.Fatalf("COW session refused its own allocation: %v", err)
	}
	if p, _ := s.View(own); !bytes.Equal(p[:6], []byte("shadow")) {
		t.Fatalf("own page reads %q", p[:6])
	}

	// A page the session stopped referencing is not its to write: the free
	// is deferred and the page stays as it was for older readers.
	if err := sess.Free(shared); err != nil {
		t.Fatal(err)
	}
	if len(freed) != 1 || freed[0] != shared {
		t.Fatalf("deferred frees = %v, want [%d]", freed, shared)
	}
	if err := sess.Write(shared, []byte("clobbered")); err == nil {
		t.Fatal("COW session wrote a shared page after freeing it")
	}
	// An owned page the session frees is gone at once: no session writes it.
	if err := sess.Free(own); err != nil {
		t.Fatal(err)
	}
	if err := sess.Write(own, []byte("x")); err == nil {
		t.Fatal("COW session wrote a page it freed")
	}
	if err := full.Write(own, []byte("x")); err == nil {
		t.Fatal("full session wrote a freed page")
	}
}
