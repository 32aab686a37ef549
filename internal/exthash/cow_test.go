package exthash

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"pvoronoi/internal/pagestore"
)

// TestCloneCOWIsolation churns a COW clone (overwrites, deletes, splits,
// directory doubling) and checks the sealed original still serves every
// key's original value: bucket shadowing and deferred value-chain frees
// must never disturb pages the original references.
func TestCloneCOWIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	store := pagestore.New(256)
	tab, err := New(store)
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint32][]byte{}
	for i := uint32(0); i < 120; i++ {
		val := make([]byte, 10+rng.Intn(600)) // some values span chain pages
		rng.Read(val)
		if err := tab.Put(i, val); err != nil {
			t.Fatal(err)
		}
		want[i] = val
	}
	liveBefore := store.Live()

	var freed []pagestore.PageID
	clone := tab.CloneCOW(&freed)
	for i := uint32(0); i < 60; i++ {
		val := make([]byte, 10+rng.Intn(600))
		rng.Read(val)
		if err := clone.Put(i, val); err != nil { // overwrite
			t.Fatal(err)
		}
	}
	for i := uint32(60); i < 90; i++ {
		if ok, err := clone.Delete(i); err != nil || !ok {
			t.Fatalf("clone delete %d: ok=%v err=%v", i, ok, err)
		}
	}
	for i := uint32(1000); i < 1200; i++ { // force splits + dir doubling
		if err := clone.Put(i, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	// The sealed original serves every original value byte-for-byte.
	for k, v := range want {
		got, ok, err := get(tab, k)
		if err != nil || !ok {
			t.Fatalf("original lost key %d: ok=%v err=%v", k, ok, err)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("original value for key %d changed", k)
		}
	}
	if tab.Len() != 120 {
		t.Fatalf("original size changed: %d", tab.Len())
	}

	// Reclaim the deferred pages; the clone must stay fully readable.
	if len(freed) == 0 {
		t.Fatal("clone churn deferred no frees — COW shadowing did not engage")
	}
	for _, p := range freed {
		if err := store.Free(p); err != nil {
			t.Fatalf("freeing deferred page %d: %v", p, err)
		}
	}
	for i := uint32(0); i < 60; i++ {
		if _, ok, err := get(clone, i); err != nil || !ok {
			t.Fatalf("clone lost key %d after reclaim: ok=%v err=%v", i, ok, err)
		}
	}
	for i := uint32(60); i < 90; i++ {
		if _, ok, _ := get(clone, i); ok {
			t.Fatalf("clone still has deleted key %d", i)
		}
	}
	_ = liveBefore
}

// TestCloneCOWAbort verifies AbortCOW returns every session page.
func TestCloneCOWAbort(t *testing.T) {
	store := pagestore.New(256)
	tab, err := New(store)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 50; i++ {
		if err := tab.Put(i, []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	liveBefore := store.Live()

	var freed []pagestore.PageID
	clone := tab.CloneCOW(&freed)
	for i := uint32(0); i < 50; i++ {
		if err := clone.Put(i+100, []byte("fresh")); err != nil {
			t.Fatal(err)
		}
	}
	clone.AbortCOW()
	if live := store.Live(); live != liveBefore {
		t.Fatalf("abort leaked pages: %d live, want %d", live, liveBefore)
	}
	for i := uint32(0); i < 50; i++ {
		if _, ok, err := get(tab, i); err != nil || !ok {
			t.Fatalf("original lost key %d after abort", i)
		}
	}
}
