package exthash

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"pvoronoi/internal/pagestore"
)

// get is GetView with the value cloned, for tests that keep or compare it
// past later mutations.
func get(tab *Table, key uint32) ([]byte, bool, error) {
	v, ok, err := tab.GetView(key)
	return bytes.Clone(v), ok, err
}

func newTable(t *testing.T, pageSize int) *Table {
	t.Helper()
	tab, err := New(pagestore.New(pageSize))
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestWriteValueWritesEachPageOnce holds a p-page value to p page writes and
// no page read: every chain page is allocated before its predecessor is
// written, so none is read back and patched.
func TestWriteValueWritesEachPageOnce(t *testing.T) {
	tab := newTable(t, 128)
	const p = 9 // 120 data bytes per page
	before := tab.store.Stats()
	if err := tab.Put(1, make([]byte, p*120-7)); err != nil {
		t.Fatal(err)
	}
	d := tab.store.Stats().Sub(before)
	// Besides the chain: one view and one write of the bucket.
	if d.Writes != p+1 || d.Reads != 1 || d.Allocs != p {
		t.Fatalf("a %d-page Put cost %+v, want %d writes, 1 read, %d allocs", p, d, p+1, p)
	}
}

func TestPutGetDelete(t *testing.T) {
	tab := newTable(t, 256)
	if err := tab.Put(42, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := get(tab, 42)
	if err != nil || !ok || !bytes.Equal(v, []byte("hello")) {
		t.Fatalf("Get = %q, %v, %v", v, ok, err)
	}
	if _, ok, _ := get(tab, 43); ok {
		t.Fatal("missing key found")
	}
	// Replace.
	if err := tab.Put(42, []byte("world, longer value")); err != nil {
		t.Fatal(err)
	}
	v, ok, _ = get(tab, 42)
	if !ok || !bytes.Equal(v, []byte("world, longer value")) {
		t.Fatalf("after replace: %q", v)
	}
	if tab.Len() != 1 {
		t.Fatalf("Len = %d", tab.Len())
	}
	deleted, err := tab.Delete(42)
	if err != nil || !deleted {
		t.Fatalf("Delete = %v, %v", deleted, err)
	}
	if _, ok, _ := get(tab, 42); ok {
		t.Fatal("deleted key still present")
	}
	if deleted, _ := tab.Delete(42); deleted {
		t.Fatal("double delete reported success")
	}
	if tab.Len() != 0 {
		t.Fatalf("Len = %d", tab.Len())
	}
}

func TestEmptyValue(t *testing.T) {
	tab := newTable(t, 256)
	if err := tab.Put(1, nil); err != nil {
		t.Fatal(err)
	}
	v, ok, err := get(tab, 1)
	if err != nil || !ok || len(v) != 0 {
		t.Fatalf("empty value roundtrip: %v %v %v", v, ok, err)
	}
}

func TestLargeValuesSpanPages(t *testing.T) {
	tab := newTable(t, 128)
	val := make([]byte, 10_000) // ~84 chain pages at 120 data bytes each
	for i := range val {
		val[i] = byte(i * 7)
	}
	if err := tab.Put(9, val); err != nil {
		t.Fatal(err)
	}
	got, ok, err := get(tab, 9)
	if err != nil || !ok || !bytes.Equal(got, val) {
		t.Fatalf("large value corrupted (ok=%v err=%v, len=%d)", ok, err, len(got))
	}
	// Replacing with a short value must free the old chain.
	store := tab.store
	before := store.Live()
	if err := tab.Put(9, []byte("short")); err != nil {
		t.Fatal(err)
	}
	if after := store.Live(); after >= before {
		t.Fatalf("replace did not free chain pages: %d -> %d", before, after)
	}
}

func TestManyKeysForceSplits(t *testing.T) {
	tab := newTable(t, 128) // ~10 slots per bucket: splits early
	const n = 2000
	for i := 0; i < n; i++ {
		if err := tab.Put(uint32(i), []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}
	if tab.Len() != n {
		t.Fatalf("Len = %d", tab.Len())
	}
	if tab.globalDepth == 0 {
		t.Fatal("no directory doubling happened")
	}
	for i := 0; i < n; i++ {
		v, ok, err := get(tab, uint32(i))
		if err != nil || !ok || !bytes.Equal(v, []byte(fmt.Sprintf("value-%d", i))) {
			t.Fatalf("Get(%d) = %q, %v, %v", i, v, ok, err)
		}
	}
	if err := tab.check(); err != nil {
		t.Fatalf("table after splits fails its check: %v", err)
	}
}

// Model-based property test: the table behaves exactly like a map under a
// random sequence of Put/Get/Delete operations.
func TestAgainstMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tab := newTable(t, 128)
	model := map[uint32][]byte{}
	for op := 0; op < 8000; op++ {
		key := uint32(rng.Intn(300))
		switch rng.Intn(3) {
		case 0: // Put
			val := make([]byte, rng.Intn(400))
			rng.Read(val)
			if err := tab.Put(key, val); err != nil {
				t.Fatalf("op %d: Put: %v", op, err)
			}
			model[key] = val
		case 1: // Get
			got, ok, err := get(tab, key)
			if err != nil {
				t.Fatalf("op %d: Get: %v", op, err)
			}
			want, wantOK := model[key]
			if ok != wantOK || (ok && !bytes.Equal(got, want)) {
				t.Fatalf("op %d: Get(%d) = (%d bytes, %v), model (%d bytes, %v)",
					op, key, len(got), ok, len(want), wantOK)
			}
		case 2: // Delete
			gotDel, err := tab.Delete(key)
			if err != nil {
				t.Fatalf("op %d: Delete: %v", op, err)
			}
			_, wantDel := model[key]
			if gotDel != wantDel {
				t.Fatalf("op %d: Delete(%d) = %v, model %v", op, key, gotDel, wantDel)
			}
			delete(model, key)
		}
		if tab.Len() != len(model) {
			t.Fatalf("op %d: Len = %d, model %d", op, tab.Len(), len(model))
		}
	}
	// Final sweep.
	for key, want := range model {
		got, ok, err := get(tab, key)
		if err != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("final Get(%d) mismatch", key)
		}
	}
}

func TestNoPageLeaks(t *testing.T) {
	store := pagestore.New(128)
	tab, err := New(store)
	if err != nil {
		t.Fatal(err)
	}
	base := store.Live()
	for i := 0; i < 500; i++ {
		if err := tab.Put(uint32(i), make([]byte, 300)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ {
		if _, err := tab.Delete(uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	// All value chains freed; only bucket pages (split residue) remain.
	// Bucket pages are bounded by the directory size.
	if live := store.Live(); live > base+len(tab.dir) {
		t.Fatalf("page leak: %d live pages, directory %d", live, len(tab.dir))
	}
}

func TestStoreExhaustion(t *testing.T) {
	store := pagestore.NewLimited(128, 8)
	tab, err := New(store)
	if err != nil {
		t.Fatal(err)
	}
	var firstErr error
	for i := 0; i < 100 && firstErr == nil; i++ {
		firstErr = tab.Put(uint32(i), make([]byte, 200))
	}
	if firstErr == nil {
		t.Fatal("expected allocation failure on a limited store")
	}
}

func BenchmarkPutGet(b *testing.B) {
	store := pagestore.New(4096)
	tab, _ := New(store)
	val := make([]byte, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tab.Put(uint32(i%10000), val)
		_, _, _ = tab.GetView(uint32(i % 10000))
	}
}

// check walks every distinct bucket and value chain once and refuses the
// table unless each bucket page is live, holds at most slotsPer slots and
// has a local depth no greater than the global one, each chain is live,
// exactly chainPages(valLen) pages long and holds valLen bytes, no page is
// reached twice, and Size counts the slots. Tests run it after mutations.
func (t *Table) check() error {
	seen := make(map[pagestore.PageID]bool)
	var buckets []pagestore.PageID
	for _, b := range t.dir {
		if !seen[b] {
			seen[b] = true
			buckets = append(buckets, b)
		}
	}
	slots := 0
	for _, b := range buckets {
		buf, err := t.store.View(b)
		if err != nil {
			return fmt.Errorf("exthash: bucket: %w", err)
		}
		depth, n := uint(binary.LittleEndian.Uint16(buf[0:2])), int(binary.LittleEndian.Uint16(buf[2:4]))
		if depth > t.globalDepth || n > t.slotsPer {
			return fmt.Errorf("exthash: bucket page %d holds %d slots at local depth %d, at most %d at depth %d",
				b, n, depth, t.slotsPer, t.globalDepth)
		}
		slots += n
		for off := bucketHeader; off < bucketHeader+n*slotSize; off += slotSize {
			key, valLen := binary.LittleEndian.Uint32(buf[off:]), binary.LittleEndian.Uint32(buf[off+4:])
			p, used := pagestore.PageID(binary.LittleEndian.Uint32(buf[off+8:])), uint64(0)
			for range t.chainPages(int(valLen)) {
				page, err := t.store.View(p)
				if err != nil || seen[p] {
					return fmt.Errorf("exthash: value page %d of key %d unreadable (%v) or reached twice", p, key, err)
				}
				seen[p] = true
				used += uint64(binary.LittleEndian.Uint32(page[4:8]))
				p = pagestore.PageID(binary.LittleEndian.Uint32(page[0:4]))
			}
			if p != 0 || used != uint64(valLen) {
				return fmt.Errorf("exthash: value chain of key %d does not hold its %d bytes on %d pages",
					key, valLen, t.chainPages(int(valLen)))
			}
		}
	}
	if slots != t.size {
		return fmt.Errorf("exthash: table size %d, buckets hold %d slots", t.size, slots)
	}
	return nil
}
