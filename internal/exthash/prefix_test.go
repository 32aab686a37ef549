package exthash

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"pvoronoi/internal/pagestore"
	"pvoronoi/internal/race"
)

// checkPrefix holds GetPrefix(key, n) to its contract against the value want
// for n below, at and beyond the value's length and its first page's share.
func checkPrefix(t *testing.T, tab *Table, key uint32, want []byte) {
	t.Helper()
	firstPage := tab.store.PageSize() - chainHeader
	for _, n := range []int{0, 1, len(want) - 1, len(want), len(want) + 1, firstPage, firstPage + 1, 1 << 20} {
		if n < 0 {
			continue
		}
		got, valLen, ok, err := tab.GetPrefix(key, n)
		if err != nil || !ok {
			t.Fatalf("GetPrefix(%d, %d): ok=%v err=%v", key, n, ok, err)
		}
		if valLen != len(want) {
			t.Fatalf("GetPrefix(%d, %d): value length %d, want %d", key, n, valLen, len(want))
		}
		if exp := want[:min(n, len(want), firstPage)]; !bytes.Equal(got, exp) {
			t.Fatalf("GetPrefix(%d, %d) = %d bytes, want the value's first %d", key, n, len(got), len(exp))
		}
		if cap(got) != len(got) {
			t.Fatalf("GetPrefix(%d, %d): capacity %d exposes page bytes beyond the %d lent", key, n, cap(got), len(got))
		}
	}
}

// TestGetPrefix covers values of one, two and three pages (and the empty and
// exactly-one-page ones), then the same keys through a COW clone that
// overwrites and deletes while the sealed base stays readable.
func TestGetPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	store := pagestore.New(256)
	tab, err := New(store)
	if err != nil {
		t.Fatal(err)
	}
	firstPage := store.PageSize() - chainHeader
	lengths := []int{0, 1, 100, firstPage, firstPage + 1, 2 * firstPage, 2*firstPage + 50}
	want := map[uint32][]byte{}
	for i, n := range lengths {
		val := make([]byte, n)
		rng.Read(val)
		want[uint32(i)] = val
		if err := tab.Put(uint32(i), val); err != nil {
			t.Fatal(err)
		}
	}
	for k, v := range want {
		checkPrefix(t, tab, k, v)
	}
	if _, _, ok, err := tab.GetPrefix(999, 16); ok || err != nil {
		t.Fatalf("missing key: ok=%v err=%v", ok, err)
	}

	var freed []pagestore.PageID
	clone := tab.CloneCOW(&freed)
	cloneWant := map[uint32][]byte{}
	for k, v := range want {
		switch k % 3 {
		case 0: // overwrite with a value of a different page count
			nv := make([]byte, (len(v)+firstPage+7)%(3*firstPage))
			rng.Read(nv)
			if err := clone.Put(k, nv); err != nil {
				t.Fatal(err)
			}
			cloneWant[k] = nv
		case 1:
			if ok, err := clone.Delete(k); err != nil || !ok {
				t.Fatalf("clone delete %d: ok=%v err=%v", k, ok, err)
			}
		default:
			cloneWant[k] = v
		}
	}
	for k, v := range want {
		checkPrefix(t, tab, k, v) // the base answers as before
		if cv, live := cloneWant[k]; live {
			checkPrefix(t, clone, k, cv)
		} else if _, _, ok, err := clone.GetPrefix(k, 16); ok || err != nil {
			t.Fatalf("clone still has deleted key %d: ok=%v err=%v", k, ok, err)
		}
	}
}

// TestGetPrefixCorruptChain damages a value's first page the two ways GetView
// detects and checks GetPrefix reports the same errors.
func TestGetPrefixCorruptChain(t *testing.T) {
	store := pagestore.New(256)
	tab, err := New(store)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Put(7, bytes.Repeat([]byte{0xab}, 100)); err != nil {
		t.Fatal(err)
	}
	s, ok, err := tab.findSlot(tab.dir[tab.dirIndex(7)], 7)
	if err != nil || !ok {
		t.Fatalf("findSlot: ok=%v err=%v", ok, err)
	}
	for _, used := range []uint32{99, 101, 4096} { // two length mismatches, one overrun
		page := make([]byte, store.PageSize())
		binary.LittleEndian.PutUint32(page[4:8], used)
		if err := pagestore.NewFullSession(store).Write(s.firstPage, page); err != nil {
			t.Fatal(err)
		}
		_, _, viewErr := tab.GetView(7)
		_, _, _, prefixErr := tab.GetPrefix(7, 16)
		if viewErr == nil || prefixErr == nil || viewErr.Error() != prefixErr.Error() {
			t.Fatalf("used=%d: GetView error %v, GetPrefix error %v", used, viewErr, prefixErr)
		}
	}

	// A first page that holds the slot's whole length and still names a
	// successor: both reads refuse it on the first page.
	if err := tab.Put(9, bytes.Repeat([]byte{0xcd}, 100)); err != nil {
		t.Fatal(err)
	}
	other, ok, err := tab.findSlot(tab.dir[tab.dirIndex(9)], 9)
	if err != nil || !ok {
		t.Fatalf("findSlot: ok=%v err=%v", ok, err)
	}
	page := make([]byte, store.PageSize())
	binary.LittleEndian.PutUint32(page[0:4], uint32(other.firstPage))
	binary.LittleEndian.PutUint32(page[4:8], 100)
	if err := pagestore.NewFullSession(store).Write(s.firstPage, page); err != nil {
		t.Fatal(err)
	}
	_, _, viewErr := tab.GetView(7)
	_, _, _, prefixErr := tab.GetPrefix(7, 16)
	if viewErr == nil || prefixErr == nil || viewErr.Error() != prefixErr.Error() {
		t.Fatalf("full first page with a successor: GetView error %v, GetPrefix error %v", viewErr, prefixErr)
	}
}

// TestGetPrefixZeroAlloc: a header read allocates nothing, whatever the
// value's size (GetView assembles a multi-page value into a fresh buffer).
func TestGetPrefixZeroAlloc(t *testing.T) {
	tab := newTable(t, 256)
	for i, n := range []int{100, 700} {
		if err := tab.Put(uint32(i), make([]byte, n)); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, _, ok, err := tab.GetPrefix(uint32(i), 38); !ok || err != nil {
				t.Fatal(ok, err)
			}
		})
		if !race.Enabled && allocs != 0 {
			t.Errorf("GetPrefix of a %d-byte value allocates %.0f times", n, allocs)
		}
	}
}
