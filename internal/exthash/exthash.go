// Package exthash implements an extendible hash table (Fagin et al., 1979)
// over the simulated page store, keyed by uint32. It was the PV-index's
// secondary index, mapping an object ID to its stored record (§VI-A of the
// paper); the index now keeps its UBRs in an ID-keyed table and its pdfs in
// the database, and no index holds an exthash table. It stays for the
// benchmark harness, which times a GetView over the store's pages.
//
// The directory lives in main memory; buckets are single disk pages holding
// fixed-size slots (key, value length, first value page). Values are stored
// out of line in chained value pages, since a 500-instance pdf (≈16 KB at
// d=3) exceeds one 4 KB page. Bucket overflow triggers the classic split:
// redistribute on one more hash bit, doubling the directory when the
// bucket's local depth equals the global depth.
//
// A table owns every page it allocates (one full session) and rewrites its
// buckets in place; a value chain is written once, onto fresh pages, and
// never patched. Reads borrow page memory through View.
package exthash

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"pvoronoi/internal/pagestore"
)

// Table is an extendible hash table keyed by uint32. Not safe for concurrent
// use while it is mutated.
type Table struct {
	store       *pagestore.Store
	dir         []pagestore.PageID // 2^globalDepth entries
	globalDepth uint
	size        int
	slotsPer    int
	sess        *pagestore.COWSession
	// slots is the scratch readBucket decodes into, and page the one a
	// bucket or value page is encoded into before it is written.
	slots []slot
	page  []byte
}

const (
	bucketHeader = 4  // localDepth uint16 + count uint16
	slotSize     = 12 // key uint32 + valLen uint32 + firstPage uint32
	chainHeader  = 8  // next PageID uint32 + used uint32
)

// New creates an empty table over the given store.
func New(store *pagestore.Store) (*Table, error) {
	t := &Table{
		store:    store,
		slotsPer: (store.PageSize() - bucketHeader) / slotSize,
		sess:     pagestore.NewFullSession(store),
	}
	if t.slotsPer < 2 {
		return nil, fmt.Errorf("exthash: page size %d too small", store.PageSize())
	}
	p, err := t.sess.Alloc()
	if err != nil {
		return nil, err
	}
	if err := t.writeBucket(p, bucket{localDepth: 0}); err != nil {
		return nil, err
	}
	t.dir = []pagestore.PageID{p}
	t.globalDepth = 0
	return t, nil
}

// Len returns the number of stored keys.
func (t *Table) Len() int { return t.size }

// hash mixes the key (murmur3 finalizer) so sequential IDs spread evenly.
func hash(key uint32) uint32 {
	h := key
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}

func (t *Table) dirIndex(key uint32) int {
	if t.globalDepth == 0 {
		return 0
	}
	return int(hash(key) & ((1 << t.globalDepth) - 1))
}

// bucket is the decoded form of a bucket page.
type bucket struct {
	localDepth uint16
	slots      []slot
}

type slot struct {
	key       uint32
	valLen    uint32
	firstPage pagestore.PageID
}

// readBucket decodes a bucket page via a borrowed view into t's scratch;
// every field is copied out, so nothing aliases page memory after it returns.
func (t *Table) readBucket(id pagestore.PageID) (bucket, error) {
	buf, err := t.store.View(id)
	if err != nil {
		return bucket{}, err
	}
	b := bucket{localDepth: binary.LittleEndian.Uint16(buf[0:2])}
	n := int(binary.LittleEndian.Uint16(buf[2:4]))
	t.slots = slices.Grow(t.slots[:0], n)[:n]
	b.slots = t.slots
	off := bucketHeader
	for i := 0; i < n; i++ {
		b.slots[i] = slot{
			key:       binary.LittleEndian.Uint32(buf[off:]),
			valLen:    binary.LittleEndian.Uint32(buf[off+4:]),
			firstPage: pagestore.PageID(binary.LittleEndian.Uint32(buf[off+8:])),
		}
		off += slotSize
	}
	return b, nil
}

func (t *Table) writeBucket(id pagestore.PageID, b bucket) error {
	if len(b.slots) > t.slotsPer {
		return fmt.Errorf("exthash: bucket overflow: %d slots", len(b.slots))
	}
	buf := binary.LittleEndian.AppendUint16(t.page[:0], b.localDepth)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(b.slots)))
	for _, s := range b.slots {
		buf = binary.LittleEndian.AppendUint32(buf, s.key)
		buf = binary.LittleEndian.AppendUint32(buf, s.valLen)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s.firstPage))
	}
	t.page = buf
	return t.sess.Write(id, buf)
}

// chainPages is how many value pages hold a value of n bytes: at least one,
// so an empty value still has a head page.
func (t *Table) chainPages(n int) int {
	dataPer := t.store.PageSize() - chainHeader
	return max(1, (n+dataPer-1)/dataPer)
}

// writeValue stores val in a fresh chain of value pages, returning the head.
// Each page's successor is allocated before the page is written, so every
// page is written once, complete, and none is read back.
func (t *Table) writeValue(val []byte) (pagestore.PageID, error) {
	dataPer := t.store.PageSize() - chainHeader
	head, err := t.sess.Alloc()
	if err != nil {
		return 0, err
	}
	for p, i, n := head, 0, t.chainPages(len(val)); i < n; i++ {
		var next pagestore.PageID
		if i+1 < n {
			if next, err = t.sess.Alloc(); err != nil {
				return 0, err
			}
		}
		chunk := val[i*dataPer : min((i+1)*dataPer, len(val))]
		t.page = binary.LittleEndian.AppendUint32(t.page[:0], uint32(next))
		t.page = binary.LittleEndian.AppendUint32(t.page, uint32(len(chunk)))
		t.page = append(t.page, chunk...)
		if err := t.sess.Write(p, t.page); err != nil {
			return 0, err
		}
		p = next
	}
	return head, nil
}

// readValue reads a value of total length n from the chain starting at head.
// Only the returned value is allocated; chain pages are borrowed views.
func (t *Table) readValue(head pagestore.PageID, n uint32) ([]byte, error) {
	out := make([]byte, 0, n)
	p := head
	for p != 0 {
		buf, err := t.store.View(p)
		if err != nil {
			return nil, err
		}
		next := pagestore.PageID(binary.LittleEndian.Uint32(buf[0:4]))
		used := binary.LittleEndian.Uint32(buf[4:8])
		if int(used) > len(buf)-chainHeader {
			return nil, errors.New("exthash: corrupt value chain")
		}
		out = append(out, buf[chainHeader:chainHeader+used]...)
		p = next
	}
	if uint32(len(out)) != n {
		return nil, fmt.Errorf("exthash: value length %d, expected %d", len(out), n)
	}
	return out, nil
}

// freeValue releases the value chain starting at head.
func (t *Table) freeValue(head pagestore.PageID) error {
	p := head
	for p != 0 {
		buf, err := t.store.View(p)
		if err != nil {
			return err
		}
		next := pagestore.PageID(binary.LittleEndian.Uint32(buf[0:4]))
		if err := t.sess.Free(p); err != nil {
			return err
		}
		p = next
	}
	return nil
}

// findSlot scans the bucket page for key without materializing the slot
// array: a lazy stride walk over the packed 12-byte slots of a borrowed
// view. The matching slot is copied out by value.
func (t *Table) findSlot(bucketPage pagestore.PageID, key uint32) (slot, bool, error) {
	buf, err := t.store.View(bucketPage)
	if err != nil {
		return slot{}, false, err
	}
	n := int(binary.LittleEndian.Uint16(buf[2:4]))
	off := bucketHeader
	for i := 0; i < n; i++ {
		if binary.LittleEndian.Uint32(buf[off:]) == key {
			return slot{
				key:       key,
				valLen:    binary.LittleEndian.Uint32(buf[off+4:]),
				firstPage: pagestore.PageID(binary.LittleEndian.Uint32(buf[off+8:])),
			}, true, nil
		}
		off += slotSize
	}
	return slot{}, false, nil
}

// GetView returns the value stored under key, borrowing page memory when the
// value fits a single value page (the common case for small records): the
// returned slice then aliases the store's slab and follows the View validity
// rule — it must be consumed before the reader's version pin is released.
// Multi-page values are assembled into a fresh buffer. Callers that retain
// the bytes must copy; callers that decode immediately get a zero-copy read.
func (t *Table) GetView(key uint32) ([]byte, bool, error) {
	s, ok, err := t.findSlot(t.dir[t.dirIndex(key)], key)
	if err != nil || !ok {
		return nil, false, err
	}
	head, next, err := t.viewFirstPage(s)
	if err != nil {
		return nil, false, err
	}
	if next == 0 {
		return head, true, nil
	}
	v, err := t.readValue(s.firstPage, s.valLen)
	if err != nil {
		return nil, false, err
	}
	return v, true, nil
}

// viewFirstPage borrows the share of s's value held by its first value page
// and returns the next page of the chain (0 = none). The only page of a
// single-page value must hold exactly the slot's length, the first of
// several less than it.
func (t *Table) viewFirstPage(s slot) (head []byte, next pagestore.PageID, err error) {
	buf, err := t.store.View(s.firstPage)
	if err != nil {
		return nil, 0, err
	}
	next = pagestore.PageID(binary.LittleEndian.Uint32(buf[0:4]))
	used := binary.LittleEndian.Uint32(buf[4:8])
	if int(used) > len(buf)-chainHeader {
		return nil, 0, errors.New("exthash: corrupt value chain")
	}
	if next == 0 && used != s.valLen {
		return nil, 0, fmt.Errorf("exthash: value length %d, expected %d", used, s.valLen)
	}
	if next != 0 && used >= s.valLen {
		return nil, 0, errors.New("exthash: corrupt value chain")
	}
	return buf[chainHeader : chainHeader+used : chainHeader+used], next, nil
}

// Put stores val under key, replacing any previous value.
func (t *Table) Put(key uint32, val []byte) error {
	for {
		idx := t.dirIndex(key)
		pageID := t.dir[idx]
		b, err := t.readBucket(pageID)
		if err != nil {
			return err
		}
		i := slices.IndexFunc(b.slots, func(s slot) bool { return s.key == key })
		if i < 0 && len(b.slots) >= t.slotsPer {
			// Bucket full: split and retry.
			if err := t.split(idx, pageID, b); err != nil {
				return err
			}
			continue
		}
		if i >= 0 { // replace, freeing the old chain first
			if err := t.freeValue(b.slots[i].firstPage); err != nil {
				return err
			}
		}
		head, err := t.writeValue(val)
		if err != nil {
			return err
		}
		s := slot{key: key, valLen: uint32(len(val)), firstPage: head}
		if i >= 0 {
			b.slots[i] = s
		} else {
			b.slots = append(b.slots, s)
			t.size++
		}
		return t.writeBucket(pageID, b)
	}
}

// split divides the bucket at directory index idx on one more hash bit.
func (t *Table) split(idx int, pageID pagestore.PageID, b bucket) error {
	if uint(b.localDepth) == t.globalDepth {
		if t.globalDepth >= 30 {
			return errors.New("exthash: directory depth limit reached")
		}
		// Double the directory.
		ndir := make([]pagestore.PageID, len(t.dir)*2)
		copy(ndir, t.dir)
		copy(ndir[len(t.dir):], t.dir)
		t.dir = ndir
		t.globalDepth++
	}
	newDepth := b.localDepth + 1
	bit := uint32(1) << (newDepth - 1)
	newPage, err := t.sess.Alloc()
	if err != nil {
		return err
	}
	var keep, move []slot
	for _, s := range b.slots {
		if hash(s.key)&bit != 0 {
			move = append(move, s)
		} else {
			keep = append(keep, s)
		}
	}
	if err := t.writeBucket(pageID, bucket{localDepth: newDepth, slots: keep}); err != nil {
		return err
	}
	if err := t.writeBucket(newPage, bucket{localDepth: newDepth, slots: move}); err != nil {
		return err
	}
	// Repoint directory entries whose suffix matches the new bucket. All
	// directory slots referring to the old bucket share the low
	// (newDepth-1) bits; those with the new bit set move to newPage.
	for i := range t.dir {
		if t.dir[i] == pageID && uint32(i)&bit != 0 {
			t.dir[i] = newPage
		}
	}
	return nil
}

// Delete removes key, reporting whether it was present.
func (t *Table) Delete(key uint32) (bool, error) {
	idx := t.dirIndex(key)
	pageID := t.dir[idx]
	b, err := t.readBucket(pageID)
	if err != nil {
		return false, err
	}
	for i, s := range b.slots {
		if s.key == key {
			if err := t.freeValue(s.firstPage); err != nil {
				return false, err
			}
			b.slots = append(b.slots[:i], b.slots[i+1:]...)
			t.size--
			return true, t.writeBucket(pageID, b)
		}
	}
	return false, nil
}
