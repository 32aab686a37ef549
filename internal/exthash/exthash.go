// Package exthash implements an extendible hash table (Fagin et al., 1979)
// over the simulated page store — the PV-index's secondary index, mapping an
// object ID to its stored record (UBR plus discretized uncertainty pdf,
// §VI-A of the paper).
//
// The directory lives in main memory; buckets are single disk pages holding
// fixed-size slots (key, value length, first value page). Values are stored
// out of line in chained value pages, since a 500-instance pdf (≈16 KB at
// d=3) exceeds one 4 KB page. Bucket overflow triggers the classic split:
// redistribute on one more hash bit, doubling the directory when the
// bucket's local depth equals the global depth.
package exthash

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"pvoronoi/internal/pagestore"
)

// Table is an extendible hash table keyed by uint32. Not safe for concurrent
// mutation, but a sealed handle may be read concurrently while a CloneCOW
// descendant is mutated: mutations never rewrite shared pages in place.
type Table struct {
	store       *pagestore.Store
	dir         []pagestore.PageID // 2^globalDepth entries
	globalDepth uint
	size        int
	slotsPer    int
	sess        *pagestore.COWSession
	// slots is the scratch readBucket decodes into. Only Put and Delete call
	// it, on the handle being mutated: a CloneCOW clone starts without one.
	slots []slot
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
	p, err := t.allocPage()
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

// CloneCOW returns a mutable copy-on-write descendant of t: the directory is
// copied, every bucket and value page is initially shared. Mutations shadow
// shared pages onto fresh IDs and append the replaced IDs to freed — the
// caller frees those once no reader of an older version remains. The
// original handle is sealed by convention and stays safe for concurrent
// readers.
func (t *Table) CloneCOW(freed *[]pagestore.PageID) *Table {
	c := *t
	c.dir = append(make([]pagestore.PageID, 0, len(t.dir)), t.dir...)
	c.sess = pagestore.NewCOWSession(t.store, freed)
	c.slots = nil
	return &c
}

// AbortCOW releases every page this session allocated (invisible to any
// published version) and forgets its deferred frees. The handle must not be
// used afterwards.
func (t *Table) AbortCOW() { t.sess.Abort() }

// allocPage reserves a page through the session (ownership recorded).
func (t *Table) allocPage() (pagestore.PageID, error) { return t.sess.Alloc() }

// freePage releases a page the table stops referencing: immediately when the
// session owns it, deferred to the freed list otherwise.
func (t *Table) freePage(id pagestore.PageID) error { return t.sess.Free(id) }

// writableBucket returns a bucket page ID the session may write in place.
// A shared bucket is shadowed: a fresh page is allocated, every directory
// slot pointing at the old page is repointed, and the old page is deferred
// to the freed list. The caller overwrites the returned page's contents
// entirely, so no byte copy is needed.
func (t *Table) writableBucket(id pagestore.PageID) (pagestore.PageID, error) {
	if t.sess.Owned(id) {
		return id, nil
	}
	p, err := t.allocPage()
	if err != nil {
		return 0, err
	}
	for i := range t.dir {
		if t.dir[i] == id {
			t.dir[i] = p
		}
	}
	if err := t.freePage(id); err != nil {
		return 0, err
	}
	return p, nil
}

// Len returns the number of stored keys.
func (t *Table) Len() int { return t.size }

// GlobalDepth returns the directory depth (directory size is 2^depth).
func (t *Table) GlobalDepth() uint { return t.globalDepth }

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
	scratch := t.store.AcquirePage()
	defer t.store.ReleasePage(scratch)
	buf := (*scratch)[:bucketHeader+len(b.slots)*slotSize]
	binary.LittleEndian.PutUint16(buf[0:2], b.localDepth)
	binary.LittleEndian.PutUint16(buf[2:4], uint16(len(b.slots)))
	off := bucketHeader
	for _, s := range b.slots {
		binary.LittleEndian.PutUint32(buf[off:], s.key)
		binary.LittleEndian.PutUint32(buf[off+4:], s.valLen)
		binary.LittleEndian.PutUint32(buf[off+8:], uint32(s.firstPage))
		off += slotSize
	}
	return t.store.Write(id, buf)
}

// writeValue stores val in a fresh chain of value pages, returning the head.
func (t *Table) writeValue(val []byte) (pagestore.PageID, error) {
	dataPer := t.store.PageSize() - chainHeader
	scratch := t.store.AcquirePage()
	defer t.store.ReleasePage(scratch)
	var head, prev pagestore.PageID
	for off := 0; off == 0 || off < len(val); off += dataPer {
		p, err := t.allocPage()
		if err != nil {
			return 0, err
		}
		end := off + dataPer
		if end > len(val) {
			end = len(val)
		}
		chunk := val[off:end]
		buf := (*scratch)[:chainHeader+len(chunk)]
		binary.LittleEndian.PutUint32(buf[0:4], 0) // no next page yet
		binary.LittleEndian.PutUint32(buf[4:8], uint32(len(chunk)))
		copy(buf[chainHeader:], chunk)
		if err := t.store.Write(p, buf); err != nil {
			return 0, err
		}
		if head == 0 {
			head = p
		} else {
			// Patch the previous page's next pointer (full read-modify-write;
			// scratch still holds this page's chunk, so use a second buffer).
			pb := t.store.AcquirePage()
			err := t.store.ReadInto(prev, *pb)
			if err == nil {
				binary.LittleEndian.PutUint32(*pb, uint32(p))
				err = t.store.Write(prev, *pb)
			}
			t.store.ReleasePage(pb)
			if err != nil {
				return 0, err
			}
		}
		prev = p
		if len(val) == 0 {
			break
		}
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

// freeValue releases the value chain starting at head (deferred for pages
// shared with older versions).
func (t *Table) freeValue(head pagestore.PageID) error {
	p := head
	for p != 0 {
		buf, err := t.store.View(p)
		if err != nil {
			return err
		}
		next := pagestore.PageID(binary.LittleEndian.Uint32(buf[0:4]))
		if err := t.freePage(p); err != nil {
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

// Get returns the value stored under key. The returned slice is always an
// owned copy, safe to retain.
func (t *Table) Get(key uint32) ([]byte, bool, error) {
	s, ok, err := t.findSlot(t.dir[t.dirIndex(key)], key)
	if err != nil || !ok {
		return nil, false, err
	}
	v, err := t.readValue(s.firstPage, s.valLen)
	if err != nil {
		return nil, false, err
	}
	return v, true, nil
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

// GetPrefix lends the first n bytes of the value stored under key — fewer
// when the value, or the share of it on its first value page, is shorter —
// together with the value's total length. It never copies or follows the
// chain, whatever the value's size: a caller that needs only a fixed header
// pays one bucket and one page view. Only that first page is validated — a
// chain damaged further on is GetView's to find. The slice aliases the
// store's slab under the View validity rule, exactly like GetView's
// single-page result.
func (t *Table) GetPrefix(key uint32, n int) (prefix []byte, valLen int, ok bool, err error) {
	s, ok, err := t.findSlot(t.dir[t.dirIndex(key)], key)
	if err != nil || !ok {
		return nil, 0, false, err
	}
	head, _, err := t.viewFirstPage(s)
	if err != nil {
		return nil, 0, false, err
	}
	if n < len(head) {
		head = head[:n:n]
	}
	return head, int(s.valLen), true, nil
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
		// Replace in place (shadowing the bucket page if shared).
		for i, s := range b.slots {
			if s.key == key {
				if err := t.freeValue(s.firstPage); err != nil {
					return err
				}
				head, err := t.writeValue(val)
				if err != nil {
					return err
				}
				b.slots[i] = slot{key: key, valLen: uint32(len(val)), firstPage: head}
				target, err := t.writableBucket(pageID)
				if err != nil {
					return err
				}
				return t.writeBucket(target, b)
			}
		}
		if len(b.slots) < t.slotsPer {
			head, err := t.writeValue(val)
			if err != nil {
				return err
			}
			b.slots = append(b.slots, slot{key: key, valLen: uint32(len(val)), firstPage: head})
			t.size++
			target, err := t.writableBucket(pageID)
			if err != nil {
				return err
			}
			return t.writeBucket(target, b)
		}
		// Bucket full: split and retry.
		if err := t.split(idx, pageID, b); err != nil {
			return err
		}
	}
}

// split divides the bucket at directory index idx on one more hash bit.
func (t *Table) split(idx int, pageID pagestore.PageID, b bucket) error {
	// Shadow the splitting bucket first (repointing the pre-split directory
	// entries), so its rewrite never lands on a page shared with readers.
	pageID, err := t.writableBucket(pageID)
	if err != nil {
		return err
	}
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
	newPage, err := t.allocPage()
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
			target, err := t.writableBucket(pageID)
			if err != nil {
				return false, err
			}
			return true, t.writeBucket(target, b)
		}
	}
	return false, nil
}

// CollectPages appends every page ID reachable from the table — each bucket
// page plus each stored value's chain — to dst and returns it. Read-only.
func (t *Table) CollectPages(dst []pagestore.PageID) ([]pagestore.PageID, error) {
	seen := make(map[pagestore.PageID]bool, len(t.dir))
	for _, p := range t.dir {
		if seen[p] {
			continue
		}
		seen[p] = true
		dst = append(dst, p)
		buf, err := t.store.View(p)
		if err != nil {
			return nil, err
		}
		for i := range int(binary.LittleEndian.Uint16(buf[2:4])) {
			v := pagestore.PageID(binary.LittleEndian.Uint32(buf[bucketHeader+i*slotSize+8:]))
			for v != 0 {
				dst = append(dst, v)
				page, err := t.store.View(v)
				if err != nil {
					return nil, err
				}
				v = pagestore.PageID(binary.LittleEndian.Uint32(page[0:4]))
			}
		}
	}
	return dst, nil
}

// Keys appends all stored keys to dst (in unspecified order). Bucket pages
// are walked lazily: only each slot's 4-byte key is read.
func (t *Table) Keys(dst []uint32) ([]uint32, error) {
	seen := make(map[pagestore.PageID]bool)
	for _, p := range t.dir {
		if seen[p] {
			continue
		}
		seen[p] = true
		buf, err := t.store.View(p)
		if err != nil {
			return nil, err
		}
		n := int(binary.LittleEndian.Uint16(buf[2:4]))
		off := bucketHeader
		for i := 0; i < n; i++ {
			dst = append(dst, binary.LittleEndian.Uint32(buf[off:]))
			off += slotSize
		}
	}
	return dst, nil
}
