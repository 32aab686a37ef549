package pagestore

import (
	"fmt"
	"slices"
)

// Image is the serializable state of a Store, used by index persistence.
// All fields are exported for encoding/gob. Its pages are listed in
// ascending ID order, so a store's state always encodes to the same bytes.
// An image from ImageOf borrows its pages from the store; one from a decoder
// owns them.
type Image struct {
	PageSize int
	Next     uint32
	Free     []uint32
	Pages    []Page
}

// Page is one page of an Image.
type Page struct {
	ID   uint32
	Data []byte
}

// ImageOf captures only the listed pages — the reachable set of one MVCC
// version — without touching allocator state or unrelated pages. Allocator
// state is synthesized compactly: Next is one past the highest captured page
// and Free lists the gaps below it, so a store restored via FromImage can
// allocate without ever colliding with a captured ID.
//
// It copies no page: each Data of Pages is the page's slab slice, under
// View's validity rule. The caller must keep the listed pages immutable and
// live until it is done with the image — true for pages reachable from a
// pinned version, which no session owns and the reclaimer cannot free while
// the version is pinned — so the image must be encoded before the pin is
// released.
func (s *Store) ImageOf(ids []PageID) (*Image, error) {
	ids = slices.Compact(slices.Sorted(slices.Values(ids)))
	img := &Image{PageSize: s.pageSize, Pages: make([]Page, len(ids))}
	next := PageID(1)
	for i, id := range ids {
		p, ok := s.page(id)
		if !ok {
			return nil, fmt.Errorf("pagestore: ImageOf references unknown page %d", id)
		}
		img.Pages[i] = Page{ID: uint32(id), Data: p}
		for ; next < id; next++ {
			img.Free = append(img.Free, uint32(next))
		}
		next = id + 1
	}
	img.Next = uint32(next)
	return img, nil
}

// FromImage reconstructs a store from a snapshot. I/O counters start at
// zero; allocator state (next ID, free list) is restored exactly so that
// page IDs recorded by the structures above remain valid. The image comes
// from a file, so its allocator state is checked before it is trusted:
// Pages must ascend, and Pages and Free must partition [1, Next) —
// otherwise a later Alloc would hand out a live page a second time.
func FromImage(img *Image) (*Store, error) {
	if img.PageSize <= 0 {
		return nil, fmt.Errorf("pagestore: invalid page size %d in image", img.PageSize)
	}
	if img.Next == 0 {
		return nil, fmt.Errorf("pagestore: image high-water mark is 0 (page IDs start at 1)")
	}
	// Checked first: it bounds Next by what the image actually holds, so a
	// corrupt Next cannot make the arena below grow without limit.
	if uint64(len(img.Pages))+uint64(len(img.Free)) != uint64(img.Next)-1 {
		return nil, fmt.Errorf("pagestore: image has %d pages and %d free slots below high-water mark %d, want %d in all",
			len(img.Pages), len(img.Free), img.Next, img.Next-1)
	}
	s := New(img.PageSize)
	s.next = PageID(img.Next)
	if img.Next > 1 {
		s.ensureExtent(img.Next - 2)
	}
	stored := make([]bool, img.Next)
	for i, pg := range img.Pages {
		id, data := pg.ID, pg.Data
		if id == 0 || id >= img.Next {
			return nil, fmt.Errorf("pagestore: page %d outside [1, %d)", id, img.Next)
		}
		if i > 0 && id <= img.Pages[i-1].ID {
			return nil, fmt.Errorf("pagestore: page %d listed after page %d", id, img.Pages[i-1].ID)
		}
		stored[id] = true
		if len(data) != img.PageSize {
			return nil, fmt.Errorf("pagestore: page %d has %d bytes, want %d", id, len(data), img.PageSize)
		}
		p, _ := s.page(PageID(id))
		copy(p, data)
		s.setLive(PageID(id), true)
		s.live.Add(1)
	}
	s.free = make([]PageID, len(img.Free))
	onFree := make([]bool, img.Next)
	for i, id := range img.Free {
		switch {
		case id == 0 || id >= img.Next:
			return nil, fmt.Errorf("pagestore: free slot %d outside [1, %d)", id, img.Next)
		case stored[id]:
			return nil, fmt.Errorf("pagestore: page %d is both stored and on the free list", id)
		case onFree[id]:
			return nil, fmt.Errorf("pagestore: page %d is on the free list twice", id)
		}
		onFree[id] = true
		s.free[i] = PageID(id)
	}
	return s, nil
}
