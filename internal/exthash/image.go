package exthash

import (
	"encoding/binary"
	"fmt"

	"pvoronoi/internal/pagestore"
)

// Image is the serializable state of a Table (bucket pages live in the
// page store and are captured by its own image).
type Image struct {
	Dir         []uint32
	GlobalDepth uint32
	Size        int
}

// Image captures the table's directory and counters.
func (t *Table) Image() *Image {
	img := &Image{
		Dir:         make([]uint32, len(t.dir)),
		GlobalDepth: uint32(t.globalDepth),
		Size:        t.size,
	}
	for i, p := range t.dir {
		img.Dir[i] = uint32(p)
	}
	return img
}

// FromImage reconstructs a table over a restored store. The image comes from
// a file, so the table is checked before it is trusted (see check).
func FromImage(store *pagestore.Store, img *Image) (*Table, error) {
	if len(img.Dir) != 1<<img.GlobalDepth {
		return nil, fmt.Errorf("exthash: directory size %d does not match depth %d", len(img.Dir), img.GlobalDepth)
	}
	t := &Table{
		store:       store,
		slotsPer:    (store.PageSize() - bucketHeader) / slotSize,
		dir:         make([]pagestore.PageID, len(img.Dir)),
		globalDepth: uint(img.GlobalDepth),
		size:        img.Size,
		sess:        pagestore.NewFullSession(store),
	}
	if t.slotsPer < 2 {
		return nil, fmt.Errorf("exthash: page size %d too small", store.PageSize())
	}
	for i, p := range img.Dir {
		t.dir[i] = pagestore.PageID(p)
	}
	if err := t.check(); err != nil {
		return nil, err
	}
	return t, nil
}

// check walks every distinct bucket and value chain once and refuses the
// table unless each bucket page is live, holds at most slotsPer slots and
// has a local depth no greater than the global one, each chain is live,
// exactly chainPages(valLen) pages long and holds valLen bytes, no page is
// reached twice, and Size counts the slots. Lookups index a bucket's slots
// by its count, and CollectPages follows chains to their end, so either
// would panic or loop on a table that fails it.
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
		return fmt.Errorf("exthash: image size %d, buckets hold %d slots", t.size, slots)
	}
	return nil
}
