// Package cowpage holds the per-ID tables of the index and of the database:
// a map from a block of Width IDs to a page, copy-on-write by page. Clone
// shares every page and gives both sides fresh owner tags, so a shared page
// is never written: the first write to it on either side copies it. A table
// thus pays for the pages it touches, dropping an unwritten-back clone is a
// complete rollback, and sparse IDs cost at most one page per block.
package cowpage

import (
	"maps"
	"slices"
	"sync/atomic"
)

// Bits is log₂ Width.
const Bits = 6

// Width is the number of IDs a page holds, the same in every table: block n
// holds the IDs n·Width to n·Width + Width − 1. A write copies a whole page
// the first time it touches it after a Clone.
const Width = 1 << Bits

// Split returns id's block and its slot in the block's page.
func Split(id uint32) (block, slot uint32) { return id >> Bits, id & (Width - 1) }

// tag marks the pages one Pages may write in place.
type tag struct{ _ byte }

type tagged[P any] struct {
	owner *tag
	page  P
}

// Pages is one table's page map. Readers may use it concurrently with each
// other and with Clone; writes need the only reference.
type Pages[P any] struct {
	tag   atomic.Pointer[tag]
	pages map[uint32]*tagged[P]
}

// New returns an empty page map.
func New[P any]() *Pages[P] {
	c := &Pages[P]{pages: map[uint32]*tagged[P]{}}
	c.tag.Store(new(tag))
	return c
}

// Clone returns a copy sharing every page with c. Both c and the copy get
// new tags, so neither writes a page in place that the other can read.
func (c *Pages[P]) Clone() *Pages[P] {
	n := &Pages[P]{pages: maps.Clone(c.pages)}
	n.tag.Store(new(tag))
	c.tag.Store(new(tag))
	return n
}

// At returns block n's page, nil when there is none. Do not modify it.
func (c *Pages[P]) At(n uint32) *P {
	if t := c.pages[n]; t != nil {
		return &t.page
	}
	return nil
}

// Writable returns block n's page for writing in place: a page c does not
// own yet is replaced by copyOf(it), copyOf(nil) by a fresh one.
func (c *Pages[P]) Writable(n uint32, copyOf func(*P) P) *P {
	t, own := c.pages[n], c.tag.Load()
	if t == nil || t.owner != own {
		var old *P
		if t != nil {
			old = &t.page
		}
		t = &tagged[P]{owner: own, page: copyOf(old)}
		c.pages[n] = t
	}
	return &t.page
}

// Copy is the copyOf of a page that copies by value.
func Copy[P any](old *P) P {
	if old == nil {
		var zero P
		return zero
	}
	return *old
}

// Delete drops block n's page.
func (c *Pages[P]) Delete(n uint32) { delete(c.pages, n) }

// Blocks returns the blocks with a page, ascending.
func (c *Pages[P]) Blocks() []uint32 { return slices.Sorted(maps.Keys(c.pages)) }
