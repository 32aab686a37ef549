// Package octree implements the PV-index's primary index (§VI-A of the
// paper): a space-partitioning octree (quadtree at d=2) whose non-leaf nodes
// live in a bounded main-memory budget and whose leaf nodes are linked lists
// of disk pages holding (object ID, uncertainty region) entries.
//
// A leaf stores the objects whose UBRs overlap its cell. Point queries
// descend purely in memory and read exactly one leaf's page chain — the
// property that gives the PV-index its I/O advantage over the R-tree
// (Figs. 9(c), 9(g)). When a leaf overflows, it splits into 2^d children if
// the memory budget allows, otherwise it grows its page chain.
package octree

import (
	"encoding/binary"
	"fmt"
	"math"

	"pvoronoi/internal/geom"
	"pvoronoi/internal/pagestore"
)

// Entry is one leaf record: an object ID and its uncertainty region u(o).
type Entry struct {
	ID     uint32
	Region geom.Rect
}

// UBRLookup resolves an object's UBR during leaf splits (the UBR determines
// which child cells an entry belongs to; it is stored in the secondary
// index, not in the leaf). Returning ok=false makes the split conservative:
// the entry is copied to every child.
type UBRLookup func(id uint32) (geom.Rect, bool)

// Tree is the primary index. Not safe for concurrent mutation, but a sealed
// handle may be read concurrently while a CloneCOW descendant is mutated:
// mutations never touch shared nodes or rewrite shared pages in place.
type Tree struct {
	domain    geom.Rect
	dim       int
	store     *pagestore.Store
	lookup    UBRLookup
	root      *node
	memBudget int // bytes available for non-leaf structure
	memUsed   int
	maxDepth  int
	size      int // total entry copies across leaves
	sess      *pagestore.COWSession

	// SplitCount tallies leaf splits, for construction statistics.
	SplitCount int
}

type node struct {
	owner     *pagestore.COWSession
	children  []*node // nil ⇒ leaf
	firstPage pagestore.PageID
	pages     int // length of the page chain
	depth     int
}

// nodeBytes estimates the main-memory cost of one non-leaf conversion:
// the children pointer array plus per-child node headers.
func nodeBytes(dim int) int {
	fan := 1 << dim
	return fan*8 + fan*40
}

// Config bundles construction parameters.
type Config struct {
	Domain geom.Rect
	Store  *pagestore.Store
	Lookup UBRLookup
	// MemBudget is the main-memory allowance for non-leaf nodes in bytes
	// (paper default 5 MB).
	MemBudget int
	// MaxDepth caps subdivision (guards against degenerate splits).
	MaxDepth int
}

// New creates an empty octree.
func New(cfg Config) (*Tree, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("octree: nil page store")
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 24
	}
	if cfg.MemBudget <= 0 {
		cfg.MemBudget = 5 << 20
	}
	t := &Tree{
		domain:    cfg.Domain,
		dim:       cfg.Domain.Dim(),
		store:     cfg.Store,
		lookup:    cfg.Lookup,
		memBudget: cfg.MemBudget,
		maxDepth:  cfg.MaxDepth,
		sess:      pagestore.NewFullSession(cfg.Store),
	}
	p, err := t.allocPage()
	if err != nil {
		return nil, err
	}
	if err := t.writeLeafPage(p, 0, nil); err != nil {
		return nil, err
	}
	t.root = &node{owner: t.sess, firstPage: p, pages: 1}
	return t, nil
}

// CloneCOW returns a mutable copy-on-write descendant of t that initially
// shares every node and leaf page. Mutations path-copy touched nodes and
// shadow-write touched pages (allocating fresh page IDs), appending each
// shared page they stop referencing to freed — the caller frees those once
// no reader of an older version remains. lookup, if non-nil, replaces the
// UBR resolver so splits in the clone read through the writer's view.
// The original handle is sealed by convention and stays safe for
// concurrent readers.
func (t *Tree) CloneCOW(lookup UBRLookup, freed *[]pagestore.PageID) *Tree {
	c := *t
	c.sess = pagestore.NewCOWSession(t.store, freed)
	if lookup != nil {
		c.lookup = lookup
	}
	return &c
}

// AbortCOW releases every page this session allocated (none of them are
// visible to any published version) and forgets its deferred frees. The
// handle must not be used afterwards.
func (t *Tree) AbortCOW() { t.sess.Abort() }

// allocPage reserves a page through the session (ownership recorded).
func (t *Tree) allocPage() (pagestore.PageID, error) { return t.sess.Alloc() }

// pageOwned reports whether the session may rewrite the page in place.
func (t *Tree) pageOwned(id pagestore.PageID) bool { return t.sess.Owned(id) }

// freePage releases a page the tree stops referencing: immediately when the
// session owns it, deferred to the session's freed list otherwise.
func (t *Tree) freePage(id pagestore.PageID) error { return t.sess.Free(id) }

// ownedNode returns n if the session owns it, otherwise a session-owned copy
// (children slice cloned, page references shared). The caller must store the
// returned pointer back into the parent.
func (t *Tree) ownedNode(n *node) *node {
	if n.owner == t.sess {
		return n
	}
	c := &node{owner: t.sess, firstPage: n.firstPage, pages: n.pages, depth: n.depth}
	if n.children != nil {
		c.children = append(make([]*node, 0, len(n.children)), n.children...)
	}
	return c
}

// entrySize is the on-page footprint of one entry.
func (t *Tree) entrySize() int { return 4 + 16*t.dim }

// perPage is how many entries fit in one leaf page.
func (t *Tree) perPage() int {
	return (t.store.PageSize() - 8) / t.entrySize()
}

// Dim returns the tree's dimensionality.
func (t *Tree) Dim() int { return t.dim }

// Domain returns the indexed domain.
func (t *Tree) Domain() geom.Rect { return t.domain }

// Size returns the total number of entry copies across all leaves.
func (t *Tree) Size() int { return t.size }

// MemUsed returns the bytes of main memory consumed by non-leaf structure.
func (t *Tree) MemUsed() int { return t.memUsed }

// --- page encoding -------------------------------------------------------

// Leaf page layout: next PageID uint32 | count uint32 | entries...
// Entry layout: id uint32 | lo [d]float64 | hi [d]float64.

func (t *Tree) writeLeafPage(id pagestore.PageID, next pagestore.PageID, entries []Entry) error {
	if len(entries) > t.perPage() {
		return fmt.Errorf("octree: %d entries exceed page capacity %d", len(entries), t.perPage())
	}
	scratch := t.store.AcquirePage()
	defer t.store.ReleasePage(scratch)
	buf := (*scratch)[:8+len(entries)*t.entrySize()]
	binary.LittleEndian.PutUint32(buf[0:4], uint32(next))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(entries)))
	off := 8
	for _, e := range entries {
		binary.LittleEndian.PutUint32(buf[off:], e.ID)
		off += 4
		for j := 0; j < t.dim; j++ {
			binary.LittleEndian.PutUint64(buf[off:], floatBits(e.Region.Lo[j]))
			off += 8
		}
		for j := 0; j < t.dim; j++ {
			binary.LittleEndian.PutUint64(buf[off:], floatBits(e.Region.Hi[j]))
			off += 8
		}
	}
	return t.store.Write(id, buf)
}

// decodeLeafPage parses an encoded leaf page, appending its entries to dst
// and returning the chained next-page ID. Spare capacity in dst is reused —
// including each recycled Entry's coordinate slices — so steady-state decode
// into a pooled scratch slice performs no allocation. Callers that retain
// the entries past the scratch's lifetime must deep-copy the regions.
func (t *Tree) decodeLeafPage(buf []byte, dst []Entry) (next pagestore.PageID, out []Entry) {
	next = pagestore.PageID(binary.LittleEndian.Uint32(buf[0:4]))
	n := int(binary.LittleEndian.Uint32(buf[4:8]))
	off := 8
	for i := 0; i < n; i++ {
		if len(dst) < cap(dst) {
			dst = dst[:len(dst)+1]
		} else {
			dst = append(dst, Entry{})
		}
		e := &dst[len(dst)-1]
		e.ID = binary.LittleEndian.Uint32(buf[off:])
		off += 4
		if cap(e.Region.Lo) >= t.dim {
			e.Region.Lo = e.Region.Lo[:t.dim]
		} else {
			e.Region.Lo = make(geom.Point, t.dim)
		}
		if cap(e.Region.Hi) >= t.dim {
			e.Region.Hi = e.Region.Hi[:t.dim]
		} else {
			e.Region.Hi = make(geom.Point, t.dim)
		}
		for j := 0; j < t.dim; j++ {
			e.Region.Lo[j] = bitsFloat(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
		}
		for j := 0; j < t.dim; j++ {
			e.Region.Hi[j] = bitsFloat(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
		}
	}
	return next, dst
}

// readLeafPage decodes a leaf page via a borrowed view: decodeLeafPage
// copies every field out of the page, so nothing aliases slab memory after
// it returns and the borrow never outlives the call.
func (t *Tree) readLeafPage(id pagestore.PageID) (next pagestore.PageID, entries []Entry, err error) {
	buf, err := t.store.View(id)
	if err != nil {
		return 0, nil, err
	}
	next, entries = t.decodeLeafPage(buf, nil)
	return next, entries, nil
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }

// --- cell geometry -------------------------------------------------------

// childRegion returns the sub-cell of region for child index mask (bit j set
// means the upper half in dimension j).
func childRegion(region geom.Rect, mask int) geom.Rect {
	lo := region.Lo.Clone()
	hi := region.Hi.Clone()
	for j := 0; j < region.Dim(); j++ {
		mid := (region.Lo[j] + region.Hi[j]) / 2
		if mask&(1<<j) != 0 {
			lo[j] = mid
		} else {
			hi[j] = mid
		}
	}
	return geom.Rect{Lo: lo, Hi: hi}
}

// --- operations ----------------------------------------------------------

// Insert adds an entry for object id with uncertainty region u to every leaf
// whose cell intersects ubr.
func (t *Tree) Insert(id uint32, u geom.Rect, ubr geom.Rect) error {
	if !t.domain.Intersects(ubr) {
		return nil
	}
	t.root = t.ownedNode(t.root)
	return t.insert(t.root, t.domain, Entry{ID: id, Region: u}, ubr)
}

// InsertDiff adds the entry only to leaves whose cells intersect newUBR but
// not oldUBR — the N′−N leaf set of the paper's incremental deletion Step 4.
func (t *Tree) InsertDiff(id uint32, u geom.Rect, newUBR, oldUBR geom.Rect) error {
	if !t.domain.Intersects(newUBR) {
		return nil
	}
	t.root = t.ownedNode(t.root)
	return t.insertDiff(t.root, t.domain, Entry{ID: id, Region: u}, newUBR, oldUBR)
}

// insert descends into the cells intersecting ubr. n is session-owned;
// children are path-copied before descent so shared subtrees never mutate.
func (t *Tree) insert(n *node, region geom.Rect, e Entry, ubr geom.Rect) error {
	if n.children == nil {
		return t.leafInsert(n, region, e)
	}
	for mask := range n.children {
		cr := childRegion(region, mask)
		if !cr.Intersects(ubr) {
			continue
		}
		c := t.ownedNode(n.children[mask])
		n.children[mask] = c
		if err := t.insert(c, cr, e, ubr); err != nil {
			return err
		}
	}
	return nil
}

func (t *Tree) insertDiff(n *node, region geom.Rect, e Entry, newUBR, oldUBR geom.Rect) error {
	if n.children == nil {
		if region.Intersects(oldUBR) {
			return nil // leaf already holds the entry
		}
		return t.leafInsert(n, region, e)
	}
	for mask := range n.children {
		cr := childRegion(region, mask)
		if !cr.Intersects(newUBR) {
			continue
		}
		c := t.ownedNode(n.children[mask])
		n.children[mask] = c
		if err := t.insertDiff(c, cr, e, newUBR, oldUBR); err != nil {
			return err
		}
	}
	return nil
}

// leafInsert places e into leaf n (cell = region), splitting or chaining on
// overflow per the paper's construction Step 3. n is session-owned; a head
// page shared with an older version is shadow-copied (fresh page ID, old ID
// deferred to the freed list) rather than rewritten in place.
func (t *Tree) leafInsert(n *node, region geom.Rect, e Entry) error {
	next, entries, err := t.readLeafPage(n.firstPage)
	if err != nil {
		return err
	}
	if len(entries) < t.perPage() {
		entries = append(entries, e)
		target := n.firstPage
		if !t.pageOwned(target) {
			p, err := t.allocPage()
			if err != nil {
				return err
			}
			if err := t.freePage(target); err != nil {
				return err
			}
			n.firstPage = p
			target = p
		}
		if err := t.writeLeafPage(target, next, entries); err != nil {
			return err
		}
		t.size++
		return nil
	}
	// Head page full. Split if memory allows; otherwise chain a new page.
	// The new head points at the old chain, which stays untouched — no
	// shadow copy needed.
	canSplit := n.depth < t.maxDepth && t.memUsed+nodeBytes(t.dim) <= t.memBudget
	if !canSplit {
		p, err := t.allocPage()
		if err != nil {
			return err
		}
		if err := t.writeLeafPage(p, n.firstPage, []Entry{e}); err != nil {
			return err
		}
		n.firstPage = p
		n.pages++
		t.size++
		return nil
	}
	return t.splitLeaf(n, region, e)
}

// splitLeaf converts leaf n into an internal node with 2^d leaf children and
// redistributes its entries (plus the pending entry e) by UBR overlap.
func (t *Tree) splitLeaf(n *node, region geom.Rect, e Entry) error {
	all, err := t.drainLeaf(n)
	if err != nil {
		return err
	}
	all = append(all, e)

	fan := 1 << t.dim
	n.children = make([]*node, fan)
	for mask := 0; mask < fan; mask++ {
		p, err := t.allocPage()
		if err != nil {
			return err
		}
		if err := t.writeLeafPage(p, 0, nil); err != nil {
			return err
		}
		n.children[mask] = &node{owner: t.sess, firstPage: p, pages: 1, depth: n.depth + 1}
	}
	n.firstPage = 0
	n.pages = 0
	t.memUsed += nodeBytes(t.dim)
	t.SplitCount++

	for _, entry := range all {
		// Redistribute by the entry's UBR; fall back to every child when
		// the UBR is unknown (conservative, never loses query answers).
		var ubr geom.Rect
		ok := false
		if t.lookup != nil {
			ubr, ok = t.lookup(entry.ID)
		}
		if !ok {
			ubr = region
		}
		for mask, c := range n.children {
			cr := childRegion(region, mask)
			if cr.Intersects(ubr) {
				if err := t.leafInsert(c, cr, entry); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// drainLeaf reads and frees leaf n's page chain, returning its entries and
// removing them from the size count (they are re-counted on redistribution).
func (t *Tree) drainLeaf(n *node) ([]Entry, error) {
	var all []Entry
	p := n.firstPage
	for p != 0 {
		next, entries, err := t.readLeafPage(p)
		if err != nil {
			return nil, err
		}
		all = append(all, entries...)
		if err := t.freePage(p); err != nil {
			return nil, err
		}
		p = next
	}
	t.size -= len(all)
	return all, nil
}

// Remove deletes all entries for object id from leaves whose cells intersect
// ubr. It returns the number of entry copies removed.
func (t *Tree) Remove(id uint32, ubr geom.Rect) (int, error) {
	if !t.domain.Intersects(ubr) {
		return 0, nil
	}
	t.root = t.ownedNode(t.root)
	return t.remove(t.root, t.domain, id, ubr, nil)
}

// RemoveDiff deletes entries for id only from leaves intersecting oldUBR but
// not newUBR — the N−N′ leaf set of the paper's incremental insertion Step 4.
func (t *Tree) RemoveDiff(id uint32, oldUBR, newUBR geom.Rect) (int, error) {
	if !t.domain.Intersects(oldUBR) {
		return 0, nil
	}
	t.root = t.ownedNode(t.root)
	return t.remove(t.root, t.domain, id, oldUBR, &newUBR)
}

// remove descends into the cells intersecting ubr. n is session-owned;
// children are path-copied before descent.
func (t *Tree) remove(n *node, region geom.Rect, id uint32, ubr geom.Rect, except *geom.Rect) (int, error) {
	if n.children == nil {
		if except != nil && region.Intersects(*except) {
			return 0, nil
		}
		return t.leafRemove(n, id)
	}
	total := 0
	for mask := range n.children {
		cr := childRegion(region, mask)
		if !cr.Intersects(ubr) {
			continue
		}
		c := t.ownedNode(n.children[mask])
		n.children[mask] = c
		k, err := t.remove(c, cr, id, ubr, except)
		if err != nil {
			return total, err
		}
		total += k
	}
	return total, nil
}

// leafRemove drops every entry for id from leaf n. When anything changes the
// whole chain is rebuilt onto fresh session-owned pages (a mid-chain rewrite
// would cascade next-pointer patches up to the head anyway), and the old
// pages are freed through the session — deferred if shared.
func (t *Tree) leafRemove(n *node, id uint32) (int, error) {
	var all []Entry
	p := n.firstPage
	for p != 0 {
		next, entries, err := t.readLeafPage(p)
		if err != nil {
			return 0, err
		}
		all = append(all, entries...)
		p = next
	}
	kept := all[:0]
	for _, e := range all {
		if e.ID != id {
			kept = append(kept, e)
		}
	}
	removed := len(all) - len(kept)
	if removed == 0 {
		return 0, nil
	}
	if err := t.rewriteChain(n, kept); err != nil {
		return removed, err
	}
	t.size -= removed
	return removed, nil
}

// rewriteChain replaces leaf n's page chain with a fresh chain holding
// entries, freeing the old chain through the session.
func (t *Tree) rewriteChain(n *node, entries []Entry) error {
	p := n.firstPage
	for p != 0 {
		next, err := t.chainNext(p)
		if err != nil {
			return err
		}
		if err := t.freePage(p); err != nil {
			return err
		}
		p = next
	}
	return t.writeChain(n, entries)
}

// writeChain makes entries leaf n's chain on fresh pages (at least one) in
// the layout leafInsert leaves: full pages at the tail in entry order, the
// newest, possibly partial, page at the head.
func (t *Tree) writeChain(n *node, entries []Entry) error {
	per := t.perPage()
	var next pagestore.PageID
	n.pages = 0
	for lo := 0; lo < len(entries) || n.pages == 0; lo += per {
		id, err := t.allocPage()
		if err != nil {
			return err
		}
		if err := t.writeLeafPage(id, next, entries[lo:min(lo+per, len(entries))]); err != nil {
			return err
		}
		next = id
		n.pages++
	}
	n.firstPage = next
	return nil
}

// BulkItem is one object handed to BulkLoad: its leaf entry and the UBR that
// decides which cells hold it.
type BulkItem struct {
	Entry
	UBR geom.Rect
}

// BulkLoad fills an empty tree with items in one top-down pass: a cell that
// more than a page of UBRs overlap splits while its depth is below MaxDepth
// and the budget allows, granted in level order (every such cell at depth k
// before any at k+1); any other cell becomes a leaf, its entries written once
// in input order. While the budget does not bind, this is the tree Insert
// builds from the items in order, down to every leaf's chain — only page IDs
// differ.
func (t *Tree) BulkLoad(items []BulkItem) error {
	if t.size != 0 || t.root.children != nil {
		return fmt.Errorf("octree: BulkLoad on a non-empty tree")
	}
	// Every node gets its pages when it becomes a leaf.
	if err := t.freePage(t.root.firstPage); err != nil {
		return err
	}
	t.root.firstPage, t.root.pages = 0, 0
	type cell struct {
		n      *node
		region geom.Rect
		items  []int32 // the parent's items; those whose UBR overlaps region are the cell's
	}
	all := make([]int32, len(items))
	for i := range all {
		all[i] = int32(i)
	}
	var entries []Entry
	for level := []cell{{t.root, t.domain, all}}; len(level) > 0; {
		var next []cell
		for _, c := range level {
			var in []int32
			for _, i := range c.items {
				if c.region.Intersects(items[i].UBR) {
					in = append(in, i)
				}
			}
			if len(in) > t.perPage() && c.n.depth < t.maxDepth && t.memUsed+nodeBytes(t.dim) <= t.memBudget {
				c.n.children = make([]*node, 1<<t.dim)
				for mask := range c.n.children {
					c.n.children[mask] = &node{owner: t.sess, depth: c.n.depth + 1}
					next = append(next, cell{c.n.children[mask], childRegion(c.region, mask), in})
				}
				t.memUsed += nodeBytes(t.dim)
				t.SplitCount++
				continue
			}
			entries = entries[:0]
			for _, i := range in {
				entries = append(entries, items[i].Entry)
			}
			if err := t.writeChain(c.n, entries); err != nil {
				return err
			}
			t.size += len(entries)
		}
		level = next
	}
	return nil
}

// chainNext reads just the next-page pointer of a leaf page through a
// borrowed view (no copy, no stripe lock).
func (t *Tree) chainNext(id pagestore.PageID) (pagestore.PageID, error) {
	buf, err := t.store.View(id)
	if err != nil {
		return 0, err
	}
	return pagestore.PageID(binary.LittleEndian.Uint32(buf[0:4])), nil
}

// PointQuery returns the entries of the unique leaf whose cell contains q.
// Page reads are counted by the underlying store.
func (t *Tree) PointQuery(q geom.Point) ([]Entry, error) {
	entries, _, err := t.PointQueryIO(q)
	return entries, err
}

// PointQueryIO is PointQuery plus the number of leaf pages read to answer
// it — the per-query leaf I/O cost of Figs. 9(c)/9(g), attributable to this
// call even when many queries share the store concurrently.
func (t *Tree) PointQueryIO(q geom.Point) ([]Entry, int, error) {
	return t.PointQueryInto(q, nil)
}

// PointQueryInto is PointQueryIO decoding into dst (appended to, capacity
// reused): the allocation-free variant for callers that keep a scratch
// slice across queries. The returned entries alias dst's backing memory —
// including recycled coordinate slices — so they are only valid until dst is
// next reused; retain them beyond that only as deep copies.
func (t *Tree) PointQueryInto(q geom.Point, dst []Entry) ([]Entry, int, error) {
	if !t.domain.Contains(q) {
		return dst, 0, fmt.Errorf("octree: query point %v outside domain %v", q, t.domain)
	}
	n := t.root
	region := t.domain
	for n.children != nil {
		mask := 0
		for j := 0; j < t.dim; j++ {
			mid := (region.Lo[j] + region.Hi[j]) / 2
			if q[j] >= mid {
				mask |= 1 << j
			}
		}
		region = childRegion(region, mask)
		n = n.children[mask]
	}
	pagesRead := 0
	p := n.firstPage
	for p != 0 {
		buf, err := t.store.View(p)
		if err != nil {
			return dst, pagesRead, err
		}
		pagesRead++
		p, dst = t.decodeLeafPage(buf, dst)
	}
	return dst, pagesRead, nil
}

// PointQueryIDsInto is PointQueryInto for callers that need only the entry
// IDs: it strides over the packed leaf
// entries reading each 4-byte ID and skips the coordinate bytes entirely —
// no Entry structs, no Point slices, no float decode. dst is appended to
// with its capacity reused, so a pooled scratch makes the call
// allocation-free.
func (t *Tree) PointQueryIDsInto(q geom.Point, dst []uint32) ([]uint32, int, error) {
	if !t.domain.Contains(q) {
		return dst, 0, fmt.Errorf("octree: query point %v outside domain %v", q, t.domain)
	}
	n := t.root
	region := t.domain
	for n.children != nil {
		mask := 0
		for j := 0; j < t.dim; j++ {
			mid := (region.Lo[j] + region.Hi[j]) / 2
			if q[j] >= mid {
				mask |= 1 << j
			}
		}
		region = childRegion(region, mask)
		n = n.children[mask]
	}
	stride := t.entrySize()
	pagesRead := 0
	p := n.firstPage
	for p != 0 {
		buf, err := t.store.View(p)
		if err != nil {
			return dst, pagesRead, err
		}
		pagesRead++
		count := int(binary.LittleEndian.Uint32(buf[4:8]))
		off := 8
		for i := 0; i < count; i++ {
			dst = append(dst, binary.LittleEndian.Uint32(buf[off:]))
			off += stride
		}
		p = pagestore.PageID(binary.LittleEndian.Uint32(buf[0:4]))
	}
	return dst, pagesRead, nil
}

// RangeIDs returns the distinct object IDs stored in leaves whose cells
// intersect r — Step 2 of the paper's incremental update (the potentially
// affected set A).
func (t *Tree) RangeIDs(r geom.Rect) (map[uint32]bool, error) {
	out := make(map[uint32]bool)
	err := t.rangeIDs(t.root, t.domain, r, out)
	return out, err
}

func (t *Tree) rangeIDs(n *node, region geom.Rect, r geom.Rect, out map[uint32]bool) error {
	if !region.Intersects(r) {
		return nil
	}
	if n.children == nil {
		// Lazy decode: stride over the packed entries reading only each
		// 4-byte ID, skipping the 16d coordinate bytes entirely.
		stride := t.entrySize()
		p := n.firstPage
		for p != 0 {
			buf, err := t.store.View(p)
			if err != nil {
				return err
			}
			count := int(binary.LittleEndian.Uint32(buf[4:8]))
			off := 8
			for i := 0; i < count; i++ {
				out[binary.LittleEndian.Uint32(buf[off:])] = true
				off += stride
			}
			p = pagestore.PageID(binary.LittleEndian.Uint32(buf[0:4]))
		}
		return nil
	}
	for mask, c := range n.children {
		if err := t.rangeIDs(c, childRegion(region, mask), r, out); err != nil {
			return err
		}
	}
	return nil
}

// WindowMass counts the entry copies in the leaves whose cells intersect r —
// the leaves RangeIDs reads, by its closed rule — and those leaves, from leaf
// page header counts alone; cell bounds live on the stack: no allocation.
func (t *Tree) WindowMass(r geom.Rect) (entries, leaves int, err error) {
	var stack [512]float64
	cells := stack[:]
	if need := 2 * t.dim * (t.maxDepth + 2); need > len(cells) {
		cells = make([]float64, need)
	}
	copy(cells, t.domain.Lo)
	copy(cells[t.dim:], t.domain.Hi)
	err = t.windowMass(t.root, cells, r, &entries, &leaves)
	return entries, leaves, err
}

// windowMass walks n, whose cell is cells[:d] (lo) and cells[d:2d] (hi),
// writing each child's cell into the next 2d slots. A corrupt image (a node
// below maxDepth, a chain past its page count) is an error.
func (t *Tree) windowMass(n *node, cells []float64, r geom.Rect, entries, leaves *int) error {
	d := t.dim
	lo, hi := cells[:d], cells[d:2*d]
	for j := range d {
		if hi[j] < r.Lo[j] || r.Hi[j] < lo[j] {
			return nil
		}
	}
	if n.children == nil {
		*leaves++
		for i, p := 0, n.firstPage; p != 0; i++ {
			if i == n.pages {
				return fmt.Errorf("octree: leaf chain longer than its %d pages", n.pages)
			}
			buf, err := t.store.View(p)
			if err != nil {
				return err
			}
			*entries += int(binary.LittleEndian.Uint32(buf[4:8]))
			p = pagestore.PageID(binary.LittleEndian.Uint32(buf[0:4]))
		}
		return nil
	}
	if len(cells) < 4*d {
		return fmt.Errorf("octree: node below depth %d", t.maxDepth)
	}
	child := cells[2*d:]
	for mask, c := range n.children {
		for j := range d {
			mid := (lo[j] + hi[j]) / 2
			if mask&(1<<j) != 0 {
				child[j], child[d+j] = mid, hi[j]
			} else {
				child[j], child[d+j] = lo[j], mid
			}
		}
		if err := t.windowMass(c, child, r, entries, leaves); err != nil {
			return err
		}
	}
	return nil
}

// CollectPages appends every page ID reachable from the tree — each leaf's
// full page chain — to dst and returns it. Read-only: it is how a pinned
// MVCC version enumerates its share of the page store for serialization.
func (t *Tree) CollectPages(dst []pagestore.PageID) ([]pagestore.PageID, error) {
	var walk func(n *node) error
	walk = func(n *node) error {
		if n.children != nil {
			for _, c := range n.children {
				if err := walk(c); err != nil {
					return err
				}
			}
			return nil
		}
		p := n.firstPage
		for p != 0 {
			dst = append(dst, p)
			next, err := t.chainNext(p)
			if err != nil {
				return err
			}
			p = next
		}
		return nil
	}
	if err := walk(t.root); err != nil {
		return nil, err
	}
	return dst, nil
}

// Validate walks the tree checking structural invariants: internal nodes
// have exactly 2^d children, leaf page chains are readable, page counts
// match the chain length, depths are consistent, and the entry count
// matches the recorded size. Used by tests after mutation sequences.
func (t *Tree) Validate() error {
	fan := 1 << t.dim
	entries := 0
	var walk func(n *node, depth int) error
	walk = func(n *node, depth int) error {
		if n.depth != depth {
			return fmt.Errorf("octree: node depth %d, expected %d", n.depth, depth)
		}
		if n.children != nil {
			if len(n.children) != fan {
				return fmt.Errorf("octree: internal node with %d children, want %d", len(n.children), fan)
			}
			if n.firstPage != 0 || n.pages != 0 {
				return fmt.Errorf("octree: internal node still owns pages")
			}
			for _, c := range n.children {
				if err := walk(c, depth+1); err != nil {
					return err
				}
			}
			return nil
		}
		if n.firstPage == 0 {
			return fmt.Errorf("octree: leaf without a page chain")
		}
		chain := 0
		p := n.firstPage
		for p != 0 {
			// Header-only lazy read: chain pointer and entry count live in
			// the first 8 bytes; the packed records need no decoding here.
			buf, err := t.store.View(p)
			if err != nil {
				return fmt.Errorf("octree: unreadable leaf page %d: %w", p, err)
			}
			next := pagestore.PageID(binary.LittleEndian.Uint32(buf[0:4]))
			entries += int(binary.LittleEndian.Uint32(buf[4:8]))
			chain++
			if chain > 1_000_000 {
				return fmt.Errorf("octree: page chain cycle suspected at %d", p)
			}
			p = next
		}
		if chain != n.pages {
			return fmt.Errorf("octree: leaf records %d pages, chain has %d", n.pages, chain)
		}
		return nil
	}
	if err := walk(t.root, 0); err != nil {
		return err
	}
	if entries != t.size {
		return fmt.Errorf("octree: counted %d entries, size says %d", entries, t.size)
	}
	return nil
}

// Stats describes the tree's shape.
type Stats struct {
	Leaves   int
	Internal int
	Pages    int
	MaxDepth int
	Entries  int
	MemUsed  int
	SplitOps int
}

// TreeStats walks the tree and reports shape statistics.
func (t *Tree) TreeStats() Stats {
	st := Stats{Entries: t.size, MemUsed: t.memUsed, SplitOps: t.SplitCount}
	var walk func(n *node)
	walk = func(n *node) {
		if n.depth > st.MaxDepth {
			st.MaxDepth = n.depth
		}
		if n.children == nil {
			st.Leaves++
			st.Pages += n.pages
			return
		}
		st.Internal++
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	return st
}
