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
	"slices"

	"pvoronoi/internal/geom"
	"pvoronoi/internal/pagestore"
)

// Entry is one leaf record: an object ID and its uncertainty region u(o).
type Entry struct {
	ID     uint32
	Region geom.Rect
}

// UBRLookup resolves an object's UBR during leaf splits (the UBR determines
// which child cells an entry belongs to; it is stored in the index's UBR
// table, not in the leaf). Returning ok=false makes the split conservative:
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
	// recs is the mutating handle's scratch for a leaf's packed entry
	// records, so inserting into or removing from a leaf copies bytes without
	// decoding or allocating, and page is the one it encodes a leaf page into
	// before writing it through the session. CloneCOW gives the clone
	// neither: sealed handles never touch them.
	recs, page []byte

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

// maxPageSize bounds a leaf page: a store allocates its pages 64 at a time
// at least, so a page size read from an index image must not be trusted
// beyond it.
const maxPageSize = 1 << 20

// New creates an empty octree over a store whose pages hold a leaf header
// and at least one entry, in at most maxPageSize bytes.
func New(cfg Config) (*Tree, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("octree: nil page store")
	}
	if err := geom.CheckDim(cfg.Domain.Dim()); err != nil {
		return nil, fmt.Errorf("octree: %w", err)
	}
	if ps, entry := cfg.Store.PageSize(), 8+4+16*cfg.Domain.Dim(); ps < entry || ps > maxPageSize {
		return nil, fmt.Errorf("octree: page size %d outside [%d, %d]: a leaf page holds a header and at least one entry", ps, entry, maxPageSize)
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
	p, err := t.sess.Alloc()
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
	c.recs, c.page = nil, nil
	if lookup != nil {
		c.lookup = lookup
	}
	return &c
}

// AbortCOW releases every page this session allocated (none of them are
// visible to any published version) and forgets its deferred frees. The
// handle must not be used afterwards.
func (t *Tree) AbortCOW() { t.sess.Abort() }

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

func (t *Tree) writeLeafPage(id pagestore.PageID, next pagestore.PageID, recs []byte) error {
	if n := len(recs) / t.entrySize(); n > t.perPage() {
		return fmt.Errorf("octree: %d entries exceed page capacity %d", n, t.perPage())
	}
	t.page = binary.LittleEndian.AppendUint32(t.page[:0], uint32(next))
	t.page = binary.LittleEndian.AppendUint32(t.page, uint32(len(recs)/t.entrySize()))
	t.page = append(t.page, recs...)
	return t.sess.Write(id, t.page)
}

// appendEntry appends e's record to recs.
func (t *Tree) appendEntry(recs []byte, e Entry) []byte {
	recs = binary.LittleEndian.AppendUint32(recs, e.ID)
	for j := 0; j < t.dim; j++ {
		recs = binary.LittleEndian.AppendUint64(recs, floatBits(e.Region.Lo[j]))
	}
	for j := 0; j < t.dim; j++ {
		recs = binary.LittleEndian.AppendUint64(recs, floatBits(e.Region.Hi[j]))
	}
	return recs
}

// pageRecs splits an encoded leaf page into its next-page ID and its packed
// entry records.
func (t *Tree) pageRecs(buf []byte) (next pagestore.PageID, recs []byte) {
	n := int(binary.LittleEndian.Uint32(buf[4:8]))
	return pagestore.PageID(binary.LittleEndian.Uint32(buf[0:4])), buf[8 : 8+n*t.entrySize()]
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

func floatBits(f float64) uint64 { return math.Float64bits(f) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }

// --- operations ----------------------------------------------------------

// Insert adds an entry for object id with uncertainty region u to every leaf
// whose cell intersects ubr.
func (t *Tree) Insert(id uint32, u geom.Rect, ubr geom.Rect) error {
	return t.insertWithin(id, u, ubr, nil)
}

// InsertDiff adds the entry only to leaves whose cells intersect newUBR but
// not oldUBR — the N′−N leaf set of the paper's incremental deletion Step 4.
func (t *Tree) InsertDiff(id uint32, u geom.Rect, newUBR, oldUBR geom.Rect) error {
	return t.insertWithin(id, u, newUBR, &oldUBR)
}

func (t *Tree) insertWithin(id uint32, u, ubr geom.Rect, except *geom.Rect) error {
	if !t.domain.Intersects(ubr) {
		return nil
	}
	var stack [512]float64
	t.root = t.ownedNode(t.root)
	return t.insert(t.root, t.rootCells(stack[:]), t.appendEntry(nil, Entry{ID: id, Region: u}), ubr, except)
}

// insert adds the entry record rec to the leaves under n whose cells meet ubr
// and not except (a leaf meeting except already holds it); n's cell is
// cells[:2d], as in remove. n is session-owned; children are path-copied
// before descent so shared subtrees never mutate.
func (t *Tree) insert(n *node, cells []float64, rec []byte, ubr geom.Rect, except *geom.Rect) error {
	if n.children == nil {
		if except != nil && cellMeets(t.dim, cells, *except) {
			return nil
		}
		return t.leafInsert(n, cells, rec)
	}
	for mask := range n.children {
		child := childCell(t.dim, cells, mask)
		if !cellMeets(t.dim, child, ubr) {
			continue
		}
		c := t.ownedNode(n.children[mask])
		n.children[mask] = c
		if err := t.insert(c, child, rec, ubr, except); err != nil {
			return err
		}
	}
	return nil
}

// leafInsert places the entry record rec into leaf n (cell = cells[:2d]),
// splitting or chaining on overflow per the paper's construction Step 3. n is
// session-owned; a head page shared with an older version is shadow-copied
// (fresh page ID, old ID deferred to the freed list) rather than rewritten in
// place. rec must not alias the scratch.
func (t *Tree) leafInsert(n *node, cells []float64, rec []byte) error {
	buf, err := t.store.View(n.firstPage)
	if err != nil {
		return err
	}
	next, recs := t.pageRecs(buf)
	if len(recs) < t.perPage()*t.entrySize() {
		t.recs = append(append(t.recs[:0], recs...), rec...)
		if !t.sess.Owned(n.firstPage) {
			p, err := t.sess.Alloc()
			if err != nil {
				return err
			}
			if err := t.sess.Free(n.firstPage); err != nil {
				return err
			}
			n.firstPage = p
		}
		if err := t.writeLeafPage(n.firstPage, next, t.recs); err != nil {
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
		p, err := t.sess.Alloc()
		if err != nil {
			return err
		}
		if err := t.writeLeafPage(p, n.firstPage, rec); err != nil {
			return err
		}
		n.firstPage = p
		n.pages++
		t.size++
		return nil
	}
	return t.splitLeaf(n, cells, rec)
}

// splitLeaf converts leaf n into an internal node with 2^d leaf children and
// redistributes its entries (plus the pending record rec) by UBR overlap.
func (t *Tree) splitLeaf(n *node, cells []float64, rec []byte) error {
	all, err := t.drainLeaf(n)
	if err != nil {
		return err
	}
	all = append(all, rec...)

	fan := 1 << t.dim
	n.children = make([]*node, fan)
	for mask := 0; mask < fan; mask++ {
		p, err := t.sess.Alloc()
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

	for es := t.entrySize(); len(all) > 0; all = all[es:] {
		// Redistribute by the entry's UBR; fall back to every child when
		// the UBR is unknown (conservative, never loses query answers).
		var ubr geom.Rect
		ok := false
		if t.lookup != nil {
			ubr, ok = t.lookup(binary.LittleEndian.Uint32(all))
		}
		for mask, c := range n.children {
			child := childCell(t.dim, cells, mask)
			if !ok || cellMeets(t.dim, child, ubr) {
				if err := t.leafInsert(c, child, all[:es]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// drainLeaf reads and frees leaf n's page chain, returning its entry records
// in a buffer of their own (the redistribution inserts through the scratch)
// and removing them from the size count (they are re-counted on
// redistribution).
func (t *Tree) drainLeaf(n *node) ([]byte, error) {
	all := make([]byte, 0, (n.pages*t.perPage()+1)*t.entrySize())
	for p := n.firstPage; p != 0; {
		buf, err := t.store.View(p)
		if err != nil {
			return nil, err
		}
		next, recs := t.pageRecs(buf)
		all = append(all, recs...)
		if err := t.sess.Free(p); err != nil {
			return nil, err
		}
		p = next
	}
	t.size -= len(all) / t.entrySize()
	return all, nil
}

// Remove deletes all entries for object id from leaves whose cells intersect
// ubr. It returns the number of entry copies removed.
func (t *Tree) Remove(id uint32, ubr geom.Rect) (int, error) {
	return t.removeWithin(id, ubr, nil)
}

// RemoveDiff deletes entries for id only from leaves intersecting oldUBR but
// not newUBR — the N−N′ leaf set of the paper's incremental insertion Step 4.
func (t *Tree) RemoveDiff(id uint32, oldUBR, newUBR geom.Rect) (int, error) {
	return t.removeWithin(id, oldUBR, &newUBR)
}

func (t *Tree) removeWithin(id uint32, ubr geom.Rect, except *geom.Rect) (int, error) {
	if !t.domain.Intersects(ubr) {
		return 0, nil
	}
	var stack [512]float64
	t.root = t.ownedNode(t.root)
	return t.remove(t.root, t.rootCells(stack[:]), id, ubr, except)
}

// remove descends into the cells intersecting ubr; n's cell is cells[:d] (lo)
// and cells[d:2d] (hi), and each child's cell goes into the next 2d slots. n
// is session-owned; children are path-copied before descent.
func (t *Tree) remove(n *node, cells []float64, id uint32, ubr geom.Rect, except *geom.Rect) (int, error) {
	if n.children == nil {
		if except != nil && cellMeets(t.dim, cells, *except) {
			return 0, nil
		}
		return t.leafRemove(n, id)
	}
	total := 0
	for mask := range n.children {
		child := childCell(t.dim, cells, mask)
		if !cellMeets(t.dim, child, ubr) {
			continue
		}
		c := t.ownedNode(n.children[mask])
		n.children[mask] = c
		k, err := t.remove(c, child, id, ubr, except)
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
// pages are freed through the session — deferred if shared. The kept records
// are copied into the scratch, never decoded.
func (t *Tree) leafRemove(n *node, id uint32) (int, error) {
	es, kept, removed := t.entrySize(), t.recs[:0], 0
	for p := n.firstPage; p != 0; {
		buf, err := t.store.View(p)
		if err != nil {
			return 0, err
		}
		var recs []byte
		for p, recs = t.pageRecs(buf); len(recs) > 0; recs = recs[es:] {
			if binary.LittleEndian.Uint32(recs) == id {
				removed++
			} else {
				kept = append(kept, recs[:es]...)
			}
		}
	}
	t.recs = kept
	if removed == 0 {
		return 0, nil
	}
	if err := t.freeChain(n.firstPage); err != nil {
		return removed, err
	}
	if err := t.writeChain(n, kept); err != nil {
		return removed, err
	}
	t.size -= removed
	return removed, nil
}

// freeChain frees the page chain starting at page p through the session.
func (t *Tree) freeChain(p pagestore.PageID) error {
	for p != 0 {
		next, err := t.chainNext(p)
		if err != nil {
			return err
		}
		if err := t.sess.Free(p); err != nil {
			return err
		}
		p = next
	}
	return nil
}

// writeChain makes the entry records recs leaf n's chain on fresh pages (at
// least one) in the layout leafInsert leaves: full pages at the tail in entry
// order, the newest, possibly partial, page at the head.
func (t *Tree) writeChain(n *node, recs []byte) error {
	per := t.perPage() * t.entrySize()
	var next pagestore.PageID
	n.pages = 0
	for lo := 0; lo < len(recs) || n.pages == 0; lo += per {
		id, err := t.sess.Alloc()
		if err != nil {
			return err
		}
		if err := t.writeLeafPage(id, next, recs[lo:min(lo+per, len(recs))]); err != nil {
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
	if err := t.sess.Free(t.root.firstPage); err != nil {
		return err
	}
	t.root.firstPage, t.root.pages = 0, 0
	// A level's cells sit side by side in one flat slice, 2d coordinates
	// each; pair holds a parent's cell and childCell's output.
	type cell struct {
		n     *node
		items []int32 // the parent's items; those whose UBR overlaps the cell are the cell's
	}
	all := make([]int32, len(items))
	for i := range all {
		all[i] = int32(i)
	}
	d2 := 2 * t.dim
	pair := make([]float64, 2*d2)
	level, cells := []cell{{t.root, all}}, append(slices.Clone(t.domain.Lo), t.domain.Hi...)
	for len(level) > 0 {
		var next []cell
		var nextCells []float64
		for k, c := range level {
			box := cells[k*d2 : (k+1)*d2]
			var in []int32
			for _, i := range c.items {
				if cellMeets(t.dim, box, items[i].UBR) {
					in = append(in, i)
				}
			}
			if len(in) > t.perPage() && c.n.depth < t.maxDepth && t.memUsed+nodeBytes(t.dim) <= t.memBudget {
				c.n.children = make([]*node, 1<<t.dim)
				copy(pair, box)
				for mask := range c.n.children {
					c.n.children[mask] = &node{owner: t.sess, depth: c.n.depth + 1}
					next = append(next, cell{c.n.children[mask], in})
					nextCells = append(nextCells, childCell(t.dim, pair, mask)...)
				}
				t.memUsed += nodeBytes(t.dim)
				t.SplitCount++
				continue
			}
			t.recs = t.recs[:0]
			for _, i := range in {
				t.recs = t.appendEntry(t.recs, items[i].Entry)
			}
			if err := t.writeChain(c.n, t.recs); err != nil {
				return err
			}
			t.size += len(in)
		}
		level, cells = next, nextCells
	}
	return nil
}

// chainNext reads just the next-page pointer of a leaf page through a
// borrowed view.
func (t *Tree) chainNext(id pagestore.PageID) (pagestore.PageID, error) {
	buf, err := t.store.View(id)
	if err != nil {
		return 0, err
	}
	return pagestore.PageID(binary.LittleEndian.Uint32(buf[0:4])), nil
}

// leafAt returns the unique leaf whose cell contains q, descending purely in
// memory. A point descent needs only the current cell, so it keeps two cell
// slots and moves childCell's output back into the first at every level.
func (t *Tree) leafAt(q geom.Point) (*node, error) {
	if !t.domain.Contains(q) {
		return nil, fmt.Errorf("octree: query point %v outside domain %v", q, t.domain)
	}
	var buf [4 * geom.MaxDim]float64
	cells, n := buf[:4*t.dim], t.root
	copy(cells, t.domain.Lo)
	copy(cells[t.dim:], t.domain.Hi)
	for n.children != nil {
		mask := 0
		for j := 0; j < t.dim; j++ {
			if q[j] >= (cells[j]+cells[t.dim+j])/2 {
				mask |= 1 << j
			}
		}
		copy(cells, childCell(t.dim, cells, mask))
		n = n.children[mask]
	}
	return n, nil
}

// PointQueryInto decodes the entries of the unique leaf whose cell contains
// q into dst (appended to, capacity reused) and returns them with the number
// of leaf pages read — the per-query leaf I/O of Figs. 9(c)/9(g),
// attributable to this call even when many queries share the store. The
// returned entries alias dst's backing memory — including recycled
// coordinate slices — so they are only valid until dst is next reused;
// retain them beyond that only as deep copies.
func (t *Tree) PointQueryInto(q geom.Point, dst []Entry) ([]Entry, int, error) {
	n, err := t.leafAt(q)
	if err != nil {
		return dst, 0, err
	}
	pagesRead := 0
	for p := n.firstPage; p != 0; pagesRead++ {
		buf, err := t.store.View(p)
		if err != nil {
			return dst, pagesRead, err
		}
		p, dst = t.decodeLeafPage(buf, dst)
	}
	return dst, pagesRead, nil
}

// PointQueryIDsInto is PointQueryInto for callers that need only the entry
// IDs: it strides over the packed leaf entries reading each 4-byte ID and
// skips the coordinate bytes entirely — no Entry structs, no Point slices,
// no float decode. dst is appended to with its capacity reused, so a pooled
// scratch makes the call allocation-free.
func (t *Tree) PointQueryIDsInto(q geom.Point, dst []uint32) ([]uint32, int, error) {
	n, err := t.leafAt(q)
	if err != nil {
		return dst, 0, err
	}
	es, pagesRead := t.entrySize(), 0
	for p := n.firstPage; p != 0; pagesRead++ {
		buf, err := t.store.View(p)
		if err != nil {
			return dst, pagesRead, err
		}
		var recs []byte
		for p, recs = t.pageRecs(buf); len(recs) > 0; recs = recs[es:] {
			dst = append(dst, binary.LittleEndian.Uint32(recs))
		}
	}
	return dst, pagesRead, nil
}

// RangeIDs returns the distinct object IDs stored in leaves whose cells
// intersect r, ascending, in dst's storage — Step 2 of the paper's
// incremental update (the potentially affected set A). It only reads, so
// windows of one tree may run concurrently.
func (t *Tree) RangeIDs(r geom.Rect, dst []uint32) ([]uint32, error) {
	var stack [512]float64
	dst, err := t.rangeIDs(t.root, t.rootCells(stack[:]), r, dst[:0])
	if err != nil {
		return dst[:0], err
	}
	slices.Sort(dst)
	return slices.Compact(dst), nil
}

// rangeIDs appends the IDs under n, whose cell is cells[:2d], with repeats.
func (t *Tree) rangeIDs(n *node, cells []float64, r geom.Rect, out []uint32) ([]uint32, error) {
	if !cellMeets(t.dim, cells, r) {
		return out, nil
	}
	if n.children == nil {
		// Lazy decode: stride over the packed entries reading only each
		// 4-byte ID, skipping the 16d coordinate bytes entirely.
		es := t.entrySize()
		for p := n.firstPage; p != 0; {
			buf, err := t.store.View(p)
			if err != nil {
				return out, err
			}
			var recs []byte
			for p, recs = t.pageRecs(buf); len(recs) > 0; recs = recs[es:] {
				out = append(out, binary.LittleEndian.Uint32(recs))
			}
		}
		return out, nil
	}
	for mask, c := range n.children {
		var err error
		if out, err = t.rangeIDs(c, childCell(t.dim, cells, mask), r, out); err != nil {
			return out, err
		}
	}
	return out, nil
}

// rootCells returns buf, grown to hold the cells of a root-to-leaf path (2d
// coordinates per level, lo then hi), with the domain's cell first.
func (t *Tree) rootCells(buf []float64) []float64 {
	if need := 2 * t.dim * (t.maxDepth + 2); need > len(buf) {
		buf = make([]float64, need)
	}
	copy(buf, t.domain.Lo)
	copy(buf[t.dim:], t.domain.Hi)
	return buf
}

// childCell writes the cell of child mask (bit j set: the upper half in
// dimension j) of the cell in cells[:2d] into cells[2d:4d] and returns
// cells[2d:].
func childCell(d int, cells []float64, mask int) []float64 {
	lo, hi, child := cells[:d], cells[d:2*d], cells[2*d:]
	for j := range d {
		mid := (lo[j] + hi[j]) / 2
		if mask&(1<<j) != 0 {
			child[j], child[d+j] = mid, hi[j]
		} else {
			child[j], child[d+j] = lo[j], mid
		}
	}
	return child
}

// cellMeets reports whether the cell in cells[:2d] and r share a point.
func cellMeets(d int, cells []float64, r geom.Rect) bool {
	for j := range d {
		if cells[d+j] < r.Lo[j] || r.Hi[j] < cells[j] {
			return false
		}
	}
	return true
}

// Leaves calls fn on every leaf in depth-first order, children in mask
// order, with its depth and the first page of its chain. The depths alone
// fix the tree's shape: every internal node has 2^d children.
func (t *Tree) Leaves(fn func(depth int, first pagestore.PageID)) {
	var walk func(n *node)
	walk = func(n *node) {
		if n.children == nil {
			fn(n.depth, n.firstPage)
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
}

// CollectPages appends every page ID reachable from the tree — each leaf's
// full page chain, leaves in Leaves' order — to dst and returns it.
// Read-only: a pinned MVCC version enumerates its share of the page store
// this way.
func (t *Tree) CollectPages(dst []pagestore.PageID) ([]pagestore.PageID, error) {
	var err error
	t.Leaves(func(_ int, p pagestore.PageID) {
		for p != 0 && err == nil {
			dst = append(dst, p)
			p, err = t.chainNext(p)
		}
	})
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// Validate walks the tree checking structural invariants: internal nodes
// have exactly 2^d children, leaf page chains are readable, exactly as long
// as their page counts and share no page, no page holds more entries than
// fit, no leaf holds an ID twice (a point query returns one leaf's entries
// as they are), depths are consistent, and the entry count matches the
// recorded size. Tests run it after mutations and loads.
func (t *Tree) Validate() error {
	fan := 1 << t.dim
	entries := 0
	seen := make(map[pagestore.PageID]bool)
	ids := make(map[uint32]bool)
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
		clear(ids)
		for p := n.firstPage; p != 0; chain++ {
			// Read in place, nothing decoded: chain pointer and entry count
			// live in the first 8 bytes, each record's ID in its first 4.
			buf, err := t.store.View(p)
			if err != nil || seen[p] || chain == n.pages {
				return fmt.Errorf("octree: leaf page %d unreadable (%v), reached twice or past the leaf's %d pages", p, err, n.pages)
			}
			seen[p] = true
			count := int(binary.LittleEndian.Uint32(buf[4:8]))
			if count > t.perPage() {
				return fmt.Errorf("octree: leaf page %d holds %d entries, at most %d fit", p, count, t.perPage())
			}
			entries += count
			next, recs := t.pageRecs(buf)
			for es := t.entrySize(); len(recs) > 0; recs = recs[es:] {
				id := binary.LittleEndian.Uint32(recs)
				if ids[id] {
					return fmt.Errorf("octree: leaf with page %d holds ID %d twice", p, id)
				}
				ids[id] = true
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
