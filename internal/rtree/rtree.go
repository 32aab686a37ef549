// Package rtree implements an R*-tree (Beckmann et al., SIGMOD 1990) over
// d-dimensional rectangles, the access method the paper uses both as the
// PNNQ Step-1 baseline (branch-and-prune, Cheng et al. 2004) and as the
// substrate for nearest-neighbor browsing during PV-index construction
// (Hjaltason–Samet distance browsing, used by the FS and IS C-set strategies).
//
// The tree is main-memory resident but models the paper's disk layout: one
// leaf node corresponds to one disk page, and every leaf a query visits is
// one I/O in that call's Cost (Figs. 9(c), 9(g)). Queries write nothing to
// the tree, so a sealed tree is read concurrently without any counter.
package rtree

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"pvoronoi/internal/geom"
)

// Item is a stored entry: a rectangle and the caller's identifier.
type Item struct {
	Rect geom.Rect
	ID   uint32
}

// DefaultFanout matches the paper's experimental setting.
const DefaultFanout = 100

// cowTag identifies the mutation session that owns a node. Nodes whose tag
// differs from the tree handle's are shared with older versions and must be
// path-copied before mutation (see CloneCOW).
type cowTag struct{ _ byte }

// Tree is an R*-tree. Not safe for concurrent mutation, but a sealed handle
// (one that is no longer mutated) may be read concurrently while a CloneCOW
// descendant is being mutated: mutations never touch shared nodes.
type Tree struct {
	dim        int
	maxEntries int
	minEntries int
	root       *node
	size       int
	sess       *cowTag
}

type node struct {
	owner   *cowTag
	level   int // 0 = leaf
	entries []entry
}

// entry is either a child pointer (internal nodes) or an item (leaves).
type entry struct {
	rect  geom.Rect
	child *node
	item  Item
}

func (n *node) leaf() bool { return n.level == 0 }

func (n *node) mbr() geom.Rect { return mbrOf(n.entries) }

// New returns an empty R*-tree for dim-dimensional data with the given
// fanout (maximum entries per node; DefaultFanout if <= 0). The minimum
// fill is 40% of the fanout, per the R*-tree paper.
func New(dim, fanout int) *Tree {
	if fanout <= 0 {
		fanout = DefaultFanout
	}
	if fanout < 4 {
		fanout = 4
	}
	minE := fanout * 2 / 5
	if minE < 1 {
		minE = 1
	}
	sess := new(cowTag)
	return &Tree{
		dim:        dim,
		maxEntries: fanout,
		minEntries: minE,
		root:       &node{owner: sess, level: 0},
		sess:       sess,
	}
}

// CloneCOW returns a mutable copy-on-write descendant of t that initially
// shares every node. Mutations of the clone path-copy the nodes they touch
// and never modify shared ones, so t (now sealed by convention) stays
// readable concurrently — the region tree's half of the index's MVCC
// versioning. Cost is O(1) plus one node copy per node on each subsequent
// mutation path.
func (t *Tree) CloneCOW() *Tree {
	return &Tree{
		dim:        t.dim,
		maxEntries: t.maxEntries,
		minEntries: t.minEntries,
		root:       t.root,
		size:       t.size,
		sess:       new(cowTag),
	}
}

// ownedNode returns n if the current session already owns it, otherwise a
// copy owned by the session (entries slice cloned; child pointers and rects
// shared — geometry values are never mutated in place). The caller must
// store the returned pointer back into the parent.
func (t *Tree) ownedNode(n *node) *node {
	if n.owner == t.sess {
		return n
	}
	c := &node{owner: t.sess, level: n.level}
	c.entries = append(make([]entry, 0, len(n.entries)+1), n.entries...)
	return c
}

// Len returns the number of stored items.
func (t *Tree) Len() int { return t.size }

// Dim returns the tree's dimensionality.
func (t *Tree) Dim() int { return t.dim }

// Height returns the tree height (1 for a root-only tree).
func (t *Tree) Height() int { return t.root.level + 1 }

// pendingEntry is an entry awaiting (re)insertion at a given level.
type pendingEntry struct {
	e     entry
	level int
}

// Insert adds an item to the tree.
func (t *Tree) Insert(item Item) {
	t.checkDim(item)
	t.insertAtLevel(entry{rect: item.Rect, item: item}, 0)
	t.size++
}

// checkDim panics on an item of the wrong dimensionality (a caller bug).
func (t *Tree) checkDim(item Item) {
	if item.Rect.Dim() != t.dim {
		panic(fmt.Sprintf("rtree: item dim %d, tree dim %d", item.Rect.Dim(), t.dim))
	}
}

// insertAtLevel places e into a node at the given level, applying R*
// overflow treatment (forced reinsert once per level, then split). Forced
// reinserts are deferred to a worklist so the recursive descent never
// mutates nodes on its own path.
func (t *Tree) insertAtLevel(e entry, level int) {
	var queue []pendingEntry // filled only by forced reinserts
	var reinserted uint64    // bit l set: level l already had its forced reinsert
	p := pendingEntry{e, level}
	for {
		t.root = t.ownedNode(t.root)
		split := t.insertRec(t.root, p.e, p.level, &reinserted, &queue)
		if split != nil {
			// Root split: grow the tree.
			newRoot := &node{owner: t.sess, level: t.root.level + 1}
			newRoot.entries = []entry{
				{rect: t.root.mbr(), child: t.root},
				{rect: split.mbr(), child: split},
			}
			t.root = newRoot
		}
		if len(queue) == 0 {
			return
		}
		p, queue = queue[0], queue[1:]
	}
}

// insertRec descends to the target level, inserts, and handles overflow.
// n must be owned by the current session; children are path-copied before
// descent. It returns a new sibling if n was split. Entries evicted by
// forced reinsert are appended to queue for the caller's worklist.
func (t *Tree) insertRec(n *node, e entry, level int, reinserted *uint64, queue *[]pendingEntry) *node {
	if n.level == level {
		n.entries = append(n.entries, e)
	} else {
		idx := t.chooseSubtree(n, e.rect)
		child := t.ownedNode(n.entries[idx].child)
		n.entries[idx].child = child
		split := t.insertRec(child, e, level, reinserted, queue)
		n.entries[idx].rect = child.mbr()
		if split != nil {
			n.entries = append(n.entries, entry{rect: split.mbr(), child: split})
		}
	}
	if len(n.entries) <= t.maxEntries {
		return nil
	}
	// Overflow treatment: forced reinsert once per level per insertion,
	// except at the root.
	if n != t.root && *reinserted&(1<<n.level) == 0 {
		*reinserted |= 1 << n.level
		t.forcedReinsert(n, queue)
		return nil
	}
	return t.splitNode(n)
}

// chooseSubtree picks the child to descend into, per R*: at the level above
// leaves minimize overlap enlargement; above that minimize area enlargement.
func (t *Tree) chooseSubtree(n *node, r geom.Rect) int {
	best := 0
	if n.level == 1 {
		if i, ok := zeroEnlargementChild(n, r); ok {
			return i
		}
		// Minimum overlap enlargement, ties by area enlargement then area.
		bestOverlap, bestEnl, bestArea := math.Inf(1), math.Inf(1), math.Inf(1)
		for i := range n.entries {
			er := n.entries[i].rect
			dOverlap := overlapEnlargement(n, i, r)
			area := er.Volume()
			enl := unionVolume(er, r) - area
			if dOverlap < bestOverlap ||
				(dOverlap == bestOverlap && enl < bestEnl) ||
				(dOverlap == bestOverlap && enl == bestEnl && area < bestArea) {
				best, bestOverlap, bestEnl, bestArea = i, dOverlap, enl, area
			}
		}
		return best
	}
	bestEnl, bestArea := math.Inf(1), math.Inf(1)
	for i := range n.entries {
		area := n.entries[i].rect.Volume()
		enl := unionVolume(n.entries[i].rect, r) - area
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// overlapEnlargement is how much child i's overlap with its siblings grows
// when its rectangle grows to take r in.
func overlapEnlargement(n *node, i int, r geom.Rect) float64 {
	er := n.entries[i].rect
	var overlapBefore, overlapAfter float64
	for j := range n.entries {
		if i == j {
			continue
		}
		f := n.entries[j].rect
		overlapBefore += overlapVolume(er, er, f)
		overlapAfter += overlapVolume(er, r, f)
	}
	return overlapAfter - overlapBefore
}

// zeroEnlargementChild is chooseSubtree's answer at level 1 in O(M) when a
// child's rectangle contains r. That child's overlap and area enlargements
// are exactly 0: r moves none of its bounds, so both are a value minus
// itself. Every other child's are ≥ 0, float subtraction, products and sums
// being monotone. The O(M²) loop therefore picks the first child of least
// area among those whose two enlargements are 0; only a child of zero area
// enlargement that does not contain r needs its overlap enlargement
// computed. ok is false when no child contains r, or when the children's
// areas do not sum to a finite value (a difference of infinite overlaps is
// NaN, not 0); the loop decides then.
func zeroEnlargementChild(n *node, r geom.Rect) (best int, ok bool) {
	total := 0.0
	for i := range n.entries {
		total += n.entries[i].rect.Volume()
		ok = ok || n.entries[i].rect.ContainsRect(r)
	}
	if !ok || math.IsInf(total, 0) || math.IsNaN(total) {
		return 0, false
	}
	bestArea := math.Inf(1)
	for i := range n.entries {
		er := n.entries[i].rect
		area := er.Volume()
		if area >= bestArea || unionVolume(er, r)-area != 0 {
			continue
		}
		if er.ContainsRect(r) || overlapEnlargement(n, i, r) == 0 {
			best, bestArea = i, area
		}
	}
	return best, true
}

// forcedReinsert removes the 30% of n's entries whose centers are farthest
// from n's MBR center and defers them to the worklist (close-reinsert order).
func (t *Tree) forcedReinsert(n *node, queue *[]pendingEntry) {
	box := n.mbr()
	type distEntry struct {
		e entry
		d float64
	}
	des := make([]distEntry, len(n.entries))
	for i, e := range n.entries {
		des[i].e = e
		for k := range box.Lo { // squared distance between the two centers
			d := (e.rect.Lo[k]+e.rect.Hi[k])/2 - (box.Lo[k]+box.Hi[k])/2
			des[i].d += d * d
		}
	}
	slices.SortFunc(des, func(a, b distEntry) int { return cmp.Compare(a.d, b.d) })
	p := len(des) * 3 / 10
	if p < 1 {
		p = 1
	}
	keep := des[:len(des)-p]
	evict := des[len(des)-p:]
	n.entries = n.entries[:0]
	for _, de := range keep {
		n.entries = append(n.entries, de.e)
	}
	// Close reinsert: nearest evicted entries first.
	for _, de := range evict {
		*queue = append(*queue, pendingEntry{de.e, n.level})
	}
}

// splitNode performs the R* topological split and returns the new sibling.
func (t *Tree) splitNode(n *node) *node {
	entries := n.entries
	m := t.minEntries
	buf := make([]float64, 2*t.dim*len(entries)) // sweepSplits scratch

	// Choose split axis: minimize total margin over all distributions.
	bestAxis, bestMargin := 0, math.Inf(1)
	for axis := 0; axis < t.dim; axis++ {
		for _, byUpper := range []bool{false, true} {
			sortEntries(entries, axis, byUpper)
			var margin float64
			sweepSplits(entries, m, buf, func(_ int, left, right geom.Rect) {
				margin += left.Margin() + right.Margin()
			})
			if margin < bestMargin {
				bestMargin, bestAxis = margin, axis
			}
		}
	}

	// Choose distribution along the best axis: minimize overlap, tie by area.
	bestK, bestUpper := -1, false
	bestOverlap, bestArea := math.Inf(1), math.Inf(1)
	for _, byUpper := range []bool{false, true} {
		sortEntries(entries, bestAxis, byUpper)
		sweepSplits(entries, m, buf, func(k int, left, right geom.Rect) {
			overlap := overlapVolume(left, left, right)
			area := left.Volume() + right.Volume()
			if overlap < bestOverlap || (overlap == bestOverlap && area < bestArea) {
				bestOverlap, bestArea, bestK, bestUpper = overlap, area, k, byUpper
			}
		})
	}
	sortEntries(entries, bestAxis, bestUpper)

	sibling := &node{owner: t.sess, level: n.level}
	sibling.entries = append(make([]entry, 0, t.maxEntries+1), entries[bestK:]...)
	n.entries = entries[:bestK]
	return sibling
}

// sweepSplits calls visit(k, mbr(es[:k]), mbr(es[k:])) for every legal split
// position k = m..len(es)-m, ascending, in O(len(es)): suffix MBRs are swept
// right to left into buf (2*dim*len(es) floats), the prefix MBR grows in
// place. The rectangles alias buf. min and max are exact, so these are
// bit-for-bit the MBRs a fresh fold over each half gives.
func sweepSplits(es []entry, m int, buf []float64, visit func(k int, left, right geom.Rect)) {
	d := len(es[0].rect.Lo)
	slot := func(i int) geom.Rect { return geom.Rect{Lo: buf[2*d*i : 2*d*i+d], Hi: buf[2*d*i+d : 2*d*i+2*d]} }
	for k := len(es) - 1; k >= m; k-- { // slot k = mbr(es[k:])
		setRect(slot(k), es[k].rect)
		if k+1 < len(es) {
			growRect(slot(k), slot(k+1))
		}
	}
	left := slot(0)
	setRect(left, es[0].rect)
	for k := 1; k <= len(es)-m; k++ {
		if k >= m {
			visit(k, left, slot(k))
		}
		growRect(left, es[k].rect)
	}
}

func sortEntries(es []entry, axis int, byUpper bool) {
	slices.SortFunc(es, func(a, b entry) int {
		if byUpper {
			return cmp.Or(cmp.Compare(a.rect.Hi[axis], b.rect.Hi[axis]), cmp.Compare(a.rect.Lo[axis], b.rect.Lo[axis]))
		}
		return cmp.Or(cmp.Compare(a.rect.Lo[axis], b.rect.Lo[axis]), cmp.Compare(a.rect.Hi[axis], b.rect.Hi[axis]))
	})
}

// mbrOf returns the minimum bounding rectangle of es in one allocation.
func mbrOf(es []entry) geom.Rect {
	d := len(es[0].rect.Lo)
	buf := make([]float64, 2*d)
	r := geom.Rect{Lo: buf[:d:d], Hi: buf[d:]}
	setRect(r, es[0].rect)
	for _, e := range es[1:] {
		growRect(r, e.rect)
	}
	return r
}

// setRect and growRect overwrite r with s, or enlarge it to cover s, in
// place: only for rectangles the caller owns (scratch, or not yet in a node).
func setRect(r, s geom.Rect) {
	copy(r.Lo, s.Lo)
	copy(r.Hi, s.Hi)
}

func growRect(r, s geom.Rect) {
	for k := range r.Lo {
		r.Lo[k] = min(r.Lo[k], s.Lo[k])
		r.Hi[k] = max(r.Hi[k], s.Hi[k])
	}
}

// overlapVolume returns the volume of (a ∪ grow) ∩ b, 0 when disjoint,
// without materialising either; pass grow = a for plain a ∩ b. Sides
// multiply in dimension order, as Union/Intersection/Volume would.
func overlapVolume(a, grow, b geom.Rect) float64 {
	v := 1.0
	for k := range a.Lo {
		lo := max(min(a.Lo[k], grow.Lo[k]), b.Lo[k])
		hi := min(max(a.Hi[k], grow.Hi[k]), b.Hi[k])
		if lo > hi {
			return 0
		}
		v *= hi - lo
	}
	return v
}

// unionVolume returns the volume of a ∪ b's bounding rectangle.
func unionVolume(a, b geom.Rect) float64 {
	v := 1.0
	for k := range a.Lo {
		v *= max(a.Hi[k], b.Hi[k]) - min(a.Lo[k], b.Lo[k])
	}
	return v
}

// Delete removes the item with the given rect and ID. It reports whether an
// item was removed. Underfull nodes are condensed and their entries
// reinserted, per the classic R-tree deletion algorithm.
func (t *Tree) Delete(item Item) bool {
	path, idx := t.findLeaf(t.root, item, nil)
	if path == nil {
		return false
	}
	// Materialize an owned copy of the found path top-down (the search
	// itself is read-only, so shared nodes it crossed stay untouched).
	path[0] = t.ownedNode(path[0])
	t.root = path[0]
	for i := 1; i < len(path); i++ {
		parent := path[i-1]
		for j := range parent.entries {
			if parent.entries[j].child == path[i] {
				path[i] = t.ownedNode(path[i])
				parent.entries[j].child = path[i]
				break
			}
		}
	}
	leaf := path[len(path)-1]
	leaf.entries = append(leaf.entries[:idx], leaf.entries[idx+1:]...)
	t.size--
	t.condense(path)
	// Shrink the root while it is an internal node with a single child.
	for !t.root.leaf() && len(t.root.entries) == 1 {
		t.root = t.root.entries[0].child
	}
	if len(t.root.entries) == 0 && !t.root.leaf() {
		t.root = &node{owner: t.sess, level: 0}
	}
	return true
}

// findLeaf returns the root-to-leaf path to the leaf containing item and the
// entry index within that leaf, or (nil, -1).
func (t *Tree) findLeaf(n *node, item Item, path []*node) ([]*node, int) {
	path = append(path, n)
	if n.leaf() {
		for i, e := range n.entries {
			if e.item.ID == item.ID && e.rect.Equal(item.Rect) {
				return path, i
			}
		}
		return nil, -1
	}
	for _, e := range n.entries {
		if e.rect.ContainsRect(item.Rect) {
			if p, i := t.findLeaf(e.child, item, path); p != nil {
				return p, i
			}
		}
	}
	return nil, -1
}

// condense walks the deletion path bottom-up, removing underfull nodes and
// reinserting their entries at their original level.
func (t *Tree) condense(path []*node) {
	type orphan struct {
		e     entry
		level int
	}
	var orphans []orphan
	for i := len(path) - 1; i >= 1; i-- {
		n := path[i]
		parent := path[i-1]
		childIdx := -1
		for j, e := range parent.entries {
			if e.child == n {
				childIdx = j
				break
			}
		}
		if childIdx < 0 {
			continue
		}
		if len(n.entries) < t.minEntries {
			parent.entries = append(parent.entries[:childIdx], parent.entries[childIdx+1:]...)
			for _, e := range n.entries {
				orphans = append(orphans, orphan{e, n.level})
			}
		} else {
			parent.entries[childIdx].rect = n.mbr()
		}
	}
	// Entries of a dissolved node re-enter at the node's level.
	for _, o := range orphans {
		t.insertAtLevel(o.e, o.level)
	}
}

// Search appends to dst all items whose rectangles intersect r and returns
// the extended slice with the nodes and leaves it touched.
func (t *Tree) Search(r geom.Rect, dst []Item) ([]Item, Cost) {
	var cost Cost
	var rec func(n *node)
	rec = func(n *node) {
		if n.leaf() {
			cost.Leaves++
			for _, e := range n.entries {
				if e.rect.Intersects(r) {
					dst = append(dst, e.item)
				}
			}
			return
		}
		cost.Nodes++
		for _, e := range n.entries {
			if e.rect.Intersects(r) {
				rec(e.child)
			}
		}
	}
	rec(t.root)
	return dst, cost
}

// All appends every stored item to dst.
func (t *Tree) All(dst []Item) []Item {
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf() {
			for _, e := range n.entries {
				dst = append(dst, e.item)
			}
			return
		}
		for _, e := range n.entries {
			walk(e.child)
		}
	}
	walk(t.root)
	return dst
}

// DistFunc maps an item rectangle to a non-negative key for NN browsing.
// It must be lower-bounded by the MinDist of any rectangle enclosing the
// item's rectangle (true for both MinDist itself and center distance).
type DistFunc func(geom.Rect) float64

// MinDistTo returns the DistFunc ordering by minimum distance from q.
func MinDistTo(q geom.Point) DistFunc {
	return func(r geom.Rect) float64 { return r.MinDist(q) }
}

// CenterDistTo returns the DistFunc ordering by distance of rectangle
// centers from q — the "mean position" ordering of the FS strategy.
func CenterDistTo(q geom.Point) DistFunc {
	return func(r geom.Rect) float64 { return geom.Dist(r.Center(), q) }
}

// browseItem is one element of a best-first browse's priority queue: 16
// bytes and no pointers, so sifting it moves no pointer past a write barrier.
// ref indexes the iterator's append-only table of entries; because every push
// appends exactly one entry, ref is also the push sequence number — the
// tie-break among equal distances that fixes the pop sequence.
type browseItem struct {
	dist float64
	ref  int32
}

func (a browseItem) less(b browseItem) bool {
	return a.dist < b.dist || (a.dist == b.dist && a.ref < b.ref)
}

// NNIter browses items in non-decreasing order of a distance function
// (Hjaltason & Samet, TODS 1999). Create with NewNNIter; call Next until
// ok == false, then Release. It is also the queue of the tree's other
// best-first searches (PossibleNN, KthBound), which push and pop directly.
type NNIter struct {
	tree   *Tree
	q      geom.Point
	distFn DistFunc
	heap   []browseItem // binary min-heap on (dist, ref)
	refs   []*entry     // refs[i] = the entry of the i-th push
	root   entry        // stands in for an entry pointing at the tree's root
	kth    []float64    // KthBound's running k-th heap, pooled with the queue
	leaves int          // leaves Next has opened
}

// iterPool recycles released iterators with their heap and entry table.
var iterPool = sync.Pool{New: func() any { return new(NNIter) }}

// newBrowse returns an iterator over t holding the root (an empty queue when
// t is empty). The root's key is never compared — it is the only element
// when it is popped, and every cutoff starts at +Inf — so it goes in at 0
// instead of paying for the root's MBR.
func newBrowse(t *Tree) *NNIter {
	it := iterPool.Get().(*NNIter)
	it.tree = t
	if t.size > 0 {
		it.root = entry{child: t.root}
		it.push(0, &it.root)
	}
	return it
}

// Release returns the iterator's memory for reuse by a later browse; the
// iterator must not be used afterwards. Forgetting to call it costs only the
// reuse. The entry table is cleared so a pooled iterator keeps no node of a
// retired tree version alive.
func (it *NNIter) Release() {
	clear(it.refs)
	*it = NNIter{heap: it.heap[:0], refs: it.refs[:0], kth: it.kth[:0]}
	iterPool.Put(it)
}

func (it *NNIter) push(dist float64, e *entry) {
	x := browseItem{dist: dist, ref: int32(len(it.refs))}
	it.refs = append(it.refs, e)
	s := append(it.heap, x)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !x.less(s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = x
	it.heap = s
}

func (it *NNIter) pop() (float64, *entry) {
	s := it.heap
	top := s[0]
	n := len(s) - 1
	x := s[n]
	s = s[:n]
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && s[c+1].less(s[c]) {
			c++
		}
		if !s[c].less(x) {
			break
		}
		s[i] = s[c]
		i = c
	}
	if n > 0 {
		s[i] = x
	}
	it.heap = s
	return top.dist, it.refs[top.ref]
}

// NewNNIter starts an incremental NN browse from q. distFn orders the
// results; pass MinDistTo(q) or CenterDistTo(q).
func NewNNIter(t *Tree, q geom.Point, distFn DistFunc) *NNIter {
	it := newBrowse(t)
	it.q, it.distFn = q, distFn
	return it
}

// Next returns the next item in distance order.
func (it *NNIter) Next() (Item, float64, bool) {
	for len(it.heap) > 0 {
		dist, top := it.pop()
		n := top.child
		if n == nil {
			return top.item, dist, true
		}
		if n.leaf() {
			it.leaves++
			for i := range n.entries {
				e := &n.entries[i]
				it.push(it.distFn(e.rect), e)
			}
			continue
		}
		for i := range n.entries {
			e := &n.entries[i]
			it.push(e.rect.MinDist(it.q), e)
		}
	}
	return Item{}, 0, false
}

// Leaves returns the number of leaf pages Next has opened so far — the
// browse's own leaf I/O.
func (it *NNIter) Leaves() int { return it.leaves }

// PossibleNN implements the paper's R-tree baseline for PNNQ Step 1
// (branch-and-prune, Cheng et al. 2004): it returns the IDs of all items o
// with distmin(o, q) <= min_o' distmax(o', q), visiting only nodes whose
// MinDist does not exceed the running best max-distance, and the nodes and
// leaves it visited.
func (t *Tree) PossibleNN(q geom.Point) ([]uint32, Cost) {
	var cost Cost
	if t.size == 0 {
		return nil, cost
	}
	bestMax := math.Inf(1)
	type cand struct {
		id      uint32
		minDist float64
	}
	var cands []cand

	h := newBrowse(t)
	defer h.Release()
	for len(h.heap) > 0 {
		dist, top := h.pop()
		if dist > bestMax {
			break // all remaining nodes are farther than the pruning bound
		}
		n := top.child
		if n.leaf() {
			cost.Leaves++
			for _, e := range n.entries {
				minD := e.rect.MinDist(q)
				if maxD := e.rect.MaxDist(q); maxD < bestMax {
					bestMax = maxD
				}
				cands = append(cands, cand{e.item.ID, minD})
			}
			continue
		}
		cost.Nodes++
		for i := range n.entries {
			e := &n.entries[i]
			if d := e.rect.MinDist(q); d <= bestMax {
				h.push(d, e)
			}
		}
	}
	var out []uint32
	for _, c := range cands {
		if c.minDist <= bestMax {
			out = append(out, c.id)
		}
	}
	slices.Sort(out)
	return out, cost
}

// checkInvariants validates structural invariants; used by tests.
func (t *Tree) checkInvariants() error {
	var count int
	var walk func(n *node, isRoot bool) (geom.Rect, error)
	walk = func(n *node, isRoot bool) (geom.Rect, error) {
		if len(n.entries) == 0 {
			if isRoot && n.leaf() {
				return geom.Rect{}, nil
			}
			return geom.Rect{}, fmt.Errorf("empty non-root node at level %d", n.level)
		}
		if !isRoot && len(n.entries) < t.minEntries {
			return geom.Rect{}, fmt.Errorf("underfull node: %d < %d", len(n.entries), t.minEntries)
		}
		if len(n.entries) > t.maxEntries {
			return geom.Rect{}, fmt.Errorf("overfull node: %d > %d", len(n.entries), t.maxEntries)
		}
		if n.leaf() {
			count += len(n.entries)
			return n.mbr(), nil
		}
		for _, e := range n.entries {
			if e.child.level != n.level-1 {
				return geom.Rect{}, fmt.Errorf("level mismatch: child %d under parent %d", e.child.level, n.level)
			}
			childMBR, err := walk(e.child, false)
			if err != nil {
				return geom.Rect{}, err
			}
			if !e.rect.Equal(childMBR) {
				return geom.Rect{}, fmt.Errorf("stale MBR at level %d: have %v, children span %v", n.level, e.rect, childMBR)
			}
		}
		return n.mbr(), nil
	}
	if _, err := walk(t.root, true); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("size mismatch: counted %d, recorded %d", count, t.size)
	}
	return nil
}
