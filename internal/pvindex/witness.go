package pvindex

import (
	"cmp"
	"fmt"
	"slices"

	"pvoronoi/internal/cowpage"
	"pvoronoi/internal/uncertain"
)

// witnessCap bounds a row's witness list (docs/ARCHITECTURE.md, "Witnesses")
// at d dimensions, about four times a cold run's witnesses on uniform data.
func witnessCap(d int) int { return min(16<<d, 1024) }

// idLists maps an ID to an ascending list of IDs, in pages of
// cowpage.Width lists; a stored list is never written.
type idLists struct {
	pages *cowpage.Pages[listPage]
	rows  int // non-empty lists
	total int // Σ list lengths
}

type listPage struct {
	live  int
	lists [cowpage.Width][]uint32
}

func newIDLists() *idLists { return &idLists{pages: cowpage.New[listPage]()} }

// clone returns a writable copy sharing every page with l.
func (l *idLists) clone() *idLists {
	return &idLists{pages: l.pages.Clone(), rows: l.rows, total: l.total}
}

// get returns id's list, nil when empty. Do not modify it.
func (l *idLists) get(id uint32) []uint32 {
	n, s := cowpage.Split(id)
	if p := l.pages.At(n); p != nil {
		return p.lists[s]
	}
	return nil
}

// set stores list (adopted) as id's; an empty list removes id's, and a page
// goes with its last list. A list equal to id's writes no page.
func (l *idLists) set(id uint32, list []uint32) {
	old := l.get(id)
	if slices.Equal(old, list) {
		return
	}
	n, s := cowpage.Split(id)
	p := l.pages.Writable(n, cowpage.Copy[listPage])
	switch {
	case len(old) == 0:
		p.live, l.rows = p.live+1, l.rows+1
	case len(list) == 0:
		p.live, l.rows, list = p.live-1, l.rows-1, nil
	}
	l.total += len(list) - len(old)
	if p.lists[s] = list; p.live == 0 {
		l.pages.Delete(n)
	}
}

// forEach visits the non-empty lists in ascending ID order until fn fails.
func (l *idLists) forEach(fn func(id uint32, list []uint32) error) error {
	for _, n := range l.pages.Blocks() {
		for i, list := range &l.pages.At(n).lists {
			if len(list) == 0 {
				continue
			}
			if err := fn(n<<cowpage.Bits|uint32(i), list); err != nil {
				return err
			}
		}
	}
	return nil
}

// listsImage is an idLists flattened: the IDs with a list and its end in Flat.
type listsImage struct {
	IDs, Ends, Flat []uint32
}

func (l *idLists) image() *listsImage {
	img := &listsImage{IDs: make([]uint32, 0, l.rows), Ends: make([]uint32, 0, l.rows), Flat: make([]uint32, 0, l.total)}
	_ = l.forEach(func(id uint32, list []uint32) error {
		img.IDs, img.Flat = append(img.IDs, id), append(img.Flat, list...)
		img.Ends = append(img.Ends, uint32(len(img.Flat)))
		return nil
	})
	return img
}

// listsFromImage rebuilds an idLists, refusing an image whose IDs or lists do
// not strictly ascend or whose ends do not cut Flat into non-empty lists.
func listsFromImage(img *listsImage) (*idLists, error) {
	if img == nil || len(img.Ends) != len(img.IDs) {
		return nil, fmt.Errorf("no list image, or its ids and ends differ in number")
	}
	l, start := newIDLists(), uint32(0)
	for i, id := range img.IDs {
		end := img.Ends[i]
		if i > 0 && id <= img.IDs[i-1] || end <= start || end > uint32(len(img.Flat)) {
			return nil, fmt.Errorf("list ids do not ascend, or the list of %d is empty or overruns, at %d", id, i)
		}
		list := img.Flat[start:end:end]
		for k := 1; k < len(list); k++ {
			if list[k] <= list[k-1] {
				return nil, fmt.Errorf("list of %d does not ascend", id)
			}
		}
		l.set(id, list)
		start = end
	}
	if start != uint32(len(img.Flat)) {
		return nil, fmt.Errorf("%d list entries past the last list", uint32(len(img.Flat))-start)
	}
	return l, nil
}

// checkWitnesses holds witness lists to the rules the write path keeps: rows
// and members are live objects of db, no row lists itself, and no list
// passes witnessCap.
func checkWitnesses(db *uncertain.DB, lists *idLists) error {
	return lists.forEach(func(id uint32, list []uint32) error {
		switch {
		case db.Get(uncertain.ID(id)) == nil:
			return fmt.Errorf("witness list of %d, which is not an object", id)
		case len(list) > witnessCap(db.Dim()):
			return fmt.Errorf("object %d has %d witnesses, cap %d", id, len(list), witnessCap(db.Dim()))
		case slices.Contains(list, id):
			return fmt.Errorf("object %d lists itself as a witness", id)
		}
		for _, v := range list {
			if db.Get(uncertain.ID(v)) == nil {
				return fmt.Errorf("object %d lists witness %d, which is not an object", id, v)
			}
		}
		return nil
	})
}

// transpose returns the reverse index of lists — v's list holds, ascending,
// the rows whose lists hold v — from one counting sort of the lists'
// (member, row) pairs, every reverse list cut from one array. A build and a
// load derive the reverse index with it; the write path keeps it merged op
// by op (mergeWitnessed).
func transpose(lists *idLists) *idLists {
	pairs := make([]uint64, 0, lists.total) // member<<32 | row
	_ = lists.forEach(func(id uint32, list []uint32) error {
		for _, v := range list {
			pairs = append(pairs, uint64(v)<<32|uint64(id))
		}
		return nil
	})
	pairs = sortByMember(pairs) // rows ascend within each member already
	by, rows := newIDLists(), make([]uint32, len(pairs))
	for lo := 0; lo < len(pairs); {
		hi := lo
		for ; hi < len(pairs) && pairs[hi]>>32 == pairs[lo]>>32; hi++ {
			rows[hi] = uint32(pairs[hi])
		}
		by.set(uint32(pairs[lo]>>32), rows[lo:hi:hi])
		lo = hi
	}
	return by
}

// sortByMember sorts (member, row) pairs by member, keeping their order
// within a member: one byte-wide counting pass per byte of the member half.
func sortByMember(ps []uint64) []uint64 {
	tmp := make([]uint64, len(ps))
	for shift := 32; shift < 64; shift += 8 {
		var at [257]int
		for _, p := range ps {
			at[p>>shift&255+1]++
		}
		for b := range 256 {
			at[b+1] += at[b]
		}
		for _, p := range ps {
			tmp[at[p>>shift&255]] = p
			at[p>>shift&255]++
		}
		ps, tmp = tmp, ps
	}
	return ps
}

// revPatch is one pending reverse-index change: row joins (add) or leaves
// member's reverse list.
type revPatch struct {
	member, row uint32
	add         bool
}

// setWitnesses stores id's witness list and queues the reverse-index patches
// for the members it dropped and gained; mergeWitnessed applies them at the
// end of the op. An op sets a row's list at most once.
func (w *working) setWitnesses(id uint32, list []uint32) {
	old := w.witnesses.get(id)
	w.witnesses.set(id, list)
	for i, j := 0, 0; i < len(old) || j < len(list); {
		switch {
		case j == len(list) || i < len(old) && old[i] < list[j]:
			w.patches = append(w.patches, revPatch{old[i], id, false})
			i++
		case i == len(old) || list[j] < old[i]:
			w.patches = append(w.patches, revPatch{list[j], id, true})
			j++
		default:
			i, j = i+1, j+1
		}
	}
}

// mergeWitnessed ends an op — an insert run or one delete — by sorting its
// queued patches by member and rewriting each touched reverse list once, so
// the next delete reads its victim's list as this op left it.
func (w *working) mergeWitnessed() {
	ps := w.patches
	slices.SortFunc(ps, func(a, b revPatch) int {
		return cmp.Or(cmp.Compare(a.member, b.member), cmp.Compare(a.row, b.row))
	})
	for lo := 0; lo < len(ps); {
		hi := lo + 1
		for hi < len(ps) && ps[hi].member == ps[lo].member {
			hi++
		}
		w.witnessed.set(ps[lo].member, mergeRows(w.witnessed.get(ps[lo].member), ps[lo:hi]))
		lo = hi
	}
	w.patches = ps[:0]
}

// mergeRows returns the ascending list old with the patches ps (ascending
// by row, one per row) applied, as a fresh list.
func mergeRows(old []uint32, ps []revPatch) []uint32 {
	out := make([]uint32, 0, len(old)+len(ps))
	i := 0
	for _, p := range ps {
		for ; i < len(old) && old[i] < p.row; i++ {
			out = append(out, old[i])
		}
		if i < len(old) && old[i] == p.row {
			i++
		}
		if p.add {
			out = append(out, p.row)
		}
	}
	return slices.Clip(append(out, old[i:]...))
}

// union returns the ascending union of a and b, less the IDs in drop, in
// dst's storage.
func union(dst, a, b []uint32, drop ...uint32) []uint32 {
	dst = append(append(dst[:0], a...), b...)
	slices.Sort(dst)
	return slices.DeleteFunc(slices.Compact(dst), func(x uint32) bool { return slices.Contains(drop, x) })
}
