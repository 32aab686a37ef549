package pvindex

import (
	"fmt"
	"maps"
	"slices"

	"pvoronoi/internal/uncertain"
)

// witnessCap bounds a row's witness list (docs/ARCHITECTURE.md, "Witnesses")
// at d dimensions, about four times a cold run's witnesses on uniform data.
func witnessCap(d int) int { return min(16<<d, 1024) }

// idLists maps an ID to an ascending list of IDs, copy-on-write by page of
// 256 IDs: cloneCOW copies the page map, a first write to a page copies it,
// and a stored list is never written, so a batch pays for the pages it
// touches and dropping an unpublished clone is a complete rollback.
type idLists struct {
	tag   *listTag // marks the pages this idLists may write in place
	pages map[uint32]*listPage
	rows  int // non-empty lists
	total int // Σ list lengths
}

type listPage struct {
	owner *listTag
	live  int
	lists [256][]uint32
}

type listTag struct{ _ byte }

func newIDLists() *idLists { return &idLists{tag: new(listTag), pages: map[uint32]*listPage{}} }

// cloneCOW returns a writable copy sharing every page with l, which must not
// be written afterwards.
func (l *idLists) cloneCOW() *idLists {
	return &idLists{tag: new(listTag), pages: maps.Clone(l.pages), rows: l.rows, total: l.total}
}

// get returns id's list, nil when empty. Do not modify it.
func (l *idLists) get(id uint32) []uint32 {
	if p := l.pages[id>>8]; p != nil {
		return p.lists[id&255]
	}
	return nil
}

// set stores list (adopted) as id's; an empty list removes id's, and a page
// goes with its last list.
func (l *idLists) set(id uint32, list []uint32) {
	old := l.get(id)
	if len(old) == 0 && len(list) == 0 {
		return
	}
	p := l.pages[id>>8]
	if p == nil || p.owner != l.tag {
		np := &listPage{owner: l.tag}
		if p != nil {
			np.live, np.lists = p.live, p.lists
		}
		p, l.pages[id>>8] = np, np
	}
	switch {
	case len(old) == 0:
		p.live, l.rows = p.live+1, l.rows+1
	case len(list) == 0:
		p.live, l.rows, list = p.live-1, l.rows-1, nil
	}
	l.total += len(list) - len(old)
	if p.lists[id&255] = list; p.live == 0 {
		delete(l.pages, id>>8)
	}
}

// add puts x into id's list and remove takes it out, as fresh lists.
func (l *idLists) add(id, x uint32) {
	if i, found := slices.BinarySearch(l.get(id), x); !found {
		l.set(id, slices.Insert(slices.Clip(l.get(id)), i, x))
	}
}

func (l *idLists) remove(id, x uint32) {
	if i, found := slices.BinarySearch(l.get(id), x); found {
		l.set(id, slices.Delete(slices.Clone(l.get(id)), i, i+1))
	}
}

// forEach visits the non-empty lists in ascending ID order until fn fails.
func (l *idLists) forEach(fn func(id uint32, list []uint32) error) error {
	for _, n := range slices.Sorted(maps.Keys(l.pages)) {
		for i, list := range l.pages[n].lists {
			if len(list) == 0 {
				continue
			}
			if err := fn(n<<8|uint32(i), list); err != nil {
				return err
			}
		}
	}
	return nil
}

// transpose returns the reverse of l: x's list holds id exactly when id's
// list holds x. Visiting l's lists in ascending ID order leaves each reverse
// list ascending.
func (l *idLists) transpose() *idLists {
	rev := make(map[uint32][]uint32)
	_ = l.forEach(func(id uint32, list []uint32) error {
		for _, x := range list {
			rev[x] = append(rev[x], id)
		}
		return nil
	})
	t := newIDLists()
	for x, list := range rev {
		t.set(x, slices.Clip(list))
	}
	return t
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

// checkWitnesses holds witness lists and their reverse index to the rules the
// write path keeps: rows and members are live objects of db, no row lists
// itself, no list passes witnessCap, and v's reverse list holds o exactly
// when o's list holds v.
func checkWitnesses(db *uncertain.DB, lists, by *idLists) error {
	err := lists.forEach(func(id uint32, list []uint32) error {
		switch {
		case db.Get(uncertain.ID(id)) == nil:
			return fmt.Errorf("witness list of %d, which is not an object", id)
		case len(list) > witnessCap(db.Dim()):
			return fmt.Errorf("object %d has %d witnesses, cap %d", id, len(list), witnessCap(db.Dim()))
		}
		for _, v := range list {
			_, back := slices.BinarySearch(by.get(v), id)
			switch {
			case v == id:
				return fmt.Errorf("object %d lists itself as a witness", id)
			case db.Get(uncertain.ID(v)) == nil:
				return fmt.Errorf("object %d lists witness %d, which is not an object", id, v)
			case !back:
				return fmt.Errorf("object %d lists witness %d, whose reverse list lacks it", id, v)
			}
		}
		return nil
	})
	if err == nil && by.total != lists.total {
		err = fmt.Errorf("reverse index holds %d entries, the witness lists %d", by.total, lists.total)
	}
	return err
}

// setWitnesses stores id's witness list and patches the reverse index by the
// members it dropped and gained.
func (w *working) setWitnesses(id uint32, list []uint32) {
	old := w.witnesses.get(id)
	w.witnesses.set(id, list)
	for _, v := range old {
		if _, kept := slices.BinarySearch(list, v); !kept {
			w.witnessed.remove(v, id)
		}
	}
	for _, v := range list {
		if _, had := slices.BinarySearch(old, v); !had {
			w.witnessed.add(v, id)
		}
	}
}

// union returns the ascending union of a and b, less the IDs in drop, in
// dst's storage.
func union(dst, a, b []uint32, drop ...uint32) []uint32 {
	dst = append(append(dst[:0], a...), b...)
	slices.Sort(dst)
	return slices.DeleteFunc(slices.Compact(dst), func(x uint32) bool { return slices.Contains(drop, x) })
}
