package pvindex

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"pvoronoi/internal/cowpage"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/uncertain"
)

// Every per-ID table of a version — the UBRs, the witness lists and their
// reverse index — is a cowpage.Pages: pages of cowpage.Width IDs,
// copy-on-write by page, so a batch pays for the pages it touches and
// dropping an unpublished clone is a complete rollback.

// ubrTable maps an object ID to its stored UBR. A slot is fixed width, 2d
// float64 (lo, then hi) plus a presence bit.
type ubrTable struct {
	d     int
	pages *cowpage.Pages[ubrPage]
	n     int // stored UBRs
}

type ubrPage struct {
	has    presence
	coords []float64 // cowpage.Width slots of 2d
}

// presence has a page's bit per slot.
type presence [cowpage.Width / 64]uint64

func newUBRTable(d int) *ubrTable { return &ubrTable{d: d, pages: cowpage.New[ubrPage]()} }

func (t *ubrTable) clone() *ubrTable { return &ubrTable{d: t.d, pages: t.pages.Clone(), n: t.n} }

// get returns a copy of id's UBR.
func (t *ubrTable) get(id uint32) (geom.Rect, bool) {
	n, s := cowpage.Split(id)
	p := t.pages.At(n)
	if p == nil || p.has[s>>6]&(1<<(s&63)) == 0 {
		return geom.Rect{}, false
	}
	d := t.d
	c := slices.Clone(p.coords[int(s)*2*d : int(s+1)*2*d])
	return geom.Rect{Lo: c[:d:d], Hi: c[d:]}, true
}

// set stores r as id's UBR.
func (t *ubrTable) set(id uint32, r geom.Rect) {
	n, s := cowpage.Split(id)
	p := t.page(n)
	if p.has[s>>6]&(1<<(s&63)) == 0 {
		p.has[s>>6] |= 1 << (s & 63)
		t.n++
	}
	slot := p.coords[int(s)*2*t.d:]
	copy(slot[copy(slot, r.Lo):t.d*2], r.Hi)
}

// remove drops id's UBR; a page goes with its last one.
func (t *ubrTable) remove(id uint32) {
	n, s := cowpage.Split(id)
	if p := t.pages.At(n); p == nil || p.has[s>>6]&(1<<(s&63)) == 0 {
		return
	}
	p := t.page(n)
	p.has[s>>6] &^= 1 << (s & 63)
	if t.n--; p.has == (presence{}) {
		t.pages.Delete(n)
	}
}

// page returns block n's page for writing.
func (t *ubrTable) page(n uint32) *ubrPage {
	return t.pages.Writable(n, func(old *ubrPage) ubrPage {
		if old == nil {
			return ubrPage{coords: make([]float64, cowpage.Width*2*t.d)}
		}
		return ubrPage{has: old.has, coords: slices.Clone(old.coords)}
	})
}

// ubrImage is a ubrTable flattened: the IDs, ascending, and their UBRs'
// coordinates, 2d each (lo, then hi).
type ubrImage struct {
	IDs    []uint32
	Coords []float64
}

func (t *ubrTable) image() *ubrImage {
	img := &ubrImage{IDs: make([]uint32, 0, t.n), Coords: make([]float64, 0, 2*t.d*t.n)}
	for _, n := range t.pages.Blocks() {
		p := t.pages.At(n)
		for w, word := range p.has {
			for ; word != 0; word &= word - 1 {
				s := w<<6 | bits.TrailingZeros64(word)
				img.IDs, img.Coords = append(img.IDs, n<<cowpage.Bits|uint32(s)), append(img.Coords, p.coords[s*2*t.d:(s+1)*2*t.d]...)
			}
		}
	}
	return img
}

// ubrsFromImage rebuilds the UBR table of db's objects, refusing an image
// whose IDs do not strictly ascend, whose coordinates do not make one finite
// box per ID, or whose IDs are not exactly db's.
func ubrsFromImage(img *ubrImage, db *uncertain.DB) (*ubrTable, error) {
	d := db.Dim()
	if img == nil {
		return nil, fmt.Errorf("no UBR image")
	}
	if len(img.Coords) != 2*d*len(img.IDs) {
		return nil, fmt.Errorf("%d coordinates do not give each of %d IDs 2×%d", len(img.Coords), len(img.IDs), d)
	}
	if len(img.IDs) != db.Len() {
		return nil, fmt.Errorf("%d UBRs for %d objects", len(img.IDs), db.Len())
	}
	t := newUBRTable(d)
	for i, id := range img.IDs {
		lohi := img.Coords[2*d*i : 2*d*(i+1)]
		if i > 0 && id <= img.IDs[i-1] {
			return nil, fmt.Errorf("UBR ids do not ascend at %d", i)
		}
		if db.Get(uncertain.ID(id)) == nil {
			return nil, fmt.Errorf("UBR of %d, which is not an object", id)
		}
		for k := range d {
			if lo, hi := lohi[k], lohi[d+k]; math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsInf(hi, 0) || !(lo <= hi) {
				return nil, fmt.Errorf("UBR of %d is not a finite box: %v", id, lohi)
			}
		}
		t.set(id, geom.Rect{Lo: lohi[:d], Hi: lohi[d:]})
	}
	return t, nil
}
