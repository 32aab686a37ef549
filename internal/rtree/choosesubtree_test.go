package rtree

import (
	"fmt"
	"math/rand"
	"testing"

	"pvoronoi/internal/geom"
)

// TestChooseSubtreeMatchesReference holds chooseSubtree, level 1's O(M)
// shortcut for a child that contains the new rectangle included, to the
// O(M²) loop it replaced (referenceChooseSubtree) on random, nested,
// zero-extent and overflowing rectangles. Each shape must take the shortcut
// often enough to be tested by it; only the overflowing one may not.
func TestChooseSubtreeMatchesReference(t *testing.T) {
	shapes := []struct {
		name string
		rect func(rng *rand.Rand, d int) geom.Rect
		// inner draws the new rectangle, inside parent when one is given.
		inner func(rng *rand.Rand, parent geom.Rect) geom.Rect
	}{
		{"random", func(rng *rand.Rand, d int) geom.Rect { return randRect(rng, d, 100, 40) }, shrunk},
		{"nested", nestedRect, shrunk},
		{"zero-extent", gridRect, gridInside},
		{"overflow", func(rng *rand.Rand, d int) geom.Rect { return scaled(randRect(rng, d, 100, 40), 1e200) }, shrunk},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(sh.name))))
			shortcuts := 0
			for iter := 0; iter < 20000; iter++ {
				d := 1 + rng.Intn(4)
				n := &node{level: 1 + rng.Intn(2)}
				for range 2 + rng.Intn(15) {
					n.entries = append(n.entries, entry{rect: sh.rect(rng, d)})
				}
				if rng.Intn(4) == 0 { // a duplicate child
					n.entries = append(n.entries, n.entries[rng.Intn(len(n.entries))])
				}
				var r geom.Rect
				if rng.Intn(3) == 0 {
					r = sh.rect(rng, d)
				} else {
					r = sh.inner(rng, n.entries[rng.Intn(len(n.entries))].rect)
				}
				got, want := (&Tree{}).chooseSubtree(n, r), referenceChooseSubtree(n, r)
				if got != want {
					t.Fatalf("iter %d: level %d, children %v, new %v: chose %d, the reference %d",
						iter, n.level, rects(n), r, got, want)
				}
				if _, ok := zeroEnlargementChild(n, r); ok && n.level == 1 {
					shortcuts++
				}
			}
			t.Logf("%d of 20000 choices took the shortcut", shortcuts)
			if sh.name != "overflow" && shortcuts < 5000 {
				t.Fatalf("only %d choices took the shortcut", shortcuts)
			}
		})
	}
}

// shrunk returns a random rectangle inside p, at times p itself or one of
// zero extent.
func shrunk(rng *rand.Rand, p geom.Rect) geom.Rect {
	r := p.Clone()
	for k := range r.Lo {
		switch rng.Intn(4) {
		case 0: // p's own side
		case 1: // a point on the side
			v := r.Lo[k] + rng.Float64()*(r.Hi[k]-r.Lo[k])
			r.Lo[k], r.Hi[k] = v, v
		default:
			a, b := rng.Float64(), rng.Float64()
			if a > b {
				a, b = b, a
			}
			w := r.Hi[k] - r.Lo[k]
			r.Lo[k], r.Hi[k] = r.Lo[k]+a*w, r.Lo[k]+b*w
		}
	}
	return r
}

// nestedRect draws rectangles shrunk from one of three roots a few times
// over, so children contain each other and one another's copies.
func nestedRect(rng *rand.Rand, d int) geom.Rect {
	root := rng.Intn(3)
	lo, hi := make(geom.Point, d), make(geom.Point, d)
	for k := range d {
		lo[k], hi[k] = float64(10*root+k), float64(60+10*root+k)
	}
	r := geom.Rect{Lo: lo, Hi: hi}
	for range rng.Intn(4) {
		r = shrunk(rng, r)
	}
	return r
}

// gridRect draws a rectangle on the integer grid 0…4 whose sides are often
// 0, so enlargements, overlaps and areas tie and vanish constantly.
func gridRect(rng *rand.Rand, d int) geom.Rect {
	lo, hi := make(geom.Point, d), make(geom.Point, d)
	for k := range d {
		lo[k] = float64(rng.Intn(5))
		hi[k] = lo[k] + float64(rng.Intn(3))
	}
	return geom.Rect{Lo: lo, Hi: hi}
}

// gridInside draws a grid rectangle inside p.
func gridInside(rng *rand.Rand, p geom.Rect) geom.Rect {
	r := p.Clone()
	for k := range r.Lo {
		a := r.Lo[k] + float64(rng.Intn(int(r.Hi[k]-r.Lo[k])+1))
		b := a + float64(rng.Intn(int(r.Hi[k]-a)+1))
		r.Lo[k], r.Hi[k] = a, b
	}
	return r
}

func scaled(r geom.Rect, f float64) geom.Rect {
	for k := range r.Lo {
		r.Lo[k], r.Hi[k] = r.Lo[k]*f, r.Hi[k]*f
	}
	return r
}

func rects(n *node) string {
	s := ""
	for _, e := range n.entries {
		s += fmt.Sprintf(" %v–%v", e.rect.Lo, e.rect.Hi)
	}
	return s
}
