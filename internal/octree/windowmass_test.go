package octree

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"pvoronoi/internal/geom"
	"pvoronoi/internal/pagestore"
	"pvoronoi/internal/race"
)

// leafCell is one leaf of a tree image: its cell and its decoded entries.
type leafCell struct {
	cell    geom.Rect
	entries []Entry
}

// imageLeaves lists the leaves of t's image, each cell derived by halving
// the domain down the node list and each chain decoded entry by entry.
func imageLeaves(t *testing.T, tree *Tree) []leafCell {
	t.Helper()
	img := tree.Image()
	var out []leafCell
	var walk func(idx int32, cell geom.Rect)
	walk = func(idx int32, cell geom.Rect) {
		n := img.Nodes[idx]
		if len(n.Children) == 0 {
			lc := leafCell{cell: cell}
			for p := pagestore.PageID(n.FirstPage); p != 0; {
				next, entries, err := tree.readLeafPage(p)
				if err != nil {
					t.Fatal(err)
				}
				lc.entries = append(lc.entries, entries...)
				p = next
			}
			out = append(out, lc)
			return
		}
		for mask, c := range n.Children {
			walk(c, childRegion(cell, mask))
		}
	}
	walk(0, geom.Rect{Lo: img.DomainLo, Hi: img.DomainHi})
	return out
}

// TestWindowMassMatchesBruteForce holds the count-only walk to a brute-force
// sum over the image's leaf cells that intersect r (closed), at d = 2, 3, 4,
// on trees whose budget runs out so that leaves grow multi-page chains, for
// random windows, windows whose faces lie on leaf-cell faces, zero-extent
// windows at cell corners and the whole domain. The leaves counted are the
// ones RangeIDs reads: the IDs they hold are its answer. The walk allocates
// nothing.
func TestWindowMassMatchesBruteForce(t *testing.T) {
	for _, d := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("d%d", d), func(t *testing.T) {
			const span = 1000.0
			ti := newTestIndex(t, d, span, 256, 6*nodeBytes(d))
			rng := rand.New(rand.NewSource(int64(40 + d)))
			for i := uint32(0); i < 400; i++ {
				u := randSubRect(rng, span, 30, d)
				ti.insert(t, i, u, u.Expand(rng.Float64()*60))
			}
			leaves := imageLeaves(t, ti.tree)
			chained := 0
			for _, lc := range leaves {
				if len(lc.entries) > ti.tree.perPage() {
					chained++
				}
			}
			if chained == 0 {
				t.Fatal("no leaf holds a multi-page chain")
			}

			windows := []geom.Rect{geom.UnitCube(d, span)}
			for i := 0; i < 100; i++ {
				windows = append(windows, randSubRect(rng, span, 300, d))
				c := leaves[rng.Intn(len(leaves))].cell
				// Faces on the cell's faces: touching it from outside at hi,
				// spanning it exactly, and a point at its lo corner.
				above := randSubRect(rng, span, 200, d)
				copy(above.Lo, c.Hi)
				for j := range above.Hi {
					above.Hi[j] = max(above.Hi[j], above.Lo[j])
				}
				windows = append(windows, above, c.Clone(), geom.Rect{Lo: c.Lo.Clone(), Hi: c.Lo.Clone()})
			}
			for _, r := range windows {
				wantEntries, wantLeaves := 0, 0
				wantIDs := map[uint32]bool{}
				for _, lc := range leaves {
					if lc.cell.Intersects(r) {
						wantLeaves++
						wantEntries += len(lc.entries)
						for _, e := range lc.entries {
							wantIDs[e.ID] = true
						}
					}
				}
				entries, nleaves, err := ti.tree.WindowMass(r)
				if err != nil {
					t.Fatal(err)
				}
				if entries != wantEntries || nleaves != wantLeaves {
					t.Fatalf("window %v: mass %d over %d leaves, brute force %d over %d", r, entries, nleaves, wantEntries, wantLeaves)
				}
				ids, err := ti.tree.RangeIDs(r)
				if err != nil {
					t.Fatal(err)
				}
				if !maps.Equal(ids, wantIDs) {
					t.Fatalf("window %v: RangeIDs reads other leaves than the mass counts", r)
				}
			}
			if !race.Enabled {
				r := windows[1]
				if n := testing.AllocsPerRun(20, func() { ti.tree.WindowMass(r) }); n != 0 {
					t.Fatalf("WindowMass allocates %v times per call", n)
				}
			}
		})
	}
}
