package pvindex

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"testing"

	"pvoronoi/internal/bruteforce"
	"pvoronoi/internal/core"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/rtree"
	"pvoronoi/internal/uncertain"
)

// insertBuiltRegionTree is the pre-bulk-load construction: one R* insertion
// per object. Kept here as the reference the packed tree is compared with.
func insertBuiltRegionTree(db *uncertain.DB, fanout int) *rtree.Tree {
	t := rtree.New(db.Dim(), fanout)
	for _, o := range db.Objects() {
		t.Insert(rtree.Item{Rect: o.Region, ID: uint32(o.ID)})
	}
	return t
}

// TestBuildIndependentOfRegionTreeShape: the region tree only answers
// distance browses for C-set selection, and a browse's answer is a property
// of the item set, not of how the tree groups it. So Build must store the
// same UBR for every object whether the tree was bulk-loaded (production) or
// grown by insertion, and a saved image — whose load bulk-loads the tree
// again — must answer PossibleNN exactly as either index does.
func TestBuildIndependentOfRegionTreeShape(t *testing.T) {
	for _, d := range []int{2, 3} {
		t.Run(fmt.Sprintf("d%d", d), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(70 + d)))
			const span = 1000.0
			db := randomDB(rng, 400/d, d, span, 30, true)

			bulk, err := Build(db, testConfig())
			if err != nil {
				t.Fatal(err)
			}
			grown, err := func() (*Index, error) {
				buildRegionTree = insertBuiltRegionTree
				defer func() { buildRegionTree = core.BuildRegionTree }()
				return Build(db, testConfig())
			}()
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range db.Objects() {
				a, okA := bulk.UBR(o.ID)
				b, okB := grown.UBR(o.ID)
				if !okA || !okB || !a.Equal(b) {
					t.Fatalf("object %d: UBR %v over the bulk-loaded tree, %v over the insert-built one", o.ID, a, b)
				}
			}

			var buf bytes.Buffer
			if err := grown.SaveTo(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadFrom(&buf, db)
			if err != nil {
				t.Fatal(err)
			}
			for iter := 0; iter < 100; iter++ {
				q := make(geom.Point, d)
				for k := range q {
					q[k] = rng.Float64() * span
				}
				want := bruteforce.PossibleNN(db, q)
				for name, ix := range map[string]*Index{"bulk": bulk, "insert-built": grown, "loaded": loaded} {
					got, err := ix.PossibleNN(q)
					if err != nil {
						t.Fatal(err)
					}
					if !sameIDs(idsOf(got), want) {
						t.Fatalf("q=%v: %s index returned %v, brute force %v", q, name, idsOf(got), want)
					}
				}
			}
		})
	}
}

// TestLoadZeroFanoutFallsBack: an image that recorded no fanout loads with
// rtree.DefaultFanout and serves updates.
func TestLoadZeroFanoutFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	db := randomDB(rng, 250, 2, 1000, 30, false)
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	var img indexImage
	if err := gob.NewDecoder(&buf).Decode(&img); err != nil {
		t.Fatal(err)
	}
	img.Fanout = 0
	var forged bytes.Buffer
	if err := gob.NewEncoder(&forged).Encode(&img); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFrom(&forged, ix.DB())
	if err != nil {
		t.Fatal(err)
	}
	tree := loaded.current.Load().regionTree
	if tree.Len() != db.Len() {
		t.Fatalf("region tree holds %d items, database %d", tree.Len(), db.Len())
	}
	// 250 regions fit three leaves at the default fanout's 70 % fill; at
	// the saved fanout of 16 the tree would be three levels deep.
	if tree.Height() != 2 {
		t.Fatalf("region tree height %d, want 2 at fanout %d", tree.Height(), rtree.DefaultFanout)
	}
	if _, err := loaded.Insert(randomObject(rng, uncertain.ID(9000), 2, 1000, 30)); err != nil {
		t.Fatal(err)
	}
	q := geom.Point{500, 500}
	got, err := loaded.PossibleNN(q)
	if err != nil {
		t.Fatal(err)
	}
	if want := bruteforce.PossibleNN(loaded.DB(), q); !sameIDs(idsOf(got), want) {
		t.Fatalf("after post-load insert: got %v, brute force %v", idsOf(got), want)
	}
}
