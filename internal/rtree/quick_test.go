package rtree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pvoronoi/internal/geom"
)

// Property (testing/quick): for any set of rectangles derived from random
// float seeds, inserting them all and calling All returns exactly that set,
// and every range query agrees with a linear scan.
func TestQuickInsertAllSearch(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%180 + 20
		rng := rand.New(rand.NewSource(seed))
		tree := New(2, 6)
		items := make([]Item, n)
		for i := 0; i < n; i++ {
			items[i] = Item{Rect: randRect(rng, 2, 500, 25), ID: uint32(i)}
			tree.Insert(items[i])
		}
		if tree.Len() != n {
			return false
		}
		got := tree.All(nil)
		if len(got) != n {
			return false
		}
		seen := map[uint32]bool{}
		for _, it := range got {
			if seen[it.ID] {
				return false
			}
			seen[it.ID] = true
		}
		// Three random range queries vs linear scan.
		for k := 0; k < 3; k++ {
			q := randRect(rng, 2, 500, 150)
			want := map[uint32]bool{}
			for _, it := range items {
				if it.Rect.Intersects(q) {
					want[it.ID] = true
				}
			}
			res, _ := tree.Search(q, nil)
			if len(res) != len(want) {
				return false
			}
			for _, it := range res {
				if !want[it.ID] {
					return false
				}
			}
		}
		return tree.checkInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property (testing/quick): delete any subset, the tree equals the set
// difference and invariants hold.
func TestQuickDeleteSubset(t *testing.T) {
	f := func(seed int64, delMask uint32) bool {
		rng := rand.New(rand.NewSource(seed))
		tree := New(3, 5)
		const n = 64
		items := make([]Item, n)
		for i := 0; i < n; i++ {
			items[i] = Item{Rect: randRect(rng, 3, 200, 15), ID: uint32(i)}
			tree.Insert(items[i])
		}
		expect := map[uint32]bool{}
		for i := 0; i < n; i++ {
			if delMask&(1<<(i%32)) != 0 && i < 32 {
				if !tree.Delete(items[i]) {
					return false
				}
			} else {
				expect[uint32(i)] = true
			}
		}
		got := tree.All(nil)
		if len(got) != len(expect) {
			return false
		}
		for _, it := range got {
			if !expect[it.ID] {
				return false
			}
		}
		return tree.checkInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: NN browsing distances are a sorted permutation of the
// brute-force distance multiset.
func TestQuickNNOrderIsSortedPermutation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tree := New(2, 8)
		n := 100
		var dists []float64
		q := geom.Point{rng.Float64() * 300, rng.Float64() * 300}
		for i := 0; i < n; i++ {
			it := Item{Rect: randRect(rng, 2, 300, 20), ID: uint32(i)}
			tree.Insert(it)
			dists = append(dists, it.Rect.MinDist(q))
		}
		it := NewNNIter(tree, q, MinDistTo(q))
		var got []float64
		for {
			_, d, ok := it.Next()
			if !ok {
				break
			}
			got = append(got, d)
		}
		if len(got) != n {
			return false
		}
		// got must be sorted and match the sorted brute-force multiset.
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				return false
			}
		}
		sortFloats(dists)
		for i := range dists {
			if math.Abs(dists[i]-got[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func sortFloats(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
