package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"pvoronoi/internal/geom"
)

func randItem(rng *rand.Rand, id uint32) Item {
	lo := geom.Point{rng.Float64() * 900, rng.Float64() * 900}
	hi := geom.Point{lo[0] + 1 + rng.Float64()*30, lo[1] + 1 + rng.Float64()*30}
	return Item{Rect: geom.Rect{Lo: lo, Hi: hi}, ID: id}
}

func idSet(items []Item) []uint32 {
	ids := make([]uint32, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TestCloneCOWIsolation mutates a COW clone heavily and checks the sealed
// original never changes: same item set, same search answers, invariants
// intact on both handles — whether the original was grown by Insert or
// packed by BulkLoad (the tree every index version descends from).
func TestCloneCOWIsolation(t *testing.T) {
	t.Run("insert-built", func(t *testing.T) {
		testCloneCOWIsolation(t, func(items []Item) *Tree {
			base := New(2, 8)
			for _, it := range items {
				base.Insert(it)
			}
			return base
		})
	})
	t.Run("bulk-loaded", func(t *testing.T) {
		testCloneCOWIsolation(t, func(items []Item) *Tree { return BulkLoad(2, 8, items) })
	})
}

func testCloneCOWIsolation(t *testing.T, build func([]Item) *Tree) {
	rng := rand.New(rand.NewSource(41))
	items := make([]Item, 300)
	for i := range items {
		items[i] = randItem(rng, uint32(i))
	}
	base := build(items)
	wantIDs := idSet(base.All(nil))

	clone := base.CloneCOW()
	// Heavy churn on the clone: delete half, insert replacements.
	for i := 0; i < 150; i++ {
		if !clone.Delete(items[i]) {
			t.Fatalf("clone delete of item %d failed", i)
		}
	}
	for i := 0; i < 200; i++ {
		clone.Insert(randItem(rng, uint32(10_000+i)))
	}

	if got := idSet(base.All(nil)); len(got) != len(wantIDs) {
		t.Fatalf("sealed original changed size: %d -> %d", len(wantIDs), len(got))
	} else {
		for i := range got {
			if got[i] != wantIDs[i] {
				t.Fatalf("sealed original item set changed at %d: %d != %d", i, got[i], wantIDs[i])
			}
		}
	}
	if err := base.checkInvariants(); err != nil {
		t.Fatalf("sealed original invariants: %v", err)
	}
	if err := clone.checkInvariants(); err != nil {
		t.Fatalf("clone invariants: %v", err)
	}
	if clone.Len() != 300-150+200 {
		t.Fatalf("clone size %d, want %d", clone.Len(), 300-150+200)
	}

	// Search answers on the original are reproducible after clone churn.
	for i := 0; i < 50; i++ {
		q := geom.Rect{
			Lo: geom.Point{rng.Float64() * 900, rng.Float64() * 900},
			Hi: geom.Point{900, 900},
		}
		q.Hi = geom.Point{q.Lo[0] + 50, q.Lo[1] + 50}
		found, _ := base.Search(q, nil)
		got := idSet(found)
		var want []uint32
		for _, it := range items {
			if it.Rect.Intersects(q) {
				want = append(want, it.ID)
			}
		}
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		if len(got) != len(want) {
			t.Fatalf("query %d: original search changed: got %d items, want %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("query %d: original search answer changed", i)
			}
		}
	}

	// A second-generation clone built from the first keeps composing.
	clone2 := clone.CloneCOW()
	for i := 0; i < 100; i++ {
		clone2.Insert(randItem(rng, uint32(20_000+i)))
	}
	if err := clone.checkInvariants(); err != nil {
		t.Fatalf("first clone mutated by second: %v", err)
	}
	if err := clone2.checkInvariants(); err != nil {
		t.Fatalf("second clone invariants: %v", err)
	}
}

// TestCloneCOWConcurrentReads races readers on the sealed original against
// a mutating clone — the MVCC serving pattern. Run with -race.
func TestCloneCOWConcurrentReads(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	base := New(2, 8)
	for i := 0; i < 400; i++ {
		base.Insert(randItem(rng, uint32(i)))
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		clone := base.CloneCOW()
		crng := rand.New(rand.NewSource(43))
		for i := 0; i < 2000; i++ {
			clone.Insert(randItem(crng, uint32(50_000+i)))
		}
	}()

	qrng := rand.New(rand.NewSource(44))
	for i := 0; i < 500; i++ {
		q := geom.Point{qrng.Float64() * 900, qrng.Float64() * 900}
		it := NewNNIter(base, q, MinDistTo(q))
		for k := 0; k < 5; k++ {
			if _, _, ok := it.Next(); !ok {
				break
			}
		}
	}
	<-done
}
