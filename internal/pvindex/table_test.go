package pvindex

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"pvoronoi/internal/cowpage"
	"pvoronoi/internal/dataset"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/race"
	"pvoronoi/internal/uncertain"
)

// mixedBatch is a delete-heavy mixed batch over ix's current objects: k
// deletes and k/2 inserts, shuffled, with one same-ID replace.
func mixedBatch(rng *rand.Rand, ix *Index, k int, nextID *uncertain.ID, d int, span, side float64) []Update {
	objs := ix.DB().Objects()
	perm := rng.Perm(len(objs))
	ups := []Update{{Op: OpDelete, ID: objs[perm[0]].ID}, {Op: OpInsert, Object: newObj(rng, objs[perm[0]].ID, d, span, side)}}
	for i := 1; i < k; i++ {
		ups = append(ups, Update{Op: OpDelete, ID: objs[perm[i]].ID})
		if i%2 == 0 {
			*nextID++
			ups = append(ups, Update{Op: OpInsert, Object: newObj(rng, *nextID, d, span, side)})
		}
	}
	rng.Shuffle(len(ups)-2, func(i, j int) { ups[i+2], ups[j+2] = ups[j+2], ups[i+2] })
	return ups
}

// versionState is everything a version's per-ID tables and database hold,
// deep-copied.
type versionState struct {
	ubrs                 *ubrImage
	witnesses, witnessed *listsImage
	ids                  []uncertain.ID
}

func stateOf(v *version) versionState {
	st := versionState{ubrs: v.ubrs.image(), witnesses: v.witnesses.image(), witnessed: v.witnessed.image()}
	for _, o := range v.db.Objects() {
		st.ids = append(st.ids, o.ID)
	}
	return st
}

// TestPublishedTablesSurviveLaterBatches: a pinned version's UBRs, witness
// lists, reverse index and database read the same after 50 later mixed
// batches have copied, rewritten and dropped pages of their own.
func TestPublishedTablesSurviveLaterBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	ix, err := Build(randomDB(rng, 600, 2, 3000, 40, false), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	v := ix.pin()
	defer ix.unpin(v)
	before := stateOf(v)
	nextID := uncertain.ID(5000)
	for range 50 {
		if _, err := ix.ApplyBatch(mixedBatch(rng, ix, 6, &nextID, 2, 3000, 40)); err != nil {
			t.Fatal(err)
		}
	}
	if reflect.DeepEqual(stateOf(ix.current.Load()), before) {
		t.Fatal("50 batches changed nothing: the test no longer exercises the copy-on-write")
	}
	if after := stateOf(v); !reflect.DeepEqual(after, before) {
		t.Fatal("a published version's tables or database changed under later batches")
	}
	for _, o := range v.db.Objects() {
		if v.db.Get(o.ID) != o {
			t.Fatalf("the pinned database no longer finds object %d", o.ID)
		}
	}
}

// TestAbortedBatchLeavesNoPage: a working version that wrote UBRs, witness
// lists and the database, then aborted, leaves the published version's page
// maps holding exactly the pages they held, with the same contents.
func TestAbortedBatchLeavesNoPage(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	ix, err := Build(randomDB(rng, 400, 2, 2000, 40, false), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	base := ix.current.Load()
	ubrPages, wPages, rPages := pagesOf(base.ubrs.pages), pagesOf(base.witnesses.pages), pagesOf(base.witnessed.pages)
	before := stateOf(base)
	nextID := uncertain.ID(5000)
	ups := mixedBatch(rng, ix, 8, &nextID, 2, 2000, 40)
	w := ix.newWorking(base)
	if _, err := w.applyBatch(ups); err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(w.ubrs.image(), before.ubrs) || maps.Equal(pagesOf(w.ubrs.pages), ubrPages) {
		t.Fatal("the batch wrote no UBR page: the test no longer exercises the copy-on-write")
	}
	w.abort()
	if !maps.Equal(pagesOf(base.ubrs.pages), ubrPages) || !maps.Equal(pagesOf(base.witnesses.pages), wPages) || !maps.Equal(pagesOf(base.witnessed.pages), rPages) {
		t.Fatal("the aborted batch left a page in the published version's tables")
	}
	if !reflect.DeepEqual(stateOf(base), before) {
		t.Fatal("the aborted batch changed the published version's tables or database")
	}
	if ix.current.Load() != base {
		t.Fatal("an aborted batch published")
	}
	if _, err := ix.ApplyBatch(ups); err != nil {
		t.Fatalf("the same batch after the abort: %v", err)
	}
}

// pagesOf returns c's pages by block, to compare by identity.
func pagesOf[P any](c *cowpage.Pages[P]) map[uint32]*P {
	m := map[uint32]*P{}
	for _, n := range c.Blocks() {
		m[n] = c.At(n)
	}
	return m
}

// TestSparseIDsOnePagePerBlock: the tables and the database keep at most one
// page per block of cowpage.Width IDs that holds an ID, whatever the IDs'
// spread (the harness's newcomers start at 1 000 000), and drop a block's
// page with its last ID.
func TestSparseIDsOnePagePerBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	ix, err := Build(randomDB(rng, 300, 2, 2000, 40, false), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Three IDs at the start, the slot after and the end of one block, one
	// in the next block, and two far apart.
	const w = cowpage.Width
	base := uncertain.ID(1_000_000 / w * w)
	var ups []Update
	for _, id := range []uncertain.ID{base, base + 1, base + w - 1, base + w, 40_000_000, 1<<32 - 1} {
		ups = append(ups, Update{Op: OpInsert, Object: newObj(rng, id, 2, 2000, 40)})
	}
	if _, err := ix.ApplyBatch(ups); err != nil {
		t.Fatal(err)
	}
	blocks := func() map[uint32]bool {
		b := map[uint32]bool{}
		for _, o := range ix.DB().Objects() {
			b[uint32(o.ID)>>cowpage.Bits] = true
		}
		return b
	}
	check := func(when string) {
		v := ix.current.Load()
		want := blocks()
		for name, got := range map[string][]uint32{
			"UBR table": v.ubrs.pages.Blocks(), "witness lists": v.witnesses.pages.Blocks(), "reverse index": v.witnessed.pages.Blocks(),
		} {
			for _, n := range got {
				if !want[n] {
					t.Fatalf("%s: %s keeps a page for block %d, which holds no object", when, name, n)
				}
			}
		}
		if got := len(v.ubrs.pages.Blocks()); got != len(want) {
			t.Fatalf("%s: UBR table has %d pages for %d blocks", when, got, len(want))
		}
	}
	check("after the inserts")
	if want := (300+w-1)/w + 4; len(blocks()) != want { // the build's, then four
		t.Fatalf("%d blocks, want %d", len(blocks()), want)
	}
	ups = ups[:0]
	for _, id := range []uncertain.ID{base + w, 40_000_000, 1<<32 - 1, base} {
		ups = append(ups, Update{Op: OpDelete, ID: id})
	}
	if _, err := ix.ApplyBatch(ups); err != nil {
		t.Fatal(err)
	}
	check("after the deletes")

	// The table alone, at the extremes of the ID space.
	tab := newUBRTable(3)
	r := geom.NewRect(geom.Point{1, 2, 3}, geom.Point{4, 5, 6})
	ids := []uint32{0, w - 1, w, 2*w - 1, 1 << 31, 1<<32 - 1}
	for _, id := range ids {
		tab.set(id, r)
	}
	if got := len(tab.pages.Blocks()); got != 4 || tab.n != len(ids) {
		t.Fatalf("%d pages for %d UBRs in 4 blocks", got, tab.n)
	}
	for _, id := range ids {
		if got, ok := tab.get(id); !ok || !sameRectBits(got, r) {
			t.Fatalf("UBR of %d reads %v", id, got)
		}
		tab.remove(id)
	}
	if len(tab.pages.Blocks()) != 0 || tab.n != 0 {
		t.Fatalf("%d pages and %d UBRs left after removing every ID", len(tab.pages.Blocks()), tab.n)
	}
}

// TestReverseMergeMatchesReference: after every op — each insert run and
// each delete — of delete-heavy mixed batches, the reverse index the per-op
// merge leaves equals what the old member-by-member patching
// (referenceSetWitnesses) makes of the same witness-list changes.
func TestReverseMergeMatchesReference(t *testing.T) {
	for _, c := range []dataset.SyntheticParams{
		{N: 300, Dim: 2, MaxSide: 400, Instances: 2, Seed: 64},
		{N: 300, Dim: 2, MaxSide: 400, Instances: 2, Seed: 65, Clustered: true},
		{N: 200, Dim: 3, MaxSide: 1500, Instances: 2, Seed: 66},
	} {
		t.Run(fmt.Sprintf("d%d-clustered%v", c.Dim, c.Clustered), func(t *testing.T) {
			cfg := testConfig()
			cfg.SE.MaxDepth, cfg.SE.Delta = 5, 8
			ix, err := Build(dataset.Synthetic(c), cfg)
			if err != nil {
				t.Fatal(err)
			}
			base := ix.current.Load()
			ref := &working{state: state{witnesses: base.witnesses.clone(), witnessed: base.witnessed.clone()}}
			rng := rand.New(rand.NewSource(c.Seed))
			nextID := uncertain.ID(100_000)
			batches := 30
			if race.Enabled {
				batches = 6
			}
			ops := 0
			for range batches {
				ups := mixedBatch(rng, ix, 6, &nextID, c.Dim, 10000, c.MaxSide)
				v := ix.current.Load()
				if err := validateBatch(v.db, ups); err != nil {
					t.Fatal(err)
				}
				w := ix.newWorking(v)
				for i := 0; i < len(ups); {
					j := i + 1
					for ups[i].Op == OpInsert && j < len(ups) && ups[j].Op == OpInsert {
						j++
					}
					if _, err := w.applyBatch(ups[i:j]); err != nil {
						t.Fatal(err)
					}
					ref.followWitnesses(w)
					if !reflect.DeepEqual(w.witnessed.image(), ref.witnessed.image()) {
						t.Fatalf("op %d: the merged reverse index differs from the reference's", ops)
					}
					if err := checkLists(&w.state); err != nil {
						t.Fatalf("op %d: %v", ops, err)
					}
					i, ops = j, ops+1
				}
				ix.publishWorking(w, v.walSeq)
			}
			t.Logf("%d ops", ops)
		})
	}
}

// followWitnesses brings ref's witness lists to w's through
// referenceSetWitnesses, one changed row at a time.
func (ref *working) followWitnesses(w *working) {
	ids := map[uint32]bool{}
	for _, l := range []*idLists{w.witnesses, ref.witnesses} {
		_ = l.forEach(func(id uint32, _ []uint32) error {
			ids[id] = true
			return nil
		})
	}
	for _, id := range slices.Sorted(maps.Keys(ids)) {
		if list := w.witnesses.get(id); !slices.Equal(list, ref.witnesses.get(id)) {
			ref.referenceSetWitnesses(id, list)
		}
	}
}
