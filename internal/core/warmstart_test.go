package core

import (
	"math/rand"
	"testing"
	"time"

	"pvoronoi/internal/bruteforce"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/race"
	"pvoronoi/internal/uncertain"
)

// TestInsertWarmStartBadOldUBR exercises the defensive fallback: an "old
// UBR" that does not contain u(o) cannot seed the upper bound, so SE must
// fall back to the domain and still produce a conservative UBR.
func TestInsertWarmStartBadOldUBR(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	db := randomDB(rng, 40, 2, 500, 25)
	tree := BuildRegionTree(db, 8)
	o := db.Objects()[0]
	bogus := geom.NewRect(geom.Point{0, 0}, geom.Point{1, 1}) // excludes u(o)
	ubr, _ := ComputeUBRAfterInsert(db, tree, o, bogus, optsWith(CSetIS))
	if !ubr.ContainsRect(o.Region) {
		t.Fatalf("fallback UBR %v does not contain u(o) %v", ubr, o.Region)
	}
	for s := 0; s < 300; s++ {
		p := geom.Point{rng.Float64() * 500, rng.Float64() * 500}
		if bruteforce.InPVCell(db, o.ID, p) && !ubr.Contains(p) {
			t.Fatalf("fallback UBR misses PV point %v", p)
		}
	}
}

// TestDeleteWarmStartEqualsColdConservative: warm-started recomputation
// after a deletion must cover at least everything the cold computation
// covers being seeded with a larger lower bound.
func TestDeleteWarmStartContainsOldUBR(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	db := randomDB(rng, 50, 2, 600, 25)
	tree := BuildRegionTree(db, 8)
	opts := optsWith(CSetIS)
	o := db.Objects()[3]
	oldUBR, _ := ComputeUBR(db, tree, o, opts)
	victimUBR, _ := ComputeUBR(db, tree, db.Get(10), opts)

	_, _ = db.Remove(10)
	tree = BuildRegionTree(db, 8)
	newUBR, _ := ComputeUBRAfterDelete(db, tree, o, oldUBR, victimUBR, opts)
	if !newUBR.ContainsRect(oldUBR) {
		t.Fatalf("deletion warm start shrank the UBR: old %v new %v", oldUBR, newUBR)
	}
}

// TestZeroDelta: Δ<=0 must not loop forever; SE substitutes a tiny epsilon.
func TestZeroDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	db := randomDB(rng, 20, 2, 300, 20)
	tree := BuildRegionTree(db, 8)
	opts := optsWith(CSetIS)
	opts.Delta = 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		ubr, _ := ComputeUBR(db, tree, db.Objects()[0], opts)
		if !ubr.ContainsRect(db.Objects()[0].Region) {
			t.Error("Δ=0 UBR not conservative")
		}
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("SE with Δ=0 did not terminate")
	}
}

// deleteLayouts are the object layouts of TestDeleteBoundContainsCell.
var deleteLayouts = []string{"uniform", "clustered", "nested", "coincident", "zero-extent"}

// layoutDB draws n objects of the given layout in the cube of side span.
func layoutDB(rng *rand.Rand, layout string, n, d int, span float64) *uncertain.DB {
	db := uncertain.NewDB(geom.UnitCube(d, span))
	var prev geom.Rect
	for i := 0; i < n; i++ {
		r := randRegion(rng, span, span/8, d)
		switch layout {
		case "clustered":
			c := float64(1+i%3) * span / 4
			for j := 0; j < d; j++ {
				lo := min(max(c+rng.NormFloat64()*span/12, 0), span*7/8)
				r.Lo[j], r.Hi[j] = lo, lo+rng.Float64()*span/8
			}
		case "nested":
			if i%4 != 0 {
				for j := 0; j < d; j++ {
					r.Lo[j] = prev.Lo[j] + rng.Float64()*prev.Side(j)/2
					r.Hi[j] = r.Lo[j] + rng.Float64()*(prev.Hi[j]-r.Lo[j])
				}
			}
		case "coincident":
			if i%3 != 0 {
				r = prev.Clone()
			}
		case "zero-extent":
			if i%2 == 0 {
				copy(r.Hi, r.Lo)
			}
		}
		prev = r
		_ = db.Add(&uncertain.Object{ID: uncertain.ID(i), Region: r})
	}
	return db
}

// TestDeleteBoundContainsCell is the lemma the delete warm start rests on:
// after victims are removed, an object's PV-cell lies in the bounding box of
// its old UBR and the victims' old UBRs (a point new to V(o) was in the cell
// of a victim) — for one victim and for a set — and in the UBR
// ComputeUBRAfterDelete returns from that bound.
func TestDeleteBoundContainsCell(t *testing.T) {
	const n, span = 36, 400.0
	opts := optsWith(CSetIS)
	for _, d := range []int{1, 2, 3, 5} {
		if race.Enabled && d > 2 {
			continue // single-goroutine arithmetic; CI's uninstrumented step runs these
		}
		for li, layout := range deleteLayouts {
			rng := rand.New(rand.NewSource(int64(100*d + li)))
			db := layoutDB(rng, layout, n, d, span)
			tree := BuildRegionTree(db, 8)
			old := make([]geom.Rect, n)
			for i := range old {
				old[i], _ = ComputeUBR(db, tree, db.Get(uncertain.ID(i)), opts)
			}
			one := []uncertain.ID{uncertain.ID(rng.Intn(n))}
			var set []uncertain.ID
			for i := 0; i < n; i += 4 {
				set = append(set, uncertain.ID(i+rng.Intn(4)))
			}
			for _, victims := range [][]uncertain.ID{one, set} {
				after := db.Clone()
				freed := old[victims[0]]
				for _, v := range victims {
					_, _ = after.Remove(v) // present by construction
					freed = freed.Union(old[v])
				}
				afterTree := BuildRegionTree(after, 8)
				p := make(geom.Point, d)
				for _, o := range after.Objects() {
					bound := old[o.ID].Union(freed)
					ubr, _ := ComputeUBRAfterDelete(after, afterTree, o, old[o.ID], freed, opts)
					if !bound.ContainsRect(ubr) || !ubr.ContainsRect(old[o.ID]) {
						t.Fatalf("d=%d %s: UBR %v of %d is not between the old UBR %v and the bound %v", d, layout, ubr, o.ID, old[o.ID], bound)
					}
					// Half the samples from the whole domain, half from around
					// the bound, where a point the lemma misses would be.
					for s := 0; s < 120; s++ {
						for j := range p {
							p[j] = rng.Float64() * span
							if s%2 == 1 {
								p[j] = min(max(bound.Lo[j]-20+rng.Float64()*(bound.Side(j)+40), 0), span)
							}
						}
						if !bruteforce.InPVCell(after, o.ID, p) {
							continue
						}
						if !bound.Contains(p) {
							t.Fatalf("d=%d %s, %d victims: point %v of V(%d) is outside bbox(old UBR %v ∪ victim UBRs %v)",
								d, layout, len(victims), p, o.ID, old[o.ID], freed)
						}
						if !ubr.Contains(p) {
							t.Fatalf("d=%d %s, %d victims: point %v of V(%d) is outside the warm-started UBR %v", d, layout, len(victims), p, o.ID, ubr)
						}
					}
				}
			}
		}
	}
}
