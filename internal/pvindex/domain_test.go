package pvindex

import (
	"errors"
	"math/rand"
	"testing"

	"pvoronoi/internal/geom"
	"pvoronoi/internal/uncertain"
)

// TestOutOfDomainRejected: SE bounds a PV-cell between l = u(o) and
// h = domain and needs l ⊆ h, so an object whose region leaves the domain
// must be refused — by single inserts, by batches (atomically) and by both
// builders — instead of being stored with an inverted or clipped UBR. An
// object that only touches the boundary is legal.
func TestOutOfDomainRejected(t *testing.T) {
	const span = 1000
	rng := rand.New(rand.NewSource(5))
	db := randomDB(rng, 60, 2, span, 30, true)
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	object := func(id uncertain.ID, lox, loy, hix, hiy float64) *uncertain.Object {
		r := geom.NewRect(geom.Point{lox, loy}, geom.Point{hix, hiy})
		return &uncertain.Object{ID: id, Region: r,
			Instances: uncertain.SampleInstances(r, uncertain.PDFUniform, 10, rng)}
	}
	outside := object(9001, -50, 100, -40, 200)              // disjoint from the domain
	corner := object(9002, span-10, span-10, span+5, span+5) // pokes out of a corner
	inside := object(9003, 400, 400, 420, 420)

	epoch, n := ix.Epoch(), ix.DB().Len()
	for _, o := range []*uncertain.Object{outside, corner} {
		if _, err := ix.Insert(o); !errors.Is(err, uncertain.ErrOutOfDomain) {
			t.Fatalf("Insert(%v) = %v, want ErrOutOfDomain", o.Region, err)
		}
	}
	_, err = ix.ApplyBatch([]Update{{Op: OpInsert, Object: inside}, {Op: OpInsert, Object: corner}})
	if !errors.Is(err, uncertain.ErrOutOfDomain) {
		t.Fatalf("ApplyBatch with an out-of-domain object = %v, want ErrOutOfDomain", err)
	}
	if ix.Epoch() != epoch || ix.DB().Len() != n || ix.DB().Get(inside.ID) != nil {
		t.Fatalf("rejected updates changed the published version: epoch %d→%d, %d→%d objects",
			epoch, ix.Epoch(), n, ix.DB().Len())
	}

	// Touching the boundary — a face, and the far corner — is closed
	// containment and stays legal; the UBR invariant holds for it.
	for _, o := range []*uncertain.Object{object(9004, 0, 300, 12, 310), object(9005, span-8, span-8, span, span)} {
		if _, err := ix.Insert(o); err != nil {
			t.Fatalf("Insert of boundary-touching %v: %v", o.Region, err)
		}
		ubr, ok := ix.UBR(o.ID)
		if !ok || !ubr.ContainsRect(o.Region) || !db.Domain.ContainsRect(ubr) {
			t.Fatalf("boundary object %v stored with UBR %v (found=%v)", o.Region, ubr, ok)
		}
	}

	bad := randomDB(rng, 20, 2, span, 30, false)
	if err := bad.Add(corner); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(bad, testConfig()); !errors.Is(err, uncertain.ErrOutOfDomain) {
		t.Fatalf("Build over an out-of-domain object = %v, want ErrOutOfDomain", err)
	}
	if _, err := BuildParallel(bad, testConfig(), 2); !errors.Is(err, uncertain.ErrOutOfDomain) {
		t.Fatalf("BuildParallel over an out-of-domain object = %v, want ErrOutOfDomain", err)
	}
}
