package pvoronoi

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// testdata/pvidx5 is a durable directory written by the last build whose
// index images were PVIDX5 (extendible-hash records): bootstrapped from
// pvidx5Bootstrap, then the first two of pvidx5Rounds' rounds, a checkpoint,
// and the last two, which only the log holds (the writer stopped without
// Close, as a crash does).

func pvidx5Bootstrap(t testing.TB) *DB { return buildSmallDB(t, 40, true) }

func pvidx5Options() Options {
	o := testOptions()
	o.PageSize = 512
	return o
}

// pvidx5Round is one round of the fixture's traffic: a batch of inserts,
// then a batch of deletes.
type pvidx5Round struct {
	ins []*Object
	del []ID
}

// pvidx5Rounds is the fixture's traffic: each round inserts six objects and
// deletes two bootstrap objects and one the round before inserted.
func pvidx5Rounds() []pvidx5Round {
	rng := rand.New(rand.NewSource(48))
	var rounds []pvidx5Round
	for r := range 4 {
		var rd pvidx5Round
		for k := range 6 {
			rd.ins = append(rd.ins, mkObj(rng, ID(1000+10*r+k)))
		}
		rd.del = []ID{ID(2 * r), ID(2*r + 1)}
		if r > 0 {
			rd.del = append(rd.del, ID(1000+10*(r-1)+r))
		}
		rounds = append(rounds, rd)
	}
	return rounds
}

// TestOpenDurableRebuildsPVIDX5: a durable directory whose newest checkpoint
// holds a PVIDX5 image opens — the index rebuilt from the checkpoint's
// database, the log's tail replayed after it — with every acknowledged update,
// answers Step 1 as a fresh build does, and writes a checkpoint the next open
// loads without rebuilding.
func TestOpenDurableRebuildsPVIDX5(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "pvidx5"))); err != nil {
		t.Fatal(err)
	}
	want := pvidx5Bootstrap(t)
	rounds := pvidx5Rounds()
	for _, rd := range rounds {
		for _, o := range rd.ins {
			if err := want.Add(o); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range rd.del {
			if _, err := want.Remove(id); err != nil {
				t.Fatal(err)
			}
		}
	}

	d, err := OpenDurable(dir, nil, pvidx5Options())
	if err != nil {
		t.Fatal(err)
	}
	rec := d.Recovery()
	if tail := 2 * (6 + 3); rec.Replayed != tail || rec.Rebuilt || len(rec.CorruptCheckpoints) > 0 {
		t.Fatalf("recovery %+v, want the newest checkpoint and %d replayed updates", rec, tail)
	}
	got := d.DB()
	if got.Len() != want.Len() {
		t.Fatalf("%d objects after reopening, want %d", got.Len(), want.Len())
	}
	for _, w := range want.Objects() {
		if err := sameObjectBits(got.Get(w.ID), w); err != nil {
			t.Fatalf("object %d: %v", w.ID, err)
		}
	}
	rebuildOracle(t, d.Index, rand.New(rand.NewSource(49)))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d, err = OpenDurable(dir, nil, pvidx5Options())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if rec := d.Recovery(); rec.Replayed != 0 || len(rec.CorruptCheckpoints) > 0 || d.DB().Len() != want.Len() {
		t.Fatalf("second open: recovery %+v with %d objects", rec, d.DB().Len())
	}
}

// sameObjectBits compares a recovered object with the one acknowledged.
func sameObjectBits(got, want *Object) error {
	if got == nil {
		return os.ErrNotExist
	}
	same := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	if !same(got.Region.Lo, want.Region.Lo) || !same(got.Region.Hi, want.Region.Hi) || len(got.Instances) != len(want.Instances) {
		return os.ErrInvalid
	}
	for i, in := range got.Instances {
		if !same(in.Pos, want.Instances[i].Pos) || math.Float64bits(in.Prob) != math.Float64bits(want.Instances[i].Prob) {
			return os.ErrInvalid
		}
	}
	return nil
}
