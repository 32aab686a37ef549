package pvindex

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pvoronoi/internal/bruteforce"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/uncertain"
)

// TestParallelBuildEquivalent: a parallel build must answer every query
// identically to a serial build (and to brute force).
func TestParallelBuildEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	db := randomDB(rng, 200, 3, 1000, 40, false)

	serial, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := BuildParallel(db, testConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if parallel.Build.Objects != serial.Build.Objects {
		t.Fatalf("object counts differ: %d vs %d", parallel.Build.Objects, serial.Build.Objects)
	}
	for iter := 0; iter < 150; iter++ {
		q := geom.Point{rng.Float64() * 1000, rng.Float64() * 1000, rng.Float64() * 1000}
		a, err := serial.PossibleNN(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := parallel.PossibleNN(q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(idsOf(a), idsOf(b)) {
			t.Fatalf("q=%v: serial %v parallel %v", q, idsOf(a), idsOf(b))
		}
		if !sameIDs(idsOf(b), bruteforce.PossibleNN(db, q)) {
			t.Fatalf("q=%v: parallel result diverges from brute force", q)
		}
	}
	// UBRs must be identical (SE is deterministic given the same inputs).
	for _, o := range db.Objects() {
		ua, _ := serial.UBR(o.ID)
		ub, _ := parallel.UBR(o.ID)
		if !ua.Equal(ub) {
			t.Fatalf("object %d: serial UBR %v != parallel UBR %v", o.ID, ua, ub)
		}
	}
	// ... and so must the degree distribution.
	if a, b := serial.Adjacency(), parallel.Adjacency(); a != b {
		t.Fatalf("serial build's degrees %+v, parallel build's %+v", a, b)
	}
}

func TestParallelBuildDefaultWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	db := randomDB(rng, 60, 2, 500, 25, false)
	ix, err := BuildParallel(db, testConfig(), 0) // 0 → GOMAXPROCS
	if err != nil {
		t.Fatal(err)
	}
	if ix.Build.Objects != 60 {
		t.Fatalf("built %d objects", ix.Build.Objects)
	}
}

// TestParallelForVisitsEachIndexOnce: every index in 0..n-1 exactly once,
// for n = 0, n below the width, width 1 and widths beyond one; at width w the
// first w calls overlap on exactly w goroutines, the caller one of them (it
// starts only w-1).
func TestParallelForVisitsEachIndexOnce(t *testing.T) {
	for _, c := range []struct{ width, n int }{{4, 0}, {1, 0}, {4, 3}, {1, 50}, {2, 50}, {4, 1000}, {0, 5}} {
		t.Run(fmt.Sprintf("width%d-n%d", c.width, c.n), func(t *testing.T) {
			visits := make([]atomic.Int32, c.n)
			overlap := min(max(c.width, 1), c.n)
			var entered atomic.Int32
			release := make(chan struct{})
			started := runtime.NumGoroutine()
			var extra atomic.Int32
			parallelFor(c.width, c.n, func(i int) {
				visits[i].Add(1)
				if entered.Add(1) == int32(overlap) {
					extra.Store(int32(runtime.NumGoroutine() - started))
					close(release)
				}
				select {
				case <-release:
				case <-time.After(10 * time.Second):
					t.Errorf("index %d: only %d of %d calls ever overlapped", i, entered.Load(), overlap)
				}
			})
			for i := range visits {
				if v := visits[i].Load(); v != 1 {
					t.Fatalf("index %d visited %d times", i, v)
				}
			}
			if c.n > 0 && int(extra.Load()) != overlap-1 {
				t.Fatalf("%d calls overlapped beside %d more goroutines, want %d: the caller is a worker", overlap, extra.Load(), overlap-1)
			}
		})
	}
}

// TestWritePathPoolWidthDeterminism: the same mixed batches — inserts,
// deletes, a same-ID replace, deletes then inserts — through indexes whose SE
// pools are 1 and 4 wide (and a second 4-wide one) leave the same state bit
// for bit, report the same per-op counts, save the same image and hold the
// same octree, leaf for leaf and page for page (treeHash), so every row was
// written back in the same order: the fan-outs decide nothing, and the order
// of affected rows comes from the batch alone.
func TestWritePathPoolWidthDeterminism(t *testing.T) {
	for _, d := range []int{2, 3} {
		t.Run(fmt.Sprintf("d%d", d), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(430 + d)))
			const span, maxSide = 600.0, 40.0
			db := randomDB(rng, 150, d, span, maxSide, true)
			var ixs []*Index
			for _, width := range []int{1, 4, 4} {
				ix, err := BuildParallel(db.Clone(), testConfig(), width)
				if err != nil {
					t.Fatal(err)
				}
				ixs = append(ixs, ix)
			}
			nextID := uncertain.ID(5000)
			fresh := func() Update {
				nextID++
				return Update{Op: OpInsert, Object: randomObject(rng, nextID, d, span, maxSide)}
			}
			victims := func(k int) []Update {
				objs := ixs[0].DB().Objects()
				var ups []Update
				for _, i := range rng.Perm(len(objs))[:k] {
					ups = append(ups, Update{Op: OpDelete, ID: objs[i].ID})
				}
				return ups
			}
			for b := 0; b < 16; b++ {
				var ups []Update
				switch b % 4 {
				case 0:
					for range 2 + rng.Intn(12) {
						ups = append(ups, fresh())
					}
				case 1:
					ups = victims(1 + rng.Intn(6))
				case 2:
					del := victims(1)[0]
					ups = []Update{del, {Op: OpInsert, Object: randomObject(rng, del.ID, d, span, maxSide)}, fresh()}
				case 3:
					ups = append(victims(2), fresh(), fresh(), fresh())
				}
				var want []UpdateStats
				for k, ix := range ixs {
					sts, err := ix.ApplyBatch(ups)
					if err != nil {
						t.Fatalf("batch %d, index %d: %v", b, k, err)
					}
					if k == 0 {
						want = sts
						continue
					}
					for i := range sts {
						g, w := sts[i], want[i]
						if g.Affected != w.Affected || g.Examined != w.Examined || g.Unchanged != w.Unchanged {
							t.Fatalf("batch %d op %d: index %d counts %d affected, %d examined, %d unchanged; width 1 %d, %d, %d",
								b, i, k, g.Affected, g.Examined, g.Unchanged, w.Affected, w.Examined, w.Unchanged)
						}
					}
				}
			}
			var images [][]byte
			for k, ix := range ixs {
				assertSameState(t, ix, ixs[0], fmt.Sprintf("index %d", k))
				var buf bytes.Buffer
				if err := ix.SaveTo(&buf); err != nil {
					t.Fatal(err)
				}
				images = append(images, buf.Bytes())
			}
			for k := 1; k < len(images); k++ {
				if !bytes.Equal(images[k], images[0]) {
					t.Fatalf("index %d saves other image bytes than the 1-wide pool's: rows were written back in another order", k)
				}
				if octreeHash(t, ixs[k]) != octreeHash(t, ixs[0]) {
					t.Fatalf("index %d holds another octree than the 1-wide pool's: rows were written back in another order", k)
				}
			}
		})
	}
}
