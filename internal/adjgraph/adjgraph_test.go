package adjgraph

import (
	"math/rand"
	"reflect"
	"testing"

	"pvoronoi/internal/geom"
)

func rect(lo, hi float64) geom.Rect {
	return geom.NewRect(geom.Point{lo, lo}, geom.Point{hi, hi})
}

func TestSetGetDelete(t *testing.T) {
	g := New()
	g.Set(1, rect(0, 10), []uint32{3, 2})
	g.Set(2, rect(5, 15), []uint32{1})
	g.Set(3, rect(8, 20), []uint32{1})

	if g.Len() != 3 {
		t.Fatalf("Len = %d, want 3", g.Len())
	}
	if g.Edges() != 4 {
		t.Fatalf("Edges = %d, want 4", g.Edges())
	}
	row, ok := g.Get(1)
	if !ok {
		t.Fatal("row 1 missing")
	}
	if !reflect.DeepEqual(row.Neighbors, []uint32{2, 3}) {
		t.Fatalf("row 1 neighbors = %v, want sorted [2 3]", row.Neighbors)
	}
	if !row.UBR.Equal(rect(0, 10)) {
		t.Fatalf("row 1 UBR = %v", row.UBR)
	}

	// Replacing a row adjusts the edge count.
	g.Set(1, rect(0, 12), []uint32{2})
	if g.Len() != 3 || g.Edges() != 3 {
		t.Fatalf("after replace: Len=%d Edges=%d, want 3/3", g.Len(), g.Edges())
	}

	if !g.Delete(2) {
		t.Fatal("Delete(2) = false")
	}
	if g.Delete(2) {
		t.Fatal("second Delete(2) = true")
	}
	if g.Len() != 2 || g.Edges() != 2 {
		t.Fatalf("after delete: Len=%d Edges=%d, want 2/2", g.Len(), g.Edges())
	}
}

func TestNeighborPatchesIdempotent(t *testing.T) {
	g := New()
	g.Set(7, rect(0, 10), []uint32{5})
	if !g.AddNeighbor(7, 9) {
		t.Fatal("AddNeighbor(7,9) = false")
	}
	if g.AddNeighbor(7, 9) {
		t.Fatal("duplicate AddNeighbor(7,9) = true")
	}
	row, _ := g.Get(7)
	if !reflect.DeepEqual(row.Neighbors, []uint32{5, 9}) {
		t.Fatalf("neighbors = %v, want [5 9]", row.Neighbors)
	}
	if !g.RemoveNeighbor(7, 5) {
		t.Fatal("RemoveNeighbor(7,5) = false")
	}
	if g.RemoveNeighbor(7, 5) {
		t.Fatal("second RemoveNeighbor(7,5) = true")
	}
	if g.Edges() != 1 {
		t.Fatalf("Edges = %d, want 1", g.Edges())
	}
	// Patches on missing rows are no-ops.
	if g.AddNeighbor(99, 1) || g.RemoveNeighbor(99, 1) {
		t.Fatal("patch on missing row reported a change")
	}
}

// TestCloneCOWIsolation verifies that mutating a clone never disturbs the
// parent: the parent's rows, row pointers, and counters stay bit-identical,
// which is what lets a published MVCC version share its graph with the
// writer's next working version.
func TestCloneCOWIsolation(t *testing.T) {
	parent := New()
	rng := rand.New(rand.NewSource(1))
	for id := uint32(0); id < 600; id++ {
		lo := rng.Float64() * 100
		ns := []uint32{(id + 1) % 600, (id + 7) % 600}
		parent.Set(id, rect(lo, lo+5), ns)
	}
	snapRows := make(map[uint32]*Row, 600)
	parent.ForEach(func(id uint32, row *Row) bool {
		snapRows[id] = row
		return true
	})
	wantLen, wantEdges := parent.Len(), parent.Edges()

	child := parent.CloneCOW()
	for id := uint32(0); id < 600; id += 3 {
		child.Set(id, rect(float64(id), float64(id)+1), []uint32{id % 5})
	}
	for id := uint32(1); id < 600; id += 3 {
		child.Delete(id)
	}
	child.AddNeighbor(2, 555)
	child.RemoveNeighbor(5, 6)

	if parent.Len() != wantLen || parent.Edges() != wantEdges {
		t.Fatalf("parent counters changed: %d/%d, want %d/%d",
			parent.Len(), parent.Edges(), wantLen, wantEdges)
	}
	count := 0
	parent.ForEach(func(id uint32, row *Row) bool {
		count++
		if snapRows[id] != row {
			t.Fatalf("parent row %d pointer changed under clone mutation", id)
		}
		return true
	})
	if count != wantLen {
		t.Fatalf("parent row count = %d, want %d", count, wantLen)
	}
}

func TestImageRoundTrip(t *testing.T) {
	g := New()
	rng := rand.New(rand.NewSource(2))
	for id := uint32(0); id < 300; id++ {
		lo := rng.Float64() * 1000
		n := rng.Intn(5)
		ns := make([]uint32, 0, n)
		for j := 0; j < n; j++ {
			ns = append(ns, rng.Uint32()%300)
		}
		g.Set(id*3, rect(lo, lo+rng.Float64()*50), dedup(ns))
	}

	got, err := FromImage(g.Image())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != g.Len() || got.Edges() != g.Edges() {
		t.Fatalf("round trip counters %d/%d, want %d/%d", got.Len(), got.Edges(), g.Len(), g.Edges())
	}
	g.ForEach(func(id uint32, row *Row) bool {
		r2, ok := got.Get(id)
		if !ok {
			t.Fatalf("row %d missing after round trip", id)
		}
		if !sameU32(row.Neighbors, r2.Neighbors) {
			t.Fatalf("row %d neighbors %v != %v", id, row.Neighbors, r2.Neighbors)
		}
		if !row.UBR.Equal(r2.UBR) {
			t.Fatalf("row %d UBR %v != %v", id, row.UBR, r2.UBR)
		}
		return true
	})

	// Identical graphs serialize identically (deterministic image).
	img1, img2 := g.Image(), got.Image()
	if !reflect.DeepEqual(img1, img2) {
		t.Fatal("images of equal graphs differ")
	}
}

func TestFromImageRejectsCorrupt(t *testing.T) {
	if _, err := FromImage(nil); err == nil {
		t.Fatal("nil image accepted")
	}
	if _, err := FromImage(&Image{IDs: []uint32{1}, Lens: []uint32{5}, Flat: []uint32{1}}); err == nil {
		t.Fatal("overrunning Lens accepted")
	}
	if _, err := FromImage(&Image{IDs: []uint32{1}, Lens: []uint32{0}, Flat: []uint32{1, 2}}); err == nil {
		t.Fatal("trailing Flat entries accepted")
	}
	if _, err := FromImage(&Image{Dim: 2, IDs: []uint32{1}, Lens: []uint32{0}, UBRs: []float64{0, 0}}); err == nil {
		t.Fatal("short UBR array accepted")
	}
}

func sameU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func dedup(ns []uint32) []uint32 {
	seen := map[uint32]struct{}{}
	out := ns[:0]
	for _, n := range ns {
		if _, dup := seen[n]; dup {
			continue
		}
		seen[n] = struct{}{}
		out = append(out, n)
	}
	return out
}
