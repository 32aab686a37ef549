package rtree

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// structuralHash folds the whole tree — pre-order over nodes: level, entry
// count, every entry's MBR bits, leaf IDs — into one FNV-64a value. Two
// trees hash equal only if every R* decision that built them was the same.
func structuralHash(t *Tree) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	var walk func(n *node)
	walk = func(n *node) {
		put(uint64(n.level))
		put(uint64(len(n.entries)))
		for _, e := range n.entries {
			for k := range e.rect.Lo {
				put(math.Float64bits(e.rect.Lo[k]))
				put(math.Float64bits(e.rect.Hi[k]))
			}
			if n.leaf() {
				put(uint64(e.item.ID))
			}
		}
		if !n.leaf() {
			for _, e := range n.entries {
				walk(e.child)
			}
		}
	}
	walk(t.root)
	return h.Sum64()
}

// TestInsertGoldenStructure pins the trees Insert and Delete build to the
// ones the pre-kernel-rewrite implementation (commit d613a3b: allocating
// geom.Rect Union/Intersection, sort.Slice, O(M²) split) built from the same
// seeded sequences. The grid case quantises coordinates so that sort keys,
// enlargements and overlaps tie constantly, pinning every tie-break too.
func TestInsertGoldenStructure(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden values recorded on amd64; other targets may fuse multiply-adds")
	}
	cases := []struct {
		name         string
		dim, fanout  int
		grid         bool
		afterInserts uint64
		afterDeletes uint64
	}{
		{name: "d2-fanout16", dim: 2, fanout: 16, afterInserts: 0xe2a6d30c07b1eeec, afterDeletes: 0xd128fdb005be4a8},
		{name: "d3-fanout16", dim: 3, fanout: 16, afterInserts: 0x33f3ce6b7a6b02bd, afterDeletes: 0xaafe4462925af325},
		{name: "d2-fanout100", dim: 2, fanout: 100, afterInserts: 0xedec771459bca34d, afterDeletes: 0xb97bee78bacf8826},
		{name: "d3-fanout100", dim: 3, fanout: 100, afterInserts: 0x4a340aea6e9c2e9e, afterDeletes: 0x2449d61e50884730},
		{name: "d2-fanout8-grid", dim: 2, fanout: 8, grid: true, afterInserts: 0x6d85d46f4cc3e19b, afterDeletes: 0x71e52c2ab0d8c6fb},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000*c.dim + c.fanout)))
			tree := New(c.dim, c.fanout)
			items := make([]Item, 5000)
			for i := range items {
				r := randRect(rng, c.dim, 10000, 60)
				if c.grid {
					for k := range r.Lo {
						r.Lo[k] = math.Floor(r.Lo[k] / 500)
						r.Hi[k] = r.Lo[k] + float64(rng.Intn(2))
					}
				}
				items[i] = Item{Rect: r, ID: uint32(i)}
				tree.Insert(items[i])
			}
			if got := structuralHash(tree); got != c.afterInserts {
				t.Errorf("after 5000 inserts: structural hash %#x, want %#x", got, c.afterInserts)
			}
			for i := 0; i < len(items); i += 3 {
				if !tree.Delete(items[i]) {
					t.Fatalf("delete of item %d failed", i)
				}
			}
			if got := structuralHash(tree); got != c.afterDeletes {
				t.Errorf("after deleting every third item: structural hash %#x, want %#x", got, c.afterDeletes)
			}
			if err := tree.checkInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
