package adjgraph

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"maps"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"pvoronoi/internal/geom"
	"pvoronoi/internal/race"
)

// modelIDs is the ID pool of the differential: the page and directory
// boundaries, a dense block spanning three pages, and a block where the
// benchmark harness puts its new objects.
func modelIDs() []uint32 {
	ids := []uint32{0, 255, 256, 1<<20 - 1, 1 << 20, 1<<32 - 1}
	for i := uint32(0); i < 300; i++ {
		ids = append(ids, 900+i)
	}
	for i := uint32(0); i < 40; i++ {
		ids = append(ids, 1_000_000+i)
	}
	return ids
}

// model is the oracle: the rows a graph must hold. legacyMaxDiag is the
// largest object diameter a graph of these rows carried in the image layout
// before the graph stopped tracking it (see TestImageBytesUnchanged).
type model struct {
	rows          map[uint32]Row
	legacyMaxDiag float64
}

func (m model) clone() model {
	return model{rows: maps.Clone(m.rows), legacyMaxDiag: m.legacyMaxDiag}
}

// image is the serialized form the rows must have whatever the graph's
// in-memory layout: IDs ascending, UBRs lo then hi, lists concatenated.
func (m model) image() *Image {
	img := &Image{IDs: []uint32{}, Lens: []uint32{}, Flat: []uint32{}}
	for _, id := range slices.Sorted(maps.Keys(m.rows)) {
		row := m.rows[id]
		if img.Dim == 0 {
			img.Dim, img.UBRs = row.UBR.Dim(), []float64{}
		}
		img.IDs = append(img.IDs, id)
		img.UBRs = append(append(img.UBRs, row.UBR.Lo...), row.UBR.Hi...)
		img.Lens = append(img.Lens, uint32(len(row.Neighbors)))
		img.Flat = append(img.Flat, row.Neighbors...)
	}
	return img
}

// imageBytes is the gob encoding the PVIDX snapshot embeds.
func imageBytes(t *testing.T, img *Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(img); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// check holds g to the oracle through every read the package offers.
func (m model) check(t *testing.T, label string, g *Graph, pool []uint32) {
	t.Helper()
	edges := 0
	for _, row := range m.rows {
		edges += len(row.Neighbors)
	}
	if g.Len() != len(m.rows) || g.Edges() != edges {
		t.Fatalf("%s: Len/Edges %d/%d, want %d/%d", label, g.Len(), g.Edges(), len(m.rows), edges)
	}
	for _, id := range pool {
		row, ok := g.Get(id)
		want, has := m.rows[id]
		if ok != has || ok && (!row.UBR.Equal(want.UBR) || !slices.Equal(row.Neighbors, want.Neighbors)) {
			t.Fatalf("%s: Get(%d) = %v, %v; want %v, %v", label, id, row, ok, want, has)
		}
	}
	pages, held := map[uint32]bool{}, len(g.far)
	for id := range m.rows {
		pages[id>>pageBits] = true
	}
	for _, p := range g.dir {
		if p != nil {
			held++
		}
	}
	if held != len(pages) {
		t.Fatalf("%s: graph holds %d pages for rows on %d", label, held, len(pages))
	}
	var seen []uint32
	g.ForEach(func(id uint32, row *Row) bool {
		if got, _ := g.Get(id); got != row {
			t.Fatalf("%s: ForEach hands out a row of %d that Get does not", label, id)
		}
		seen = append(seen, id)
		return true
	})
	if want := slices.Sorted(maps.Keys(m.rows)); !slices.Equal(seen, want) {
		t.Fatalf("%s: ForEach visited %v, want %v", label, seen, want)
	}
	img, want := g.Image(), m.image()
	if !bytes.Equal(imageBytes(t, img), imageBytes(t, want)) {
		t.Fatalf("%s: Image %+v, want %+v", label, img, want)
	}
	back, err := FromImage(img)
	if err != nil {
		t.Fatalf("%s: FromImage: %v", label, err)
	}
	if again := back.Image(); !reflect.DeepEqual(again, img) {
		t.Fatalf("%s: image changed through FromImage: %+v, was %+v", label, again, img)
	}
}

// runModel drives a graph and the oracle through seeded operations — Set,
// Delete, AddNeighbor, RemoveNeighbor, publishing a clone, abandoning one — and
// hands after, step by step, the live graph and the graphs still published.
func runModel(seed int64, steps int, after func(step int, live *Graph, m model, published []*Graph, snaps []model)) {
	rng := rand.New(rand.NewSource(seed))
	pool := modelIDs()
	pick := func() uint32 { return pool[rng.Intn(len(pool))] }
	live, m := New(), model{rows: map[uint32]Row{}}
	var published []*Graph
	var snaps []model
	for step := 0; step < steps; step++ {
		id := pick()
		switch op := rng.Intn(20); {
		case op < 8:
			lo := float64(rng.Intn(1000))
			ubr := geom.NewRect(geom.Point{lo, lo / 2}, geom.Point{lo + float64(rng.Intn(50)), lo/2 + 7})
			var ns []uint32
			for k := rng.Intn(6); k > 0; k-- {
				if n := pick(); n != id && !slices.Contains(ns, n) {
					ns = append(ns, n)
				}
			}
			diam := float64(rng.Intn(40)) // the diameter an old graph tracked
			live.Set(id, ubr, slices.Clone(ns))
			slices.Sort(ns)
			m.rows[id], m.legacyMaxDiag = Row{UBR: ubr, Neighbors: ns}, max(m.legacyMaxDiag, diam)
		case op < 11:
			live.Delete(id)
			delete(m.rows, id)
		case op < 14:
			n := pick()
			live.AddNeighbor(id, n)
			if row, ok := m.rows[id]; ok && !slices.Contains(row.Neighbors, n) {
				row.Neighbors = append(slices.Clone(row.Neighbors), n)
				slices.Sort(row.Neighbors)
				m.rows[id] = row
			}
		case op < 17:
			n := pick()
			live.RemoveNeighbor(id, n)
			if row, ok := m.rows[id]; ok {
				if i := slices.Index(row.Neighbors, n); i >= 0 {
					row.Neighbors = slices.Delete(slices.Clone(row.Neighbors), i, i+1)
					m.rows[id] = row
				}
			}
		case op < 19 || len(published) == 0:
			// Publish: the live graph is frozen, its clone takes the writes.
			published, snaps = append(published, live), append(snaps, m.clone())
			if len(published) > 3 {
				published, snaps = published[1:], snaps[1:]
			}
			live = live.CloneCOW()
		default:
			// Abandon the live clone: back to the last published graph.
			live, m = published[len(published)-1].CloneCOW(), snaps[len(snaps)-1].clone()
		}
		after(step, live, m, published, snaps)
	}
}

// TestPagedGraphMatchesModel is the model-based differential of the paged
// layout: after every step the live graph equals the oracle and no write to
// it — nor a clone dropped half-way — has changed a published graph.
func TestPagedGraphMatchesModel(t *testing.T) {
	pool, steps := modelIDs(), 1500
	if race.Enabled {
		steps = 200 // the checks, not the graph, are what the detector slows
	}
	for seed := int64(1); seed <= 3; seed++ {
		runModel(seed, steps, func(step int, live *Graph, m model, published []*Graph, snaps []model) {
			m.check(t, fmt.Sprintf("seed %d step %d live", seed, step), live, pool)
			for i, g := range published {
				snaps[i].check(t, fmt.Sprintf("seed %d step %d published %d", seed, step, i), g, pool)
			}
		})
	}
}

// TestImageBytesUnchanged pins the serialized image — what a PVIDX snapshot
// embeds — twice. imageGolden is the current layout's hash. legacyGolden is
// the hash the bucketed layout wrote for the same rows, when the image still
// carried the graph's maximum object diameter: the rows re-encoded in that
// shape (legacy Image below, the old type verbatim) with the diameter the old
// graph tracked must still hash to it, so the image changed only by the
// dropped field.
func TestImageBytesUnchanged(t *testing.T) {
	var last *Graph
	var lastModel model
	runModel(42, 1200, func(_ int, live *Graph, m model, _ []*Graph, _ []model) { last, lastModel = live, m })
	img := last.Image()
	if got := hash64(imageBytes(t, img)); got != imageGolden {
		t.Fatalf("image of %d rows hashes to %#x, want %#x", last.Len(), got, uint64(imageGolden))
	}

	if got := hash64(legacyImageBytes(t, img, lastModel.legacyMaxDiag)); got != legacyGolden {
		t.Fatalf("legacy image of %d rows hashes to %#x, want %#x", last.Len(), got, uint64(legacyGolden))
	}
}

// legacyImageBytes gob-encodes img in the image type from before MaxDiag was
// dropped, kept verbatim: gob names a struct type by its Go name, so it is
// called Image as well.
func legacyImageBytes(t *testing.T, img *Image, maxDiag float64) []byte {
	type Image struct {
		Dim     int
		MaxDiag float64
		IDs     []uint32
		UBRs    []float64
		Lens    []uint32
		Flat    []uint32
	}
	legacy := Image{Dim: img.Dim, MaxDiag: maxDiag, IDs: img.IDs, UBRs: img.UBRs, Lens: img.Lens, Flat: img.Flat}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&legacy); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// gob numbers types in the order a process first encodes them, and the
// numbers are part of the bytes: the legacy type goes first, as it did when
// legacyGolden was recorded.
func init() { legacyImageBytes(nil, &Image{}, 0) }

func hash64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

const (
	imageGolden  = 0xab95a8812d9deb38
	legacyGolden = 0x587888c947dc3bc7
)

// cloneWrite is one batch as the graph sees it: a clone, then 300 row writes,
// half of them to rows of the 8 000 base objects, half to new rows from
// fresh on.
func cloneWrite(g *Graph, fresh uint32) *Graph {
	c := g.CloneCOW()
	for i := uint32(0); i < 150; i++ {
		c.Set(i*53%8000, rect(float64(i), float64(i)+9), []uint32{i, i + 1, fresh + i})
		c.Set(fresh+i, rect(float64(i), float64(i)+5), []uint32{i * 53 % 8000})
	}
	return c
}

// churned returns a graph of 8 000 base rows that has already held, and
// dropped, rows from fresh on.
func churned(fresh uint32) *Graph {
	g := New()
	for id := uint32(0); id < 8000; id++ {
		g.Set(id, rect(float64(id), float64(id)+3), []uint32{(id + 1) % 8000})
	}
	g = cloneWrite(g, fresh)
	for i := uint32(0); i < 150; i++ {
		g.Delete(fresh + i)
	}
	return g
}

// TestCloneCostIndependentOfMaxID: a batch's copy-on-write cost follows the
// rows it writes, not the largest ID — new rows at 1 000 000 (where the
// benchmark harness puts them) cost within 2× of new rows at 8 000. With rows
// sharded by low ID bits and indexed by the high ones the ratio was ≈ 100.
func TestCloneCostIndependentOfMaxID(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation sizes are not meaningful under -race")
	}
	cost := func(fresh uint32) float64 {
		g := churned(fresh)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 10; i++ {
			cloneWrite(g, fresh)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / 10
	}
	dense, sparse := cost(8000), cost(1_000_000)
	t.Logf("clone + 300 row writes: %.0f B with new rows at 8 000, %.0f B at 1 000 000", dense, sparse)
	if sparse > 2*dense || dense > 2*sparse {
		t.Fatalf("clone + 300 row writes allocate %.0f B with new rows at 8 000 and %.0f B at 1 000 000; want within 2×", dense, sparse)
	}
}

func benchCloneWrite(b *testing.B, fresh uint32) {
	g := churned(fresh)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cloneWrite(g, fresh)
	}
}

func BenchmarkCloneWriteDenseIDs(b *testing.B)  { benchCloneWrite(b, 8000) }
func BenchmarkCloneWriteSparseIDs(b *testing.B) { benchCloneWrite(b, 1_000_000) }
