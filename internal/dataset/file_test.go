package dataset

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pvoronoi/internal/geom"
	"pvoronoi/internal/uncertain"
)

// sameFloatBits compares coordinates bit for bit (−0 and NaN payloads
// included).
func sameFloatBits(a, b []float64) bool {
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

// assertSameDB: same domain bits, same objects in the same order, every
// float bit equal.
func assertSameDB(t *testing.T, got, want *uncertain.DB) {
	t.Helper()
	if !sameFloatBits(got.Domain.Lo, want.Domain.Lo) || !sameFloatBits(got.Domain.Hi, want.Domain.Hi) {
		t.Fatalf("domain %v, want %v", got.Domain, want.Domain)
	}
	if got.Len() != want.Len() {
		t.Fatalf("%d objects, want %d", got.Len(), want.Len())
	}
	for i, w := range want.Objects() {
		g := got.Objects()[i]
		if g.ID != w.ID || !sameFloatBits(g.Region.Lo, w.Region.Lo) || !sameFloatBits(g.Region.Hi, w.Region.Hi) || len(g.Instances) != len(w.Instances) {
			t.Fatalf("object %d is %d %v with %d instances, want %d %v with %d", i, g.ID, g.Region, len(g.Instances), w.ID, w.Region, len(w.Instances))
		}
		for j, in := range w.Instances {
			gi := g.Instances[j]
			if !sameFloatBits(gi.Pos, in.Pos) || math.Float64bits(gi.Prob) != math.Float64bits(in.Prob) {
				t.Fatalf("object %d instance %d is %v, want %v", w.ID, j, gi, in)
			}
			if cap(gi.Pos) != len(gi.Pos) {
				t.Fatalf("object %d instance %d position has capacity %d beyond its length", w.ID, j, cap(gi.Pos))
			}
		}
		if got.Get(w.ID) != g {
			t.Fatalf("object %d not found by ID", w.ID)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.gob")

	orig := Synthetic(SyntheticParams{N: 200, Dim: 3, MaxSide: 40, Instances: 25, Seed: 3})
	// A region on the domain's −0 face and a regions-only object.
	edge := &uncertain.Object{ID: 9000, Region: geom.Rect{Lo: geom.Point{math.Copysign(0, -1), 5, 5}, Hi: geom.Point{1, 6, 6}}}
	edge.Instances = []uncertain.Instance{{Pos: geom.Point{math.Copysign(0, -1), 5.5, 6}, Prob: 1}}
	if err := orig.Add(edge); err != nil {
		t.Fatal(err)
	}
	if err := orig.Add(&uncertain.Object{ID: 9001, Region: geom.NewRect(geom.Point{7, 7, 7}, geom.Point{8, 8, 8})}); err != nil {
		t.Fatal(err)
	}
	if err := Save(orig, path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSameDB(t, got, orig)
}

// TestEveryGeneratorLoads: what pvgen writes, pvserve -data reads — every
// generator's objects pass the load-time checks.
func TestEveryGeneratorLoads(t *testing.T) {
	for name, db := range map[string]*uncertain.DB{
		"uniform":   Synthetic(SyntheticParams{N: 300, Dim: 2, Instances: 8, Seed: 1}),
		"clustered": Synthetic(SyntheticParams{N: 300, Dim: 3, Instances: 8, Seed: 2, Clustered: true}),
		"roads":     Real(RealParams{Kind: Roads, N: 300, Instances: 8, Seed: 3}),
		"rrlines":   Real(RealParams{Kind: RRLines, N: 300, Instances: 8, Seed: 4}),
		"airports":  Real(RealParams{Kind: Airports, N: 300, Instances: 8, Seed: 5}),
	} {
		var buf bytes.Buffer
		if err := SaveTo(db, &buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := LoadFrom(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertSameDB(t, got, db)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.gob")); err == nil {
		t.Fatal("loading a missing file succeeded")
	}
}

func TestLoadCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.gob")
	if err := os.WriteFile(path, []byte("not a gob stream at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("loading garbage succeeded")
	}
}

// TestLoadRejectsMalformed: every row is an error — never a panic, never a
// database the index would refuse to build over. The durable layer reads a
// checkpoint's database through LoadFrom too, so its rows hold there as well.
func TestLoadRejectsMalformed(t *testing.T) {
	nan := math.NaN()
	square := func(lo, hi float64) geom.Rect { return geom.NewRect(geom.Point{lo, lo}, geom.Point{hi, hi}) }
	encode := func(objs ...*uncertain.Object) []byte {
		db := uncertain.NewDB(square(0, 100))
		for _, o := range objs {
			if err := db.Add(o); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := SaveTo(db, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	good := &uncertain.Object{ID: 1, Region: square(10, 20), Instances: []uncertain.Instance{
		{Pos: geom.Point{11, 12}, Prob: 0.5}, {Pos: geom.Point{19, 18}, Prob: 0.5}}}
	valid := encode(good)
	if _, err := LoadFrom(bytes.NewReader(valid)); err != nil {
		t.Fatalf("the rows' valid base fails: %v", err)
	}
	// Offsets into valid: magic, dim, domain, then the object count and the
	// object's ID and instance count.
	countOff := len(fileMagic) + 2 + 32
	nOff := countOff + 4 + 4
	withCount := func(n uint32) []byte {
		b := bytes.Clone(valid)
		binary.LittleEndian.PutUint32(b[nOff:], n)
		return b
	}
	// A 1-d instance under the 2-d region, laid out by hand.
	wrongDim := bytes.Clone(valid[:nOff+4+32])
	for _, f := range []float64{11, 1} {
		wrongDim = binary.LittleEndian.AppendUint64(wrongDim, math.Float64bits(f))
	}
	binary.LittleEndian.PutUint32(wrongDim[nOff:], 1)
	// The object twice under a count of two.
	dup := append(bytes.Clone(valid), valid[countOff+4:]...)
	binary.LittleEndian.PutUint32(dup[countOff:], 2)

	// The valid stream under a domain whose upper corner is NaN: every object
	// is "inside" a domain that every comparison passes.
	nanDomain := bytes.Clone(valid)
	binary.LittleEndian.PutUint64(nanDomain[len(fileMagic)+2+16:], math.Float64bits(nan))

	// A gob-era file: the format before this codec, whose object has two
	// positions and one probability (the parent's decoder panicked on it).
	type fileObject struct {
		ID     uint32
		Lo, Hi []float64
		Inst   [][]float64
		Probs  []float64
	}
	type fileFormat struct {
		Dim                int
		DomainLo, DomainHi []float64
		Objects            []fileObject
	}
	var gobEra bytes.Buffer
	if err := gob.NewEncoder(&gobEra).Encode(fileFormat{Dim: 2, DomainLo: []float64{0, 0}, DomainHi: []float64{100, 100},
		Objects: []fileObject{{ID: 1, Lo: []float64{10, 10}, Hi: []float64{20, 20}, Inst: [][]float64{{11, 12}, {19, 18}}, Probs: []float64{1}}}}); err != nil {
		t.Fatal(err)
	}

	for name, c := range map[string]struct {
		data []byte
		want string
	}{
		"empty":                            {nil, "not a dataset stream"},
		"truncated":                        {valid[:len(valid)-1], "does not fit"},
		"truncated header":                 {valid[:len(fileMagic)+5], "ends inside its header"},
		"trailing bytes":                   {append(bytes.Clone(valid), 0), "trailing bytes"},
		"object count larger than input":   {append(bytes.Clone(valid[:countOff]), 0xff, 0xff, 0xff, 0x0f), "ends inside object 0"},
		"instance count larger than input": {withCount(1 << 30), "does not fit"},
		"wrong-dimension instance":         {wrongDim, "does not fit"},
		"probabilities sum to 0.25":        {encode(&uncertain.Object{ID: 1, Region: square(10, 20), Instances: []uncertain.Instance{{Pos: geom.Point{11, 12}, Prob: 0.25}}}), "sum to"},
		"instance outside its region":      {encode(&uncertain.Object{ID: 1, Region: square(10, 20), Instances: []uncertain.Instance{{Pos: geom.Point{11, 22}, Prob: 1}}}), "outside region"},
		"region outside the domain":        {encode(&uncertain.Object{ID: 1, Region: square(90, 110)}), "outside the domain"},
		"NaN lo":                           {encode(&uncertain.Object{ID: 1, Region: geom.Rect{Lo: geom.Point{nan, 10}, Hi: geom.Point{20, 20}}}), "non-finite"},
		"+Inf hi":                          {encode(&uncertain.Object{ID: 1, Region: geom.Rect{Lo: geom.Point{10, 10}, Hi: geom.Point{20, math.Inf(1)}}}), "non-finite"},
		"NaN position":                     {encode(&uncertain.Object{ID: 1, Region: square(10, 20), Instances: []uncertain.Instance{{Pos: geom.Point{nan, 12}, Prob: 1}}}), "non-finite"},
		"NaN probability":                  {encode(&uncertain.Object{ID: 1, Region: square(10, 20), Instances: []uncertain.Instance{{Pos: geom.Point{11, 12}, Prob: nan}}}), "non-finite"},
		"NaN domain":                       {nanDomain, "non-finite"},
		"duplicate ID":                     {dup, "duplicate"},
		"gob-era file":                     {gobEra.Bytes(), "gob"},
	} {
		db, err := LoadFrom(bytes.NewReader(c.data))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: LoadFrom = %v, %v; want an error containing %q", name, db, err, c.want)
		}
	}
}

// TestLoadDimensionBound: a stream is refused unless its dimension is in
// [1, geom.MaxDim] — the header is a uint16, and an index over more
// dimensions would take exponential time and memory to build.
func TestLoadDimensionBound(t *testing.T) {
	for _, d := range []int{0, 1, geom.MaxDim, geom.MaxDim + 1} {
		var buf bytes.Buffer
		if err := SaveTo(uncertain.NewDB(geom.UnitCube(d, 100)), &buf); err != nil {
			t.Fatal(err)
		}
		_, err := LoadFrom(&buf)
		if ok := d >= 1 && d <= geom.MaxDim; ok != (err == nil) || err != nil && !strings.Contains(err.Error(), "dimension") {
			t.Errorf("d = %d: LoadFrom returned %v", d, err)
		}
	}
}
