package uncertain

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"pvoronoi/internal/geom"
)

func region2D(lox, loy, hix, hiy float64) geom.Rect {
	return geom.NewRect(geom.Point{lox, loy}, geom.Point{hix, hiy})
}

func TestValidate(t *testing.T) {
	o := &Object{ID: 1, Region: region2D(0, 0, 10, 10)}
	if err := o.Validate(); err != nil {
		t.Fatalf("region-only object should validate: %v", err)
	}

	o.Instances = []Instance{
		{Pos: geom.Point{1, 1}, Prob: 0.5},
		{Pos: geom.Point{9, 9}, Prob: 0.5},
	}
	if err := o.Validate(); err != nil {
		t.Fatalf("valid instances rejected: %v", err)
	}

	o.Instances[0].Pos = geom.Point{11, 1} // outside region
	if err := o.Validate(); err == nil {
		t.Fatal("instance outside region accepted")
	}

	o.Instances[0].Pos = geom.Point{1, 1}
	o.Instances[0].Prob = 0.9 // sums to 1.4
	if err := o.Validate(); err == nil {
		t.Fatal("probabilities not summing to 1 accepted")
	}

	o.Instances[0].Prob = -0.5
	if err := o.Validate(); err == nil {
		t.Fatal("negative probability accepted")
	}

	// Non-finite values: every comparison with NaN is false, so each of these
	// passed the checks above.
	nan, inf := math.NaN(), math.Inf(1)
	for name, bad := range map[string]*Object{
		"NaN lo":           {ID: 2, Region: region2D(nan, 0, 10, 10)},
		"+Inf hi":          {ID: 2, Region: region2D(0, 0, 10, inf)},
		"-Inf lo":          {ID: 2, Region: region2D(0, math.Inf(-1), 10, 10)},
		"NaN position":     {ID: 2, Region: region2D(0, 0, 10, 10), Instances: []Instance{{Pos: geom.Point{nan, 1}, Prob: 1}}},
		"NaN probability":  {ID: 2, Region: region2D(0, 0, 10, 10), Instances: []Instance{{Pos: geom.Point{1, 1}, Prob: 0.5}, {Pos: geom.Point{2, 2}, Prob: nan}}},
		"+Inf probability": {ID: 2, Region: region2D(0, 0, 10, 10), Instances: []Instance{{Pos: geom.Point{1, 1}, Prob: inf}}},
	} {
		if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("%s: Validate = %v, want a non-finite error", name, err)
		}
	}
}

func TestSampleInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	region := region2D(10, 20, 14, 26)
	for _, kind := range []PDFKind{PDFUniform, PDFGaussian} {
		ins := SampleInstances(region, kind, 500, rng)
		if len(ins) != 500 {
			t.Fatalf("got %d instances", len(ins))
		}
		var sum float64
		for _, in := range ins {
			if !region.Contains(in.Pos) {
				t.Fatalf("kind %d: instance %v outside region", kind, in.Pos)
			}
			sum += in.Prob
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("kind %d: probs sum to %g", kind, sum)
		}
	}
}

// TestSampleInstancesAllocs: a call allocates the instance slice and one
// array holding every position, at any n and either kind.
func TestSampleInstancesAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	region := geom.NewRect(geom.Point{10, 20, 30}, geom.Point{14, 26, 31})
	for _, kind := range []PDFKind{PDFUniform, PDFGaussian} {
		if n := testing.AllocsPerRun(20, func() { SampleInstances(region, kind, 100, rng) }); n > 2 {
			t.Errorf("kind %d: %v allocations a call, want ≤ 2", kind, n)
		}
	}
}

func TestSampleInstancesGaussianConcentration(t *testing.T) {
	// Gaussian samples should concentrate near the center more than uniform.
	rng := rand.New(rand.NewSource(17))
	region := region2D(0, 0, 100, 100)
	center := region.Center()
	meanDist := func(kind PDFKind) float64 {
		ins := SampleInstances(region, kind, 2000, rng)
		var s float64
		for _, in := range ins {
			s += geom.Dist(in.Pos, center)
		}
		return s / float64(len(ins))
	}
	if g, u := meanDist(PDFGaussian), meanDist(PDFUniform); g >= u {
		t.Errorf("gaussian mean dist %g >= uniform %g", g, u)
	}
}

func TestMinMaxDistDelegation(t *testing.T) {
	o := &Object{ID: 1, Region: region2D(1, 1, 3, 3)}
	p := geom.Point{0, 2}
	if got := o.MinDist(p); got != 1 {
		t.Errorf("MinDist = %g", got)
	}
	if got, want := o.MaxDist(p), math.Sqrt(10); math.Abs(got-want) > 1e-12 {
		t.Errorf("MaxDist = %g, want %g", got, want)
	}
}

func TestDBAddRemove(t *testing.T) {
	db := NewDB(geom.UnitCube(2, 100))
	for i := 0; i < 10; i++ {
		o := &Object{ID: ID(i), Region: region2D(float64(i), 0, float64(i+1), 1)}
		if err := db.Add(o); err != nil {
			t.Fatal(err)
		}
	}
	if db.Len() != 10 {
		t.Fatalf("Len = %d", db.Len())
	}
	if err := db.Add(&Object{ID: 3, Region: region2D(0, 0, 1, 1)}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate add: %v", err)
	}
	got, err := db.Remove(3)
	if err != nil || got.ID != 3 {
		t.Fatalf("Remove(3) = %v, %v", got, err)
	}
	if db.Get(3) != nil {
		t.Fatal("removed object still retrievable")
	}
	if _, err := db.Remove(3); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("double remove: %v", err)
	}
	// Remaining objects all retrievable with consistent IDs.
	for i := 0; i < 10; i++ {
		if i == 3 {
			continue
		}
		o := db.Get(ID(i))
		if o == nil || o.ID != ID(i) {
			t.Fatalf("Get(%d) = %v", i, o)
		}
	}
	if db.Len() != 9 {
		t.Fatalf("Len after remove = %d", db.Len())
	}
}

func TestDBDimensionMismatch(t *testing.T) {
	db := NewDB(geom.UnitCube(3, 100))
	err := db.Add(&Object{ID: 1, Region: region2D(0, 0, 1, 1)})
	if err == nil {
		t.Fatal("2D object accepted into 3D database")
	}
}

func TestDBClone(t *testing.T) {
	db := NewDB(geom.UnitCube(2, 100))
	for i := 0; i < 5; i++ {
		_ = db.Add(&Object{ID: ID(i), Region: region2D(float64(i), 0, float64(i+1), 1)})
	}
	c := db.Clone()
	if _, err := c.Remove(2); err != nil {
		t.Fatal(err)
	}
	if db.Get(2) == nil {
		t.Fatal("removal from clone affected original")
	}
	if c.Get(2) != nil {
		t.Fatal("clone removal ineffective")
	}
	if err := c.Add(&Object{ID: 100, Region: region2D(0, 0, 1, 1)}); err != nil {
		t.Fatal(err)
	}
	if db.Get(100) != nil {
		t.Fatal("addition to clone affected original")
	}
}

// TestCloneDivergesOnSharedPages: a clone and its parent share the ID →
// position pages until either writes one. Random Adds and Removes on both
// sides, IDs packed into a few blocks and scattered far apart, must
// leave each database equal to a model of its own history — order, Get and
// Len — while a reader walks the parent, which only the main goroutine
// writes, between its own rounds (run it with -race). Emptied, a database
// keeps no page.
func TestCloneDivergesOnSharedPages(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ids := []ID{0, 1, 2, 255, 256, 257, 511, 512, 70_000, 1_000_000, 1_000_255, 1<<32 - 1}
	for range 40 {
		ids = append(ids, ID(rng.Intn(1200)))
	}
	obj := func(id ID) *Object { return &Object{ID: id, Region: region2D(0, 0, 1, 1)} }

	// model is the old slice-and-map database, for reference.
	type model struct {
		objs []*Object
		pos  map[ID]int
	}
	apply := func(db *DB, m *model, id ID) {
		if _, ok := m.pos[id]; ok {
			i := m.pos[id]
			last := len(m.objs) - 1
			m.objs[i] = m.objs[last]
			m.pos[m.objs[i].ID] = i
			m.objs = m.objs[:last]
			delete(m.pos, id)
			if _, err := db.Remove(id); err != nil {
				t.Fatal(err)
			}
			return
		}
		o := obj(id)
		m.pos[id] = len(m.objs)
		m.objs = append(m.objs, o)
		if err := db.Add(o); err != nil {
			t.Fatal(err)
		}
	}
	check := func(label string, db *DB, m *model) {
		if db.Len() != len(m.objs) {
			t.Fatalf("%s: %d objects, model %d", label, db.Len(), len(m.objs))
		}
		for i, o := range db.Objects() {
			if o != m.objs[i] {
				t.Fatalf("%s: object %d is %d, model %d", label, i, o.ID, m.objs[i].ID)
			}
		}
		for _, id := range ids {
			_, in := m.pos[id]
			if got := db.Get(id); (got != nil) != in || in && got != m.objs[m.pos[id]] {
				t.Fatalf("%s: Get(%d) = %v, model holds it: %v", label, id, got, in)
			}
		}
	}
	cloneModel := func(m *model) *model {
		c := &model{objs: append([]*Object(nil), m.objs...), pos: map[ID]int{}}
		for id, i := range m.pos {
			c.pos[id] = i
		}
		return c
	}

	parent, pm := NewDB(region2D(0, 0, 1, 1)), &model{pos: map[ID]int{}}
	for _, id := range ids[:len(ids)/2] {
		if _, dup := pm.pos[id]; !dup {
			apply(parent, pm, id)
		}
	}
	for round := range 30 {
		child, cm := parent.Clone(), cloneModel(pm)
		done := make(chan struct{})
		go func() { // a reader on the parent while the child is written
			defer close(done)
			for _, id := range ids {
				if o := parent.Get(id); o != nil && o.ID != id {
					t.Errorf("parent Get(%d) returned object %d", id, o.ID)
				}
			}
			_ = len(parent.Objects())
		}()
		for range 20 {
			apply(child, cm, ids[rng.Intn(len(ids))])
		}
		<-done
		check("child", child, cm)
		check("parent", parent, pm)
		for range 10 {
			apply(parent, pm, ids[rng.Intn(len(ids))])
		}
		check("parent after its own writes", parent, pm)
		check("child after the parent's writes", child, cm)
		if round%3 == 0 {
			parent, pm = child, cm // the next round clones a clone
		}
	}
	for _, o := range append([]*Object(nil), parent.Objects()...) {
		apply(parent, pm, o.ID)
	}
	if parent.Len() != 0 || len(parent.pages.Blocks()) != 0 {
		t.Fatalf("emptied database keeps %d objects and %d pages", parent.Len(), len(parent.pages.Blocks()))
	}
}
