// Package uncertain implements the attribute-uncertainty data model of the
// paper: each object carries a rectangular uncertainty region u(o) that
// minimally bounds its possible attribute values, plus a discrete uncertainty
// pdf — a set of weighted instance points inside u(o) (500 samples per object
// in the paper's experiments).
package uncertain

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"pvoronoi/internal/cowpage"
	"pvoronoi/internal/geom"
)

// ID identifies an object within a database.
type ID uint32

// Instance is one sample of an object's discrete uncertainty pdf.
type Instance struct {
	Pos  geom.Point
	Prob float64 // existence probability; all instances of an object sum to 1
}

// Object is an uncertain object: a bounding uncertainty region plus the
// discrete pdf samples it bounds. Instances may be empty for workloads that
// only exercise PNNQ Step 1 (possible-NN retrieval), which depends on the
// region alone.
type Object struct {
	ID        ID
	Region    geom.Rect
	Instances []Instance
}

// Dim returns the dimensionality of the object.
func (o *Object) Dim() int { return o.Region.Dim() }

// Validate checks structural invariants: a well-formed finite region,
// finite instances inside the region, and probabilities summing to ~1 when
// present. Every comparison with NaN is false, so finiteness is checked
// first: a NaN would pass every other test.
func (o *Object) Validate() error {
	if len(o.Region.Hi) != len(o.Region.Lo) {
		return fmt.Errorf("object %d: region corners have %d and %d coordinates", o.ID, len(o.Region.Lo), len(o.Region.Hi))
	}
	if !o.Region.Lo.IsFinite() || !o.Region.Hi.IsFinite() {
		return fmt.Errorf("object %d: non-finite region corner in %v", o.ID, o.Region)
	}
	for i := range o.Region.Lo {
		if o.Region.Lo[i] > o.Region.Hi[i] {
			return fmt.Errorf("object %d: inverted region in dim %d", o.ID, i)
		}
	}
	if len(o.Instances) == 0 {
		return nil
	}
	var sum float64
	for _, in := range o.Instances {
		if in.Pos.Dim() != o.Dim() {
			return fmt.Errorf("object %d: instance dim %d != region dim %d", o.ID, in.Pos.Dim(), o.Dim())
		}
		if !in.Pos.IsFinite() {
			return fmt.Errorf("object %d: non-finite instance position %v", o.ID, in.Pos)
		}
		if !o.Region.Contains(in.Pos) {
			return fmt.Errorf("object %d: instance %v outside region %v", o.ID, in.Pos, o.Region)
		}
		if math.IsNaN(in.Prob) || math.IsInf(in.Prob, 0) {
			return fmt.Errorf("object %d: non-finite instance probability %g", o.ID, in.Prob)
		}
		if in.Prob < 0 {
			return fmt.Errorf("object %d: negative instance probability %g", o.ID, in.Prob)
		}
		sum += in.Prob
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("object %d: instance probabilities sum to %g, want 1", o.ID, sum)
	}
	return nil
}

// MinDist is distmin(o, p): the smallest possible distance from o's attribute
// value to p, i.e. the minimum distance from p to u(o).
func (o *Object) MinDist(p geom.Point) float64 { return o.Region.MinDist(p) }

// MaxDist is distmax(o, p): the largest possible distance from o's attribute
// value to p.
func (o *Object) MaxDist(p geom.Point) float64 { return o.Region.MaxDist(p) }

// PDFKind selects the distribution used to discretize an object's pdf.
type PDFKind int

const (
	// PDFUniform samples instances uniformly inside the uncertainty region.
	PDFUniform PDFKind = iota
	// PDFGaussian samples a Gaussian centered at the region's center
	// (σ = side/4 per dimension), truncated to the region — the model used
	// for the paper's GPS-derived real datasets.
	PDFGaussian
)

// SampleInstances discretizes a pdf of the given kind into n equally weighted
// instances inside region, using rng for reproducibility. n must be positive.
func SampleInstances(region geom.Rect, kind PDFKind, n int, rng *rand.Rand) []Instance {
	if n <= 0 {
		panic("uncertain: SampleInstances requires n > 0")
	}
	d := region.Dim()
	out := make([]Instance, n)
	pos := make([]float64, n*d)
	w := 1.0 / float64(n)
	for i := 0; i < n; i++ {
		p := geom.Point(pos[i*d : (i+1)*d : (i+1)*d])
		for j := 0; j < d; j++ {
			switch kind {
			case PDFGaussian:
				sigma := region.Side(j) / 4
				v := (region.Lo[j]+region.Hi[j])/2 + rng.NormFloat64()*sigma
				// Truncate to the region: the region bounds all values.
				if v < region.Lo[j] {
					v = region.Lo[j]
				} else if v > region.Hi[j] {
					v = region.Hi[j]
				}
				p[j] = v
			default:
				p[j] = region.Lo[j] + rng.Float64()*region.Side(j)
			}
		}
		out[i] = Instance{Pos: p, Prob: w}
	}
	return out
}

// DB is an in-memory uncertain database: the set S of the paper. Object order
// is stable; lookup by ID is O(1): an ID's slice position, plus one (0:
// absent), lives in a cowpage page of cowpage.Width IDs, so a Clone copies
// the object slice and the page map but no position.
type DB struct {
	Domain  geom.Rect
	objects []*Object
	pages   *cowpage.Pages[[cowpage.Width]int32]
}

// NewDB returns an empty database over the given domain.
func NewDB(domain geom.Rect) *DB {
	return &DB{Domain: domain, pages: cowpage.New[[cowpage.Width]int32]()}
}

// index returns id's slice position.
func (db *DB) index(id ID) (int, bool) {
	n, s := cowpage.Split(uint32(id))
	if p := db.pages.At(n); p != nil && p[s] != 0 {
		return int(p[s]) - 1, true
	}
	return 0, false
}

// setIndex records id at slice position i, or drops it for i < 0; a page
// goes with its last ID.
func (db *DB) setIndex(id ID, i int) {
	n, s := cowpage.Split(uint32(id))
	p := db.pages.Writable(n, cowpage.Copy[[cowpage.Width]int32])
	if p[s] = int32(i + 1); i < 0 && *p == [cowpage.Width]int32{} {
		db.pages.Delete(n)
	}
}

// ErrDuplicateID is returned when inserting an object whose ID already exists.
var ErrDuplicateID = errors.New("uncertain: duplicate object ID")

// ErrUnknownID is returned when an operation references a missing object.
var ErrUnknownID = errors.New("uncertain: unknown object ID")

// ErrOutOfDomain is returned when an object's uncertainty region is not
// contained in the database domain.
var ErrOutOfDomain = errors.New("uncertain: object region outside the domain")

// CheckInDomain returns a wrapped ErrOutOfDomain unless u(o) ⊆ Domain
// (closed containment: touching the boundary is legal). SE bounds the
// PV-cell between l = u(o) and h = Domain and needs l ⊆ h; an index must
// refuse objects that break it. o must have the domain's dimension.
func (db *DB) CheckInDomain(o *Object) error {
	if !db.Domain.ContainsRect(o.Region) {
		return fmt.Errorf("%w: object %d has region %v, domain is %v", ErrOutOfDomain, o.ID, o.Region, db.Domain)
	}
	return nil
}

// Add inserts o into the database.
func (db *DB) Add(o *Object) error {
	if _, ok := db.index(o.ID); ok {
		return fmt.Errorf("%w: %d", ErrDuplicateID, o.ID)
	}
	if o.Dim() != db.Domain.Dim() {
		return fmt.Errorf("uncertain: object %d has dim %d, domain dim %d", o.ID, o.Dim(), db.Domain.Dim())
	}
	db.setIndex(o.ID, len(db.objects))
	db.objects = append(db.objects, o)
	return nil
}

// Remove deletes the object with the given ID.
func (db *DB) Remove(id ID) (*Object, error) {
	idx, ok := db.index(id)
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownID, id)
	}
	o := db.objects[idx]
	last := len(db.objects) - 1
	db.objects[idx] = db.objects[last]
	db.setIndex(db.objects[idx].ID, idx)
	db.objects = db.objects[:last]
	db.setIndex(id, -1)
	return o, nil
}

// Get returns the object with the given ID, or nil.
func (db *DB) Get(id ID) *Object {
	if idx, ok := db.index(id); ok {
		return db.objects[idx]
	}
	return nil
}

// Len returns the number of objects.
func (db *DB) Len() int { return len(db.objects) }

// Dim returns the domain dimensionality.
func (db *DB) Dim() int { return db.Domain.Dim() }

// Objects returns the backing slice of objects. Callers must not mutate it.
func (db *DB) Objects() []*Object { return db.objects }

// Clone returns a shallow copy of the database sharing the object values but
// with independent bookkeeping, so updates to one copy do not affect the other.
// The position pages stay shared until either side first writes one.
func (db *DB) Clone() *DB {
	return &DB{Domain: db.Domain, objects: slices.Clone(db.objects), pages: db.pages.Clone()}
}
