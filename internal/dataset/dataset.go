// Package dataset generates the paper's evaluation workloads.
//
// Synthetic data follows the setup of §VII-A: object mean positions uniform
// in D = [0, 10000]^d, per-dimension uncertainty extents uniform in
// [1, |u(o)|], and a discrete pdf of 500 uniform samples per object.
//
// The paper's three real datasets (roads and rrlines from rtreeportal.org,
// airports from ourairports.com) are offline, so Real generates statistically
// similar stand-ins: road/rail networks as thin, elongated segment MBRs along
// random polylines with network-like clustering, and airports as 3-D points
// clustered around population centers with a 10 m GPS error sphere bounded by
// its MBR (Gaussian pdf, as in the paper). Counts match the originals
// (30k / 36k / 20k). docs/ARCHITECTURE.md, "Baselines and evaluation", has the
// substitution rationale.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"pvoronoi/internal/geom"
	"pvoronoi/internal/uncertain"
)

// DomainSpan is the paper's domain extent per dimension.
const DomainSpan = 10000.0

// SyntheticParams configures the synthetic generator (Table I).
type SyntheticParams struct {
	N         int     // |S|
	Dim       int     // d
	MaxSide   float64 // |u(o)|: max uncertainty extent per dimension
	Instances int     // pdf samples per object (0 = regions only)
	Seed      int64
	Clustered bool // Theodoridis-style Gaussian clusters instead of uniform
	Clusters  int  // number of clusters when Clustered (default 10)
}

// Synthetic generates a uniform (or clustered) uncertain database.
func Synthetic(p SyntheticParams) *uncertain.DB {
	if p.Dim <= 0 {
		p.Dim = 3
	}
	if p.MaxSide <= 0 {
		p.MaxSide = 60
	}
	rng := rand.New(rand.NewSource(p.Seed))
	db := uncertain.NewDB(geom.UnitCube(p.Dim, DomainSpan))

	var centers []geom.Point
	if p.Clustered {
		k := p.Clusters
		if k <= 0 {
			k = 10
		}
		centers = make([]geom.Point, k)
		for i := range centers {
			c := make(geom.Point, p.Dim)
			for j := range c {
				c[j] = rng.Float64() * DomainSpan
			}
			centers[i] = c
		}
	}

	for i := 0; i < p.N; i++ {
		mean := make(geom.Point, p.Dim)
		if p.Clustered {
			c := centers[rng.Intn(len(centers))]
			for j := range mean {
				mean[j] = clamp(c[j]+rng.NormFloat64()*DomainSpan/40, 0, DomainSpan)
			}
		} else {
			for j := range mean {
				mean[j] = rng.Float64() * DomainSpan
			}
		}
		lo := make(geom.Point, p.Dim)
		hi := make(geom.Point, p.Dim)
		for j := 0; j < p.Dim; j++ {
			side := 1 + rng.Float64()*(p.MaxSide-1)
			lo[j] = clamp(mean[j]-side/2, 0, DomainSpan)
			hi[j] = clamp(mean[j]+side/2, 0, DomainSpan)
			if hi[j] <= lo[j] {
				hi[j] = math.Min(lo[j]+1, DomainSpan)
				lo[j] = hi[j] - 1
			}
		}
		o := &uncertain.Object{ID: uncertain.ID(i), Region: geom.Rect{Lo: lo, Hi: hi}}
		if p.Instances > 0 {
			o.Instances = uncertain.SampleInstances(o.Region, uncertain.PDFUniform, p.Instances, rng)
		}
		_ = db.Add(o)
	}
	return db
}

// RealKind selects one of the simulated real datasets.
type RealKind int

const (
	// Roads models the rtreeportal.org "roads" dataset: 30k 2-D rectangles
	// bounding road segments.
	Roads RealKind = iota
	// RRLines models "rrlines": 36k 2-D rectangles bounding railroad
	// segments (longer, straighter than roads).
	RRLines
	// Airports models the ourairports.com dataset: 20k 3-D positions
	// (lat, lon, altitude) with a 10 m GPS error sphere, bounded by MBRs.
	Airports
)

// String implements fmt.Stringer.
func (k RealKind) String() string {
	switch k {
	case Roads:
		return "roads"
	case RRLines:
		return "rrlines"
	case Airports:
		return "airports"
	default:
		return fmt.Sprintf("RealKind(%d)", int(k))
	}
}

// Size returns the dataset's paper-reported cardinality.
func (k RealKind) Size() int {
	switch k {
	case Roads:
		return 30000
	case RRLines:
		return 36000
	case Airports:
		return 20000
	default:
		return 0
	}
}

// Dim returns the dataset's dimensionality.
func (k RealKind) Dim() int {
	if k == Airports {
		return 3
	}
	return 2
}

// RealParams configures the simulated real datasets.
type RealParams struct {
	Kind      RealKind
	N         int // object count; Kind.Size() if 0
	Instances int // pdf samples per object
	Seed      int64
}

// Real generates a simulated real dataset.
func Real(p RealParams) *uncertain.DB {
	if p.N <= 0 {
		p.N = p.Kind.Size()
	}
	rng := rand.New(rand.NewSource(p.Seed))
	switch p.Kind {
	case Airports:
		return airports(p, rng)
	default:
		return segmentNetwork(p, rng)
	}
}

// segmentNetwork lays polylines across the domain and emits the MBR of each
// segment — the shape signature of the roads/rrlines datasets: thin,
// elongated, spatially clustered rectangles.
func segmentNetwork(p RealParams, rng *rand.Rand) *uncertain.DB {
	db := uncertain.NewDB(geom.UnitCube(2, DomainSpan))

	// Rail lines are longer and straighter than roads.
	segLen, wobble := 60.0, 0.9
	if p.Kind == RRLines {
		segLen, wobble = 110.0, 0.25
	}

	id := uncertain.ID(0)
	for int(id) < p.N {
		// Start a new polyline at a random hub; hubs cluster near a few
		// metro centers to mimic real network density.
		x := rng.Float64() * DomainSpan
		y := rng.Float64() * DomainSpan
		if rng.Float64() < 0.7 {
			// 70% of lines start near one of 8 metro centers.
			cx := float64(1+rng.Intn(8)) * DomainSpan / 9
			cy := float64(1+rng.Intn(8)) * DomainSpan / 9
			x = clamp(cx+rng.NormFloat64()*DomainSpan/30, 0, DomainSpan)
			y = clamp(cy+rng.NormFloat64()*DomainSpan/30, 0, DomainSpan)
		}
		heading := rng.Float64() * 2 * math.Pi
		steps := 10 + rng.Intn(40)
		for s := 0; s < steps && int(id) < p.N; s++ {
			length := segLen * (0.5 + rng.Float64())
			nx := x + math.Cos(heading)*length
			ny := y + math.Sin(heading)*length
			if nx < 0 || nx > DomainSpan || ny < 0 || ny > DomainSpan {
				break // line left the map
			}
			lo := geom.Point{math.Min(x, nx), math.Min(y, ny)}
			hi := geom.Point{math.Max(x, nx), math.Max(y, ny)}
			// Give the MBR the segment's width so degenerate axis-aligned
			// segments still have extent.
			width := 1 + rng.Float64()*4
			for j := 0; j < 2; j++ {
				if hi[j]-lo[j] < width {
					mid := (hi[j] + lo[j]) / 2
					lo[j] = clamp(mid-width/2, 0, DomainSpan)
					hi[j] = clamp(mid+width/2, 0, DomainSpan)
				}
			}
			o := &uncertain.Object{ID: id, Region: geom.Rect{Lo: lo, Hi: hi}}
			if p.Instances > 0 {
				o.Instances = uncertain.SampleInstances(o.Region, uncertain.PDFUniform, p.Instances, rng)
			}
			_ = db.Add(o)
			id++
			x, y = nx, ny
			heading += (rng.Float64() - 0.5) * wobble
		}
	}
	return db
}

// airports emits 3-D positions clustered around population centers. The GPS
// error is a 10 m sphere; in domain units (10000 ≈ continental extent) we
// keep the paper's relative scale by mapping 10 m to a small constant.
func airports(p RealParams, rng *rand.Rand) *uncertain.DB {
	db := uncertain.NewDB(geom.UnitCube(3, DomainSpan))
	const gpsErr = 2.5 // domain units: the 10 m error sphere's radius

	// Population centers with Zipf-ish weights.
	const centers = 40
	cx := make([]geom.Point, centers)
	for i := range cx {
		cx[i] = geom.Point{
			rng.Float64() * DomainSpan,
			rng.Float64() * DomainSpan,
			0,
		}
	}
	for i := 0; i < p.N; i++ {
		var pos geom.Point
		if rng.Float64() < 0.8 {
			c := cx[rng.Intn(centers)]
			pos = geom.Point{
				clamp(c[0]+rng.NormFloat64()*DomainSpan/25, 0, DomainSpan),
				clamp(c[1]+rng.NormFloat64()*DomainSpan/25, 0, DomainSpan),
				0,
			}
		} else {
			pos = geom.Point{rng.Float64() * DomainSpan, rng.Float64() * DomainSpan, 0}
		}
		// Altitude: most airports near sea level, a long tail up high.
		pos[2] = clamp(math.Abs(rng.NormFloat64())*DomainSpan/20, 0, DomainSpan)

		lo := make(geom.Point, 3)
		hi := make(geom.Point, 3)
		for j := 0; j < 3; j++ {
			lo[j] = clamp(pos[j]-gpsErr, 0, DomainSpan)
			hi[j] = clamp(pos[j]+gpsErr, 0, DomainSpan)
		}
		o := &uncertain.Object{ID: uncertain.ID(i), Region: geom.Rect{Lo: lo, Hi: hi}}
		if p.Instances > 0 {
			// GPS error: Gaussian pdf, per the paper's setup.
			o.Instances = uncertain.SampleInstances(o.Region, uncertain.PDFGaussian, p.Instances, rng)
		}
		_ = db.Add(o)
	}
	return db
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// QueryPoints returns n uniform query points over the domain, seeded
// independently from the data.
func QueryPoints(domain geom.Rect, n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	out := make([]geom.Point, n)
	for i := range out {
		p := make(geom.Point, domain.Dim())
		for j := range p {
			p[j] = domain.Lo[j] + rng.Float64()*(domain.Hi[j]-domain.Lo[j])
		}
		out[i] = p
	}
	return out
}
