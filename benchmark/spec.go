package main

import "fmt"

// datasetSpec is one seeded synthetic dataset (uniform centres in
// [0,10000]^d, per-dimension extents uniform in [1, maxSide]).
type datasetSpec struct {
	Name      string  `json:"name"`
	N         int     `json:"n"`
	Dim       int     `json:"d"`
	MaxSide   float64 `json:"max_side"`
	Instances int     `json:"instances"`
	// ProbePrimer, ProbePairs and ProbeBatch size the write probe of a
	// traced run on a workload that is not ingest: a d=3 batch of 16 costs
	// 5–11 s and as much again to replay, so uni3 gets the smallest sequence
	// that still has an insert batch, a checkpoint, a delete batch and a WAL
	// tail to replay, in batches of 4.
	ProbePrimer int `json:"probe_primer"`
	ProbePairs  int `json:"probe_pairs"`
	ProbeBatch  int `json:"probe_batch"`
}

// The two datasets. uni2 is larger than pvindex's 4096-entry record cache;
// uni3 fits it and is the paper's multi-dimensional case.
var (
	uni2 = datasetSpec{Name: "uni2", N: 8000, Dim: 2, MaxSide: 60, Instances: 100, ProbePrimer: 4, ProbePairs: 2, ProbeBatch: batchSize}
	uni3 = datasetSpec{Name: "uni3", N: 3000, Dim: 3, MaxSide: 400, Instances: 200, ProbePrimer: 1, ProbePairs: 1, ProbeBatch: 4}
)

// Fixed shape parameters of the workloads. They are never scaled: only op
// counts follow -seconds.
const (
	clients     = 2   // closed-loop connections (= nproc of the sizing box)
	knnK        = 8   // k of /v1/possibleknn
	groupSize   = 4   // points per /v1/groupnn group
	groupSpan   = 500 // side of the box a group's points are drawn from
	batchSize   = 16  // objects per insert/delete batch of ingest-durable-d2
	primerPairs = 4   // untimed insert batches applied before the ingest sequence
	readerRate  = 200 // open-loop reader, requests per second
	gateOps     = 200 // correctness-gate ops per workload before timing
	firstNewID  = 1_000_000
	traceSample = 5000 // read ops replayed by a traced run
)

type workloadKind int

const (
	kindPNNQ workloadKind = iota
	kindExt
	kindIngest
)

// workloadSpec is one workload: a dataset and a request mix; BENCHMARK.json
// and README.md say why each exists. OpsPerSec is the fixed work per client
// per nominal second, sized so that the timed sequence took 0.7–1.0 × -seconds
// at the commit that defined the benchmark on a quiet host: `-seconds s`
// therefore means the same seeded op sequence on every later commit, however
// fast it runs.
type workloadSpec struct {
	Name      string
	Kind      workloadKind
	Data      datasetSpec
	OpsPerSec float64
}

var workloads = []workloadSpec{
	{Name: "pnnq-http-d2", Kind: kindPNNQ, Data: uni2, OpsPerSec: 4800},
	{Name: "pnnq-http-d3", Kind: kindPNNQ, Data: uni3, OpsPerSec: 1800},
	{Name: "ext-http-d2", Kind: kindExt, Data: uni2, OpsPerSec: 1000},
	// Pairs per second: one pair is an insert batch and a delete batch.
	{Name: "ingest-durable-d2", Kind: kindIngest, Data: uni2, OpsPerSec: 1.5},
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// scale shrinks a run for the smoke test. Full scale is the only one whose
// numbers mean anything.
type scale struct {
	Name string
	// data maps a dataset to the size actually generated.
	data func(datasetSpec) datasetSpec
	// ops scales an op count.
	ops func(n int) int
}

var (
	scaleFull  = scale{Name: "full", data: func(d datasetSpec) datasetSpec { return d }, ops: func(n int) int { return n }}
	scaleSmoke = scale{
		Name: "smoke",
		data: func(d datasetSpec) datasetSpec {
			if d.Dim == 2 {
				d.N = 400
			} else {
				d.N = 300
			}
			d.Instances = 20
			return d
		},
		ops: func(n int) int { return max(n/100, 1) },
	}
)

// opCount is the number of ops one client issues: OpsPerSec × seconds,
// rounded up to a multiple of mult × windows so that every window holds the
// same whole number of (multi-op) units.
func (w workloadSpec) opCount(seconds float64, sc scale, mult int) int {
	n := sc.ops(int(w.OpsPerSec * seconds))
	unit := mult * windows
	return (n + unit - 1) / unit * unit
}
