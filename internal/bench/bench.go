// Package bench implements the paper's full experimental harness: one
// function per table/figure of §VII, shared by cmd/pvbench (paper-scale
// sweeps) and the repository's bench_test.go (reduced sizes).
//
// Absolute durations will differ from the paper's 2008-era testbed; the
// harness exists to reproduce the figures' shapes: which method wins, by
// what factor, and how the curves bend across each sweep. EXPERIMENTS.md
// records paper-vs-measured values for every figure.
package bench

import (
	"fmt"
	"io"
	"time"

	"pvoronoi/internal/core"
	"pvoronoi/internal/dataset"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/pnnq"
	"pvoronoi/internal/pvindex"
	"pvoronoi/internal/rtree"
	"pvoronoi/internal/uncertain"
	"pvoronoi/internal/uvindex"
)

// Params scales the experiments. Scale multiplies the paper's dataset sizes
// (1.0 = paper scale; the default harness setting is 0.05–0.1 so a full run
// finishes in minutes on a laptop).
type Params struct {
	Scale     float64
	Queries   int // queries per data point (paper: 50)
	Instances int // pdf samples per object (paper: 500)
	Seed      int64
	Out       io.Writer
}

func (p Params) n(paperN int) int {
	n := int(float64(paperN) * p.Scale)
	if n < 50 {
		n = 50
	}
	return n
}

func (p Params) logf(format string, args ...interface{}) {
	if p.Out != nil {
		fmt.Fprintf(p.Out, format, args...)
	}
}

// --- shared machinery ------------------------------------------------------

// queryCost is the measured per-query cost profile of one index on one
// workload.
type queryCost struct {
	OR      time.Duration // Step 1: object retrieval
	PC      time.Duration // Step 2: probability computation
	IO      float64       // leaf page accesses per query
	AvgCand float64       // Step-1 survivors per query
}

func (c queryCost) Total() time.Duration { return c.OR + c.PC }

// stepTwo computes qualification probabilities for the Step-1 survivors,
// reading instance data from the database (identical for every index, as in
// the paper: "the amount of time spent on PC is the same for both methods").
func stepTwo(db *uncertain.DB, ids []uncertain.ID, q geom.Point) []pnnq.Result {
	data := make([]pnnq.CandidateData, 0, len(ids))
	for _, id := range ids {
		o := db.Get(id)
		if o == nil {
			continue
		}
		data = append(data, pnnq.CandidateData{ID: id, Instances: o.Instances})
	}
	return pnnq.Compute(data, q)
}

// step1 answers PNNQ Step 1 on one index: the surviving IDs and the leaf
// pages this call read.
type step1 func(q geom.Point) ([]uncertain.ID, int)

// measure runs the query workload through one index's Step 1, then Step 2
// over its survivors.
func measure(db *uncertain.DB, queries []geom.Point, possibleNN step1) queryCost {
	var cost queryCost
	var cands, leaves int
	for _, q := range queries {
		t0 := time.Now()
		ids, io := possibleNN(q)
		cost.OR += time.Since(t0)
		cands += len(ids)
		leaves += io
		t1 := time.Now()
		stepTwo(db, ids, q)
		cost.PC += time.Since(t1)
	}
	n := len(queries)
	cost.OR /= time.Duration(n)
	cost.PC /= time.Duration(n)
	cost.IO = float64(leaves) / float64(n)
	cost.AvgCand = float64(cands) / float64(n)
	return cost
}

// candidateIDs lists the IDs of a PV-index Step-1 answer.
func candidateIDs(cs []pvindex.Candidate) []uncertain.ID {
	ids := make([]uncertain.ID, len(cs))
	for i, c := range cs {
		ids[i] = c.ID
	}
	return ids
}

// pvStep1 is the PV-index's Step 1: one octree leaf chain.
func pvStep1(ix *pvindex.Index) step1 {
	return func(q geom.Point) ([]uncertain.ID, int) {
		cs, io, err := ix.PossibleNNIO(q)
		if err != nil {
			panic(err)
		}
		return candidateIDs(cs), io
	}
}

// rtreeStep1 is the R*-tree baseline (branch-and-prune PossibleNN of Cheng
// et al. 2004).
func rtreeStep1(tree *rtree.Tree) step1 {
	return func(q geom.Point) ([]uncertain.ID, int) {
		raw, cost := tree.PossibleNN(q)
		ids := make([]uncertain.ID, len(raw))
		for i, r := range raw {
			ids[i] = uncertain.ID(r)
		}
		return ids, cost.Leaves
	}
}

// uvStep1 is the UV-index's Step 1 (2-D only).
func uvStep1(ix *uvindex.Index) step1 {
	return func(q geom.Point) ([]uncertain.ID, int) {
		cs, io, err := ix.PossibleNN(q)
		if err != nil {
			panic(err)
		}
		ids := make([]uncertain.ID, len(cs))
		for i, c := range cs {
			ids[i] = c.ID
		}
		return ids, io
	}
}

func buildPV(db *uncertain.DB, strategy core.CSetStrategy) *pvindex.Index {
	cfg := pvindex.DefaultConfig()
	cfg.SE.Strategy = strategy
	ix, err := pvindex.Build(db, cfg)
	if err != nil {
		panic(err)
	}
	return ix
}

func buildPVDelta(db *uncertain.DB, delta float64) *pvindex.Index {
	cfg := pvindex.DefaultConfig()
	cfg.SE.Delta = delta
	ix, err := pvindex.Build(db, cfg)
	if err != nil {
		panic(err)
	}
	return ix
}

func buildRTree(db *uncertain.DB) *rtree.Tree {
	return core.BuildRegionTree(db, rtree.DefaultFanout)
}

func synthetic(p Params, n, d int, maxSide float64) *uncertain.DB {
	return dataset.Synthetic(dataset.SyntheticParams{
		N: n, Dim: d, MaxSide: maxSide, Instances: p.Instances, Seed: p.Seed,
	})
}

// sweepSizes returns the paper's |S| sweep, scaled.
func (p Params) sweepSizes() []int {
	out := make([]int, 0, 5)
	for _, n := range []int{20000, 40000, 60000, 80000, 100000} {
		out = append(out, p.n(n))
	}
	return out
}
