package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"pvoronoi/internal/dataset"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/uncertain"
)

// Every input is a function of (-seed, purpose): pvserve receives only the
// generated dataset file and requests.
const (
	purposeData = iota + 1
	purposeQueries
	purposeGroups
	purposeUpdates
	purposeGate
	purposeReader
)

func subSeed(seed int64, purpose int) int64 { return seed*1000 + int64(purpose) }

func genDataset(ds datasetSpec, seed int64) *uncertain.DB {
	return dataset.Synthetic(dataset.SyntheticParams{
		N: ds.N, Dim: ds.Dim, MaxSide: ds.MaxSide, Instances: ds.Instances,
		Seed: subSeed(seed, purposeData),
	})
}

// genGroups draws n query groups: groupSize points uniform in a box of side
// groupSpan around a uniform centre — a party of nearby users, which is what
// a group-NN query models; points spread over the whole domain would make
// every object a candidate.
func genGroups(domain geom.Rect, n int, seed int64) [][]geom.Point {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]geom.Point, n)
	for i := range out {
		centre := make(geom.Point, domain.Dim())
		for j := range centre {
			centre[j] = domain.Lo[j] + rng.Float64()*(domain.Hi[j]-domain.Lo[j])
		}
		g := make([]geom.Point, groupSize)
		for k := range g {
			p := make(geom.Point, len(centre))
			for j := range p {
				v := centre[j] + (rng.Float64()-0.5)*groupSpan
				p[j] = min(max(v, domain.Lo[j]), domain.Hi[j])
			}
			g[k] = p
		}
		out[i] = g
	}
	return out
}

// genObjects draws n new objects shaped like the dataset's own (same extent
// and instance count), with IDs from firstID up.
func genObjects(ds datasetSpec, domain geom.Rect, n int, firstID uint32, seed int64) []*uncertain.Object {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*uncertain.Object, n)
	for i := range out {
		lo := make(geom.Point, ds.Dim)
		hi := make(geom.Point, ds.Dim)
		for j := 0; j < ds.Dim; j++ {
			side := 1 + rng.Float64()*(ds.MaxSide-1)
			span := domain.Hi[j] - domain.Lo[j]
			lo[j] = domain.Lo[j] + rng.Float64()*(span-side)
			hi[j] = lo[j] + side
		}
		o := &uncertain.Object{ID: uncertain.ID(firstID + uint32(i)), Region: geom.Rect{Lo: lo, Hi: hi}}
		o.Instances = uncertain.SampleInstances(o.Region, uncertain.PDFUniform, ds.Instances, rng)
		out[i] = o
	}
	return out
}

// --- request encoding -------------------------------------------------------

type opKind uint8

const (
	opQuery opKind = iota
	opPossibleNN
	opKNN
	opGroupNN
	opInsertBatch
	opDeleteBatch
	opCheckpoint
	numOpKinds
)

var opPath = [numOpKinds]string{
	opQuery:       "/v1/query",
	opPossibleNN:  "/v1/possiblenn",
	opKNN:         "/v1/possibleknn",
	opGroupNN:     "/v1/groupnn",
	opInsertBatch: "/v1/insertbatch",
	opDeleteBatch: "/v1/deletebatch",
	opCheckpoint:  "/v1/checkpoint",
}

// request is one pre-encoded HTTP request: the full wire bytes, built before
// timing starts, so the timed loop only writes and reads.
type request struct {
	kind opKind
	wire []byte
	body int // body length in bytes, for pvserve.req_bytes_mean
}

func encodeRequest(kind opKind, payload any) request {
	body, err := json.Marshal(payload)
	if err != nil {
		panic(fmt.Sprintf("encoding %s request: %v", opPath[kind], err)) // only our own types are encoded
	}
	head := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: pvserve\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		opPath[kind], len(body))
	return request{kind: kind, wire: append([]byte(head), body...), body: len(body)}
}

func queryRequest(kind opKind, q geom.Point) request {
	return encodeRequest(kind, map[string]any{"point": []float64(q)})
}

func knnRequest(q geom.Point) request {
	return encodeRequest(opKNN, map[string]any{"point": []float64(q), "k": knnK})
}

func groupRequest(g []geom.Point) request {
	pts := make([][]float64, len(g))
	for i, p := range g {
		pts[i] = p
	}
	return encodeRequest(opGroupNN, map[string]any{"points": pts, "agg": "sum"})
}

type wireInstance struct {
	Pos  []float64 `json:"pos"`
	Prob float64   `json:"prob"`
}

type wireObject struct {
	ID     uint32 `json:"id"`
	Region struct {
		Lo []float64 `json:"lo"`
		Hi []float64 `json:"hi"`
	} `json:"region"`
	Instances []wireInstance `json:"instances"`
}

func insertBatchRequest(objs []*uncertain.Object) request {
	out := make([]wireObject, len(objs))
	for i, o := range objs {
		out[i].ID = uint32(o.ID)
		out[i].Region.Lo, out[i].Region.Hi = o.Region.Lo, o.Region.Hi
		out[i].Instances = make([]wireInstance, len(o.Instances))
		for j, in := range o.Instances {
			out[i].Instances[j] = wireInstance{Pos: in.Pos, Prob: in.Prob}
		}
	}
	return encodeRequest(opInsertBatch, map[string]any{"objects": out})
}

func deleteBatchRequest(objs []*uncertain.Object) request {
	ids := make([]uint32, len(objs))
	for i, o := range objs {
		ids[i] = uint32(o.ID)
	}
	return encodeRequest(opDeleteBatch, map[string]any{"ids": ids})
}

func checkpointRequest() request {
	return encodeRequest(opCheckpoint, map[string]any{})
}
