package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"pvoronoi"
	"pvoronoi/internal/core"
	"pvoronoi/internal/dataset"
	"pvoronoi/internal/exthash"
	"pvoronoi/internal/extquery"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/octree"
	"pvoronoi/internal/pagestore"
	"pvoronoi/internal/pnnq"
	"pvoronoi/internal/pvindex"
	"pvoronoi/internal/rtree"
	"pvoronoi/internal/uncertain"
	"pvoronoi/internal/wal"
)

// Sample sizes of the in-process probes (scaled down by -scale smoke).
const (
	extSample  = 1000 // kNN / group-NN probe points
	coreSample = 500  // objects whose UBR is recomputed by core.ComputeUBR
	walAppends = 20   // standalone WAL group commits
)

// layerRun is one traced run: the probe suite below, executed on the
// workload's dataset, plus the workload's own op sample replayed over HTTP.
// Every per-layer metric is measured on every workload, so a traced run of
// any workload prints the full list; what differs between workloads is the
// dataset (d=2 or d=3) and the request mix behind the pvserve.* and
// loadgen.* numbers.
type layerRun struct {
	e   *env
	cfg runConfig
	ds  datasetSpec
	tr  *tracer
	res *runResult
}

func (l *layerRun) add(name, unit string, v float64, samples int) {
	l.res.Metrics = append(l.res.Metrics, metric{Name: name, Unit: unit, Value: v, Samples: samples})
}

func (l *layerRun) p50(name, unit string, vs []float64) {
	l.add(name, unit, percentile(sortedCopy(vs), 0.5), len(vs))
}

// runTraced is the -trace 1 run. End-to-end numbers never come from it.
func runTraced(e *env, cfg runConfig) (*runResult, error) {
	t0 := time.Now()
	l := &layerRun{e: e, cfg: cfg, ds: cfg.sc.data(cfg.w.Data), tr: newTracer(),
		res: &runResult{Workload: cfg.w.Name, Seed: cfg.seed, Traced: true}}
	label := fmt.Sprintf("%s-seed%d-traced", cfg.w.Name, cfg.seed)
	db := genDataset(l.ds, cfg.seed)
	file := filepath.Join(e.tmpDir, label+".gob")
	if err := dataset.Save(db, file); err != nil {
		return nil, fmt.Errorf("writing dataset file: %w", err)
	}

	// The index is built once, in process, through the same entry point
	// pvserve uses in durable mode.
	dir := filepath.Join(e.tmpDir, label+"-inproc.d")
	var d *pvoronoi.Durable
	var err error
	open := l.tr.record("durable.open", 0, 0, func() { d, err = pvoronoi.OpenDurable(dir, db, pvoronoi.DefaultOptions()) })
	if err != nil {
		return nil, fmt.Errorf("in-process build: %w", err)
	}
	l.tr.get(open).Counts = map[string]float64{"objects": float64(db.Len()), "rebuilt": 1}
	l.add("pvindex.build_s", "s", l.tr.get(open).dur().Seconds(), 1)

	// pvoronoi.Index hides its pvindex.Index; a second handle on the same
	// index comes from its saved image.
	var img bytes.Buffer
	if err := d.Save(&img); err != nil {
		return nil, fmt.Errorf("saving index image: %w", err)
	}
	l.add("pvindex.image_mb", "MB", float64(img.Len())/1e6, 1)
	inner, err := pvindex.LoadFrom(bytes.NewReader(img.Bytes()), d.DB())
	if err != nil {
		return nil, fmt.Errorf("loading index image: %w", err)
	}
	img = bytes.Buffer{}

	sample := cfg.sc.ops(traceSample)
	points := dataset.QueryPoints(db.Domain, sample, subSeed(cfg.seed, purposeQueries))
	if err := l.readProbes(d.Index, inner, points); err != nil {
		return nil, err
	}
	if err := l.structureProbes(inner, d.DB(), points); err != nil {
		return nil, err
	}
	tree, err := l.extProbes(inner, d.DB())
	if err != nil {
		return nil, err
	}
	l.coreProbes(d.DB(), tree)
	replayed, ckpt, err := l.writeProbes(d, dir)
	if err != nil {
		return nil, err
	}
	if err := l.walProbe(); err != nil {
		return nil, err
	}
	if err := l.serveProbes(label, file, dir, db.Domain, replayed, ckpt); err != nil {
		return nil, err
	}

	path, err := l.tr.write(e.outDir, cfg.w.Name, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	logf("trace: %d spans in %s", len(l.tr.spans), path)
	l.res.WallS = time.Since(t0).Seconds()
	return l.res, nil
}

// readProbes replays the PNNQ sample in process. Four passes call, on the
// same points in the same order: the root API's QueryWithCost, then the
// layers it is made of — pvindex.Snapshot, pvindex.PossibleNNIO (Step 1) and
// pnnq.Compute on the snapshot's data. Each pass runs twice and the second
// is recorded, so every pass sees the record cache in the state the previous
// pass over the same points left it in.
func (l *layerRun) readProbes(root *pvoronoi.Index, inner *pvindex.Index, points []geom.Point) error {
	n := len(points)
	queryID := make([]int, n)
	snapID := make([]int, n)
	snaps := make([]*pvindex.QuerySnapshot, n)
	var err error
	fail := func(e error) {
		if err == nil && e != nil {
			err = e
		}
	}
	var cands, instances, hits, misses int
	for pass := 0; pass < 2; pass++ {
		tr := l.tr
		if pass == 0 {
			tr = newTracer() // warm-up: spans discarded
		}
		cands, instances, hits, misses = 0, 0, 0, 0
		for i, q := range points {
			queryID[i] = tr.record("pvoronoi.query", 0, i+1, func() {
				_, cost, e := root.QueryWithCost(q)
				fail(e)
				hits += cost.CacheHits
				misses += cost.CacheMisses
			})
		}
		for i, q := range points {
			snapID[i] = tr.record("pvindex.snapshot", queryID[i], i+1, func() {
				s, e := inner.Snapshot(q)
				fail(e)
				snaps[i] = s
			})
		}
		if err != nil {
			return fmt.Errorf("read probes: %w", err)
		}
		for i, q := range points {
			tr.record("pvindex.step1", snapID[i], i+1, func() {
				_, _, e := inner.PossibleNNIO(q)
				fail(e)
			})
		}
		for i, q := range points {
			data := make([]pnnq.CandidateData, len(snaps[i].Candidates))
			for j, c := range snaps[i].Candidates {
				data[j] = pnnq.CandidateData{ID: c.ID, Instances: snaps[i].Instances[j]}
				instances += len(snaps[i].Instances[j])
			}
			cands += len(data)
			tr.record("pnnq.compute", queryID[i], i+1, func() { pnnq.Compute(data, q) })
		}
	}
	if err != nil {
		return fmt.Errorf("read probes: %w", err)
	}
	self := l.tr.selfTimes()
	l.p50("pvoronoi.query_p50_us", "us", l.tr.durations("pvoronoi.query"))
	l.p50("pvoronoi.query_glue_us", "us", self["pvoronoi.query"])
	l.p50("pvindex.step1_us", "us", l.tr.durations("pvindex.step1"))
	l.p50("pvindex.fetch_us", "us", self["pvindex.snapshot"])
	l.p50("pnnq.compute_us", "us", l.tr.durations("pnnq.compute"))
	l.add("pvindex.candidates_per_query", "count", float64(cands)/float64(n), n)
	l.add("pnnq.instances_per_query", "count", float64(instances)/float64(n), n)
	l.add("pvindex.rcache_hit_ratio", "ratio", float64(hits)/float64(max(hits+misses, 1)), hits+misses)
	return nil
}

// perOp times n calls of fn as one interval and returns the mean in
// nanoseconds: the calls are too short to bracket one by one.
func perOp(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// structureProbes fills a standalone octree, extendible hash table and page
// store with the index's own UBRs and record-sized values and times their
// point operations, away from everything pvindex wraps around them.
func (l *layerRun) structureProbes(inner *pvindex.Index, db *uncertain.DB, points []geom.Point) error {
	ubrs := make(map[uint32]geom.Rect, db.Len())
	for _, o := range db.Objects() {
		ubr, ok := inner.UBR(o.ID)
		if !ok {
			return fmt.Errorf("structure probes: object %d has no UBR", o.ID)
		}
		ubrs[uint32(o.ID)] = ubr
	}
	store := pagestore.New(pagestore.DefaultPageSize)
	tree, err := octree.New(octree.Config{
		Domain: db.Domain, Store: store, MemBudget: pvoronoi.DefaultOptions().MemBudget,
		Lookup: func(id uint32) (geom.Rect, bool) { r, ok := ubrs[id]; return r, ok },
	})
	if err != nil {
		return err
	}
	table, err := exthash.New(store)
	if err != nil {
		return err
	}
	for _, o := range db.Objects() {
		if err := tree.Insert(uint32(o.ID), o.Region, ubrs[uint32(o.ID)]); err != nil {
			return fmt.Errorf("structure probes: octree insert: %w", err)
		}
		// Same length as pvindex's record: header, UBR, region, instances.
		d := db.Dim()
		if err := table.Put(uint32(o.ID), make([]byte, 6+32*d+len(o.Instances)*(8*d+8))); err != nil {
			return fmt.Errorf("structure probes: exthash put: %w", err)
		}
	}
	var ids []uint32
	leafIO := 0
	ns := perOp(len(points), func(i int) {
		var io int
		ids, io, err = tree.PointQueryIDsInto(points[i], ids[:0])
		leafIO += io
	})
	if err != nil {
		return fmt.Errorf("structure probes: octree point query: %w", err)
	}
	l.add("octree.pointquery_ns", "ns", ns, len(points))
	l.add("octree.leaf_io_per_query", "count", float64(leafIO)/float64(len(points)), len(points))
	l.add("octree.mem_used_kb", "kB", float64(tree.MemUsed())/1024, 1)

	objs := db.Objects()
	ns = perOp(len(points), func(i int) {
		_, _, err = table.GetView(uint32(objs[(i*7919)%len(objs)].ID))
	})
	if err != nil {
		return fmt.Errorf("structure probes: exthash get: %w", err)
	}
	l.add("exthash.getview_ns", "ns", ns, len(points))

	pages, err := tree.CollectPages(nil)
	if err != nil {
		return err
	}
	ns = perOp(len(points), func(i int) { _, err = store.View(pages[(i*7919)%len(pages)]) })
	if err != nil {
		return fmt.Errorf("structure probes: page view: %w", err)
	}
	l.add("pagestore.view_ns", "ns", ns, len(points))

	// Space: the loaded index's own store.
	st := inner.Store()
	l.add("pagestore.live_pages", "count", float64(st.Live()), 1)
	l.add("pagestore.arena_mb", "MB", float64(st.ArenaBytes())/1e6, 1)
	before := st.Stats()
	for _, q := range points {
		if _, _, err := inner.PossibleNNIO(q); err != nil {
			return err
		}
	}
	l.add("pagestore.reads_per_query", "count", float64(st.Stats().Sub(before).Reads)/float64(len(points)), len(points))
	return nil
}

// extProbes times candidate retrieval for kNN and group-NN over the
// adjacency graph (the production route) and over the region R*-tree (the
// alternative the roadmap weighs), plus the instance fetch and the scoring.
// It returns the region tree for coreProbes.
func (l *layerRun) extProbes(inner *pvindex.Index, db *uncertain.DB) (*rtree.Tree, error) {
	n := l.cfg.sc.ops(extSample)
	points := dataset.QueryPoints(db.Domain, n, subSeed(l.cfg.seed, purposeQueries))
	groups := genGroups(db.Domain, n, subSeed(l.cfg.seed, purposeGroups))

	t0 := time.Now()
	tree := core.BuildRegionTree(db, rtree.DefaultFanout)
	l.add("rtree.build_s", "s", time.Since(t0).Seconds(), 1)

	var (
		knnRetrieve, knnScore, knnTree []float64
		gnnRetrieve, gnnScore, gnnTree []float64
		knnWhole                       = make([]float64, n) // KNNSnapshot of points[j], by j
		knnCost, gnnCost               pvindex.ExtCost
		treeNodes                      int
	)
	since := func(t time.Time) float64 { return us(time.Since(t)) }
	for i := 0; i < n; i++ {
		q, g := points[i], groups[i]

		t := time.Now()
		_, c, err := inner.KNNCandidatesOnly(q, knnK)
		knnRetrieve = append(knnRetrieve, since(t))
		if err != nil {
			return nil, fmt.Errorf("ext probes: %w", err)
		}
		knnCost.Candidates += c.Candidates
		knnCost.GraphNodes += c.GraphNodes
		knnCost.GraphEdges += c.GraphEdges

		// The snapshot of the point half the sample away: timed on q itself it
		// would find the graph rows the retrieval above has just pulled into
		// the cache and come out faster than the retrieval it contains.
		j := (i + n/2) % n
		t = time.Now()
		snap, err := inner.KNNSnapshot(points[j], knnK)
		knnWhole[j] = since(t)
		if err != nil {
			return nil, fmt.Errorf("ext probes: %w", err)
		}
		t = time.Now()
		extquery.KNNScores(snap.IDs, snap.Instances, points[j], knnK)
		knnScore = append(knnScore, since(t))

		t = time.Now()
		_, tc := extquery.KNNCandidatesTree(tree, q, knnK)
		knnTree = append(knnTree, since(t))
		treeNodes += tc.Nodes + tc.Leaves

		t = time.Now()
		_, c, err = inner.GroupNNCandidatesOnly(g, extquery.AggSum)
		gnnRetrieve = append(gnnRetrieve, since(t))
		if err != nil {
			return nil, fmt.Errorf("ext probes: %w", err)
		}
		gnnCost.Candidates += c.Candidates
		gnnCost.GraphNodes += c.GraphNodes
		gnnCost.GraphEdges += c.GraphEdges

		gsnap, err := inner.GroupNNSnapshot(g, extquery.AggSum)
		if err != nil {
			return nil, fmt.Errorf("ext probes: %w", err)
		}
		t = time.Now()
		extquery.GroupNNScores(gsnap.IDs, gsnap.Instances, g, extquery.AggSum)
		gnnScore = append(gnnScore, since(t))

		t = time.Now()
		extquery.GroupNNCandidatesTree(tree, g, extquery.AggSum)
		gnnTree = append(gnnTree, since(t))
	}
	per := func(v int) float64 { return float64(v) / float64(n) }
	l.p50("extquery.knn_retrieve_us", "us", knnRetrieve)
	l.p50("extquery.gnn_retrieve_us", "us", gnnRetrieve)
	knnFetch := make([]float64, n)
	for j := range knnFetch {
		knnFetch[j] = knnWhole[j] - knnRetrieve[j]
	}
	l.p50("extquery.knn_fetch_us", "us", knnFetch)
	l.add("extquery.knn_candidates", "count", per(knnCost.Candidates), n)
	l.add("extquery.gnn_candidates", "count", per(gnnCost.Candidates), n)
	l.add("adjgraph.nodes_per_knn", "count", per(knnCost.GraphNodes), n)
	l.add("adjgraph.edges_per_knn", "count", per(knnCost.GraphEdges), n)
	l.add("adjgraph.nodes_per_gnn", "count", per(gnnCost.GraphNodes), n)
	l.add("adjgraph.edges_per_gnn", "count", per(gnnCost.GraphEdges), n)
	l.p50("rtree.knn_tree_us", "us", knnTree)
	l.p50("rtree.gnn_tree_us", "us", gnnTree)
	l.add("rtree.nodes_per_knn", "count", per(treeNodes), n)
	l.p50("pnnq.knn_scores_us", "us", knnScore)
	l.p50("pnnq.gnn_scores_us", "us", gnnScore)
	return tree, nil
}

// coreProbes recomputes the UBR of a sample of objects with core.ComputeUBR:
// the per-object cost of Shrink-and-Expand that a build pays n times and an
// update pays once per affected object.
func (l *layerRun) coreProbes(db *uncertain.DB, tree *rtree.Tree) {
	objs := db.Objects()
	n := min(l.cfg.sc.ops(coreSample), len(objs))
	se := core.DefaultOptions()
	var total core.Stats
	for i := 0; i < n; i++ {
		_, st := core.ComputeUBR(db, tree, objs[(i*7919)%len(objs)], se)
		total.Add(st)
	}
	per := func(v float64) float64 { return v / float64(n) }
	l.add("core.se_ms_per_object", "ms", per(ms(total.UBRTime)), n)
	l.add("core.cset_ms_per_object", "ms", per(ms(total.CSetTime)), n)
	l.add("core.cset_size", "count", per(float64(total.CSetSize)), n)
	l.add("core.iterations_per_object", "count", per(float64(total.Iterations)), n)
	l.add("domination.tests_per_object", "count", per(float64(total.DominationTests)), n)
	l.add("domination.ns_per_test", "ns", float64(total.UBRTime.Nanoseconds())/float64(max(total.DominationTests, 1)), int(total.DominationTests))
}

// writeProbes applies the ingest plan's batches in process through
// Durable's own ApplyBatch path (stage SE → WAL append + fsync → COW apply →
// adjacency patch → refinement → publish), one span per batch with the
// batch's UpdateStats attached, and a checkpoint before the last pairs. It returns how
// many updates follow the checkpoint — the tail a recovery must replay — and
// the checkpoint's duration.
func (l *layerRun) writeProbes(d *pvoronoi.Durable, dir string) (tail int, ckpt time.Duration, err error) {
	primer, pairs, batch := l.ds.ProbePrimer, l.ds.ProbePairs, l.ds.ProbeBatch
	if l.cfg.w.Kind == kindIngest {
		primer, pairs, batch = primerPairs, l.cfg.w.opCount(l.cfg.seconds, l.cfg.sc, 1), batchSize
	}
	plan := planIngest(l.ds, d.DB(), primer, pairs, batch, firstNewID, l.cfg.seed)

	// Each batch's counts live on its span; the metrics below are sums over
	// the spans.
	var insMs, delMs []float64
	sum := map[string]float64{}
	req := 0
	apply := func(insert bool, objs []*uncertain.Object) error {
		req++
		ds0, io0 := d.Stats(), d.IO()
		var sts []pvoronoi.UpdateStats
		var err error
		id := l.tr.record("pvindex.applybatch", 0, req, func() {
			if insert {
				sts, err = d.InsertBatch(objs)
				return
			}
			ids := make([]pvoronoi.ID, len(objs))
			for i, o := range objs {
				ids[i] = o.ID
			}
			sts, err = d.DeleteBatch(ids)
		})
		if err != nil {
			return fmt.Errorf("write probes: %w", err)
		}
		ds1, io1 := d.Stats(), d.IO()
		counts := map[string]float64{
			"updates":     float64(len(objs)),
			"wal_bytes":   float64(ds1.WALBytes - ds0.WALBytes),
			"wal_syncs":   float64(ds1.WALSyncs - ds0.WALSyncs),
			"page_writes": float64(io1.Writes - io0.Writes),
		}
		for _, st := range sts {
			counts["affected"] += float64(st.Affected)
			counts["examined"] += float64(st.Examined)
			counts["se_ms"] += ms(st.SETime)
			counts["index_ms"] += ms(st.IndexTime)
			counts["domination_tests"] += float64(st.SE.DominationTests)
			counts["refine_rows"] += float64(st.SE.Refine.Rows)
			counts["refine_ms"] += ms(st.SE.Refine.Time)
		}
		sp := l.tr.get(id)
		sp.Counts = counts
		for k, v := range counts {
			sum[k] += v
		}
		if insert {
			insMs = append(insMs, ms(sp.dur()))
		} else {
			delMs = append(delMs, ms(sp.dur()))
		}
		return nil
	}

	adj0, mv0 := d.Adjacency(), d.MVCC()
	for _, b := range plan.primer {
		if err := apply(true, b); err != nil {
			return 0, 0, err
		}
	}
	for i := 0; i < pairs; i++ {
		if i == plan.ckptAfter {
			var st pvoronoi.CheckpointStats
			id := l.tr.record("durable.checkpoint", 0, 0, func() { st, err = d.Checkpoint() })
			if err != nil {
				return 0, 0, fmt.Errorf("write probes: checkpoint: %w", err)
			}
			ckpt = l.tr.get(id).dur()
			l.tr.get(id).Counts = map[string]float64{"wal_seq": float64(st.Seq)}
			tail = 0
		}
		if err := apply(true, plan.inserts[i]); err != nil {
			return 0, 0, err
		}
		if err := apply(false, plan.deletes[i]); err != nil {
			return 0, 0, err
		}
		tail += 2 * batch
	}
	adj1, mv1 := d.Adjacency(), d.MVCC()

	batches := len(insMs) + len(delMs)
	updates := int(sum["updates"])
	perUpdate := func(name, unit, key string) { l.add(name, unit, sum[key]/sum["updates"], updates) }
	l.p50("pvindex.applybatch_insert_ms", "ms", insMs)
	l.p50("pvindex.applybatch_delete_ms", "ms", delMs)
	l.add("pvindex.batch_max_ms", "ms", slices.Max(append(insMs, delMs...)), batches)
	perUpdate("pvindex.index_ms_per_update", "ms", "index_ms")
	perUpdate("pvindex.affected_per_update", "count", "affected")
	perUpdate("pvindex.examined_per_update", "count", "examined")
	l.add("pvindex.versions_reclaimed", "count", float64(mv1.Reclaimed-mv0.Reclaimed), batches)
	perUpdate("core.se_ms_per_update", "ms", "se_ms")
	l.add("core.refine_ms_per_batch", "ms", sum["refine_ms"]/float64(batches), batches)
	l.add("core.refine_rows_per_batch", "count", sum["refine_rows"]/float64(batches), batches)
	perUpdate("domination.tests_per_update", "count", "domination_tests")
	l.add("adjgraph.rows_recomputed_per_update", "count", float64(adj1.RowsRecomputed-adj0.RowsRecomputed)/sum["updates"], updates)
	l.add("adjgraph.rows_patched_per_update", "count", float64(adj1.RowsPatched-adj0.RowsPatched)/sum["updates"], updates)
	l.add("adjgraph.degree_p50", "count", float64(adj1.DegreeP50), adj1.Rows)
	l.add("adjgraph.degree_max", "count", float64(adj1.DegreeMax), adj1.Rows)
	perUpdate("pagestore.writes_per_update", "count", "page_writes")
	perUpdate("wal.bytes_per_update", "B", "wal_bytes")
	l.add("wal.syncs_per_batch", "count", sum["wal_syncs"]/float64(batches), batches)
	l.add("durable.checkpoint_ms", "ms", ms(ckpt), 1)
	mb, err := checkpointMB(dir)
	if err != nil {
		return 0, 0, err
	}
	l.add("durable.checkpoint_mb", "MB", mb, 1)
	return tail, ckpt, nil
}

// checkpointMB sizes the newest checkpoint pair in dir.
func checkpointMB(dir string) (float64, error) {
	names, err := filepath.Glob(filepath.Join(dir, "ckpt-*.pvidx"))
	if err != nil || len(names) == 0 {
		return 0, fmt.Errorf("no checkpoint in %s (%v)", dir, err)
	}
	sort.Strings(names)
	newest := names[len(names)-1]
	var total int64
	for _, p := range []string{newest, newest[:len(newest)-len(".pvidx")] + ".db"} {
		st, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		total += st.Size()
	}
	return float64(total) / 1e6, nil
}

// walProbe times standalone group commits shaped like an insert batch's:
// batchSize records of one object's encoded size, one fsync.
func (l *layerRun) walProbe() error {
	log, err := wal.Open(filepath.Join(l.e.tmpDir, "walprobe"), wal.Options{})
	if err != nil {
		return err
	}
	defer log.Close()
	payload := make([]byte, l.ds.Instances*(8*l.ds.Dim+8)+32*l.ds.Dim)
	entries := make([]wal.Entry, batchSize+1)
	for i := range entries[:batchSize] {
		entries[i] = wal.Entry{Type: wal.TypeInsert, Payload: payload}
	}
	entries[batchSize] = wal.Entry{Type: wal.TypeCommit}
	var lat []float64
	for i := 0; i < walAppends; i++ {
		t0 := time.Now()
		if _, _, err := log.Append(entries...); err != nil {
			return fmt.Errorf("wal probe: %w", err)
		}
		lat = append(lat, ms(time.Since(t0)))
	}
	l.p50("wal.append_fsync_ms", "ms", lat)
	return nil
}

// serveProbes copies the in-process store's directory — checkpoint plus the
// WAL tail written after it, exactly what a SIGKILL would leave — and execs
// pvserve on the copy, which times a recovery with replay. It then replays
// the workload's own op sample over HTTP with a span per round trip, kills
// pvserve and reopens the directory in process, which times a clean reopen.
func (l *layerRun) serveProbes(label, file, dir string, domain geom.Rect, replayed int, ckpt time.Duration) error {
	copyDir := filepath.Join(l.e.tmpDir, label+"-served.d")
	if err := copyTree(dir, copyDir); err != nil {
		return fmt.Errorf("copying data directory: %w", err)
	}
	s := &served{e: l.e, cfg: l.cfg, ds: l.ds, file: file, dataDir: copyDir}
	recovery, err := s.exec(label)
	if err != nil {
		return fmt.Errorf("recovery in pvserve: %w", err)
	}
	defer s.child.kill()
	l.tr.addSpan("pvserve.recover", 0, 0, 0, recovery, map[string]float64{"replayed": float64(replayed)})

	before, err := s.child.stats()
	if err != nil {
		return err
	}
	var samples []sample
	sub := &runResult{}
	if l.cfg.w.Kind == kindIngest {
		// The oracle copy is only mirrored into, never gated against.
		s.db = genDataset(l.ds, l.cfg.seed)
		out, err := s.runIngest(sub, ingestOpts{traced: true, firstID: firstNewID + 500_000})
		if err != nil {
			return err
		}
		for i, smp := range out.reader {
			if !out.apart[i] {
				samples = append(samples, smp)
			}
		}
		// Leave no WAL tail, so the reopen below is a clean one.
		c, err := dial(s.child.addr)
		if err != nil {
			return err
		}
		err = post(c, checkpointRequest(), nil)
		c.close()
		if err != nil {
			return err
		}
	} else {
		n := l.cfg.sc.ops(traceSample) / clients
		n = max(n/2*2, 2)
		logs, err := runClosed(s.child.addr, readSequences(l.cfg.w, domain, n, l.cfg.seed), true)
		if err != nil {
			return err
		}
		for _, lg := range logs {
			samples = append(samples, lg.samples...)
		}
		a, f := countFailed(logs)
		sub.Attempted, sub.Failed = a, f
	}
	l.res.Attempted += sub.Attempted
	l.res.Failed += sub.Failed
	after, err := s.child.stats()
	if err != nil {
		return err
	}
	rss, err := s.child.rssPeakMB()
	if err != nil {
		return err
	}
	s.child.kill()

	var rtt, overhead, server, reqBytes, respBytes []float64
	for i, smp := range samples {
		if !smp.ok {
			continue
		}
		id := l.tr.addSpan("http.roundtrip", 0, i+1, smp.start, smp.start+smp.rtt(), nil)
		// Where in the round trip the handler ran is not known, only for how long.
		l.tr.addSpan("pvserve.handler", id, i+1, smp.start, smp.start+smp.server, nil)
		rtt = append(rtt, us(smp.rtt()))
		overhead = append(overhead, us(smp.rtt()-smp.server))
		server = append(server, us(smp.server))
		reqBytes = append(reqBytes, float64(smp.req))
		respBytes = append(respBytes, float64(smp.resp))
	}
	srv := sortedCopy(server)
	l.p50("loadgen.traced_p50_us", "us", rtt)
	l.add("loadgen.traced_p99_us", "us", percentile(sortedCopy(rtt), 0.99), len(rtt))
	l.p50("pvserve.overhead_p50_us", "us", overhead)
	l.add("pvserve.server_p50_us", "us", percentile(srv, 0.5), len(srv))
	l.add("pvserve.server_p99_us", "us", percentile(srv, 0.99), len(srv))
	l.add("pvserve.req_bytes_mean", "B", mean(reqBytes), len(reqBytes))
	l.add("pvserve.resp_bytes_mean", "B", mean(respBytes), len(respBytes))
	l.add("proc.rss_peak_mb", "MB", rss, 1)
	l.add("proc.heap_alloc_mb", "MB", float64(after.Runtime.HeapAllocBytes)/1e6, 1)
	l.add("proc.num_gc", "count", float64(after.Runtime.NumGC-before.Runtime.NumGC), 1)
	l.add("proc.gc_pause_total_ms", "ms", 1e3*(after.Runtime.GCPauseTotalS-before.Runtime.GCPauseTotalS), 1)

	var d2 *pvoronoi.Durable
	id := l.tr.record("durable.open", 0, 0, func() { d2, err = pvoronoi.OpenDurable(copyDir, nil, pvoronoi.DefaultOptions()) })
	if err != nil {
		return fmt.Errorf("clean reopen: %w", err)
	}
	clean := l.tr.get(id).dur()
	rec := d2.Recovery()
	l.tr.get(id).Counts = map[string]float64{"replayed": float64(rec.Replayed), "rebuilt": 0}
	if err := d2.Close(); err != nil {
		return err
	}
	if rec.Replayed != 0 || rec.Rebuilt {
		return fmt.Errorf("clean reopen replayed %d updates (rebuilt %v); the directory was expected to hold a checkpoint and no tail", rec.Replayed, rec.Rebuilt)
	}
	l.add("durable.reopen_clean_s", "s", clean.Seconds(), 1)
	l.add("durable.replayed_updates", "count", float64(replayed), 1)
	// Recovery = checkpoint load + replay + the checkpoint OpenDurable writes
	// after a replay; the first and last are measured on their own above.
	l.add("durable.replay_ms_per_update", "ms", ms(recovery-clean-ckpt)/float64(max(replayed, 1)), replayed)
	return nil
}

// copyTree copies a directory of regular files and subdirectories.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, de os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if de.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
