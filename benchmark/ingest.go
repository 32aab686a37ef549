package main

import (
	"fmt"
	"time"

	"pvoronoi/internal/dataset"
	"pvoronoi/internal/uncertain"
)

// ingestPlan is the fixed write sequence of ingest-durable-d2: primer
// batches (untimed, applied before the gate), then pairs of (insertbatch of
// batch new objects, deletebatch of the batch oldest inserted objects still
// live), with one /v1/checkpoint after pair ckptAfter. The
// primer keeps its objects' worth of inserts live at every moment, so the
// durability gate always has acknowledged inserts to look for.
type ingestPlan struct {
	primer    [][]*uncertain.Object
	inserts   [][]*uncertain.Object
	deletes   [][]*uncertain.Object
	ckptAfter int // pairs applied before the checkpoint
}

func planIngest(ds datasetSpec, db *uncertain.DB, primer, pairs, batch int, firstID uint32, seed int64) ingestPlan {
	objs := genObjects(ds, db.Domain, (primer+pairs)*batch, firstID, subSeed(seed, purposeUpdates))
	batches := make([][]*uncertain.Object, primer+pairs)
	for i := range batches {
		batches[i] = objs[i*batch : (i+1)*batch]
	}
	return ingestPlan{
		primer:  batches[:primer],
		inserts: batches[primer:],
		deletes: batches[:pairs], // oldest first: the primer, then earlier inserts
		// Late, so that the restart replays three pairs (96 updates of
		// both kinds) and recovery stays near 9 s however long the run is.
		ckptAfter: max(pairs-3, pairs/2),
	}
}

// liveAndDeleted returns the inserted objects that are live after the whole
// sequence and those it deleted.
func (p ingestPlan) liveAndDeleted() (live, deleted []*uncertain.Object) {
	all := append(append([][]*uncertain.Object{}, p.primer...), p.inserts...)
	for i, b := range all {
		if i < len(p.deletes) {
			deleted = append(deleted, b...)
		} else {
			live = append(live, b...)
		}
	}
	return live, deleted
}

func applyInsert(db *uncertain.DB, objs []*uncertain.Object) error {
	for _, o := range objs {
		if err := db.Add(o); err != nil {
			return err
		}
	}
	return nil
}

func applyDelete(db *uncertain.DB, objs []*uncertain.Object) error {
	for _, o := range objs {
		if _, err := db.Remove(o.ID); err != nil {
			return err
		}
	}
	return nil
}

// ingestOpts selects how runIngest is used: the end-to-end run gates and
// starts IDs at firstNewID; the traced replay skips the gate (the server
// already holds the in-process replay's objects, which the oracle copy does
// not) and shifts its IDs past them.
type ingestOpts struct {
	traced  bool
	gate    bool
	firstID uint32
}

// stallAfter is the service time beyond which a read counts as a stall: 100
// times the reader's median and 4 times its p99 at the commit that defined
// the benchmark.
const stallAfter = 50 * time.Millisecond

// ingestOut is what the timed sequence left behind.
type ingestOut struct {
	live, deleted []*uncertain.Object // inserted objects live / deleted at the end
	writer        []sample            // one per batch request, in order
	reader        []sample            // every read, in due order
	// apart[i] marks reader[i] as kept apart from the latency percentiles:
	// due during the checkpoint, stalled, or queued behind such a read.
	apart []bool
}

// runIngest applies the primer, gates, then runs the timed write sequence on
// one closed-loop connection beside an open-loop reader at readerRate. It
// mirrors every acknowledged batch into the oracle database.
func (s *served) runIngest(res *runResult, o ingestOpts) (*ingestOut, error) {
	cfg := s.cfg
	pairs := cfg.w.opCount(cfg.seconds, cfg.sc, 1)
	plan := planIngest(s.ds, s.db, primerPairs, pairs, batchSize, o.firstID, cfg.seed)

	wc, err := dial(s.child.addr)
	if err != nil {
		return nil, err
	}
	defer wc.close()
	for _, b := range plan.primer {
		if err := post(wc, insertBatchRequest(b), nil); err != nil {
			return nil, fmt.Errorf("primer: %w", err)
		}
		if err := applyInsert(s.db, b); err != nil {
			return nil, err
		}
	}
	if o.gate {
		if err := correctnessGate(s.child.addr, cfg.w, s.db, cfg.seed, gateOps); err != nil {
			return nil, err
		}
	}

	// Pre-encode the whole sequence before the clock starts.
	ins := make([]request, pairs)
	del := make([]request, pairs)
	for i := range ins {
		ins[i] = insertBatchRequest(plan.inserts[i])
		del[i] = deleteBatchRequest(plan.deletes[i])
	}
	ckpt := checkpointRequest()
	points := dataset.QueryPoints(s.db.Domain, 4096, subSeed(cfg.seed, purposeReader))
	reads := make([]request, len(points))
	for i, q := range points {
		reads[i] = queryRequest(opQuery, q)
	}

	epoch := time.Now()
	stop := make(chan struct{})
	type readerOut struct {
		samples []sample
		err     error
	}
	readerDone := make(chan readerOut, 1)
	go func() {
		samples, err := runOpen(s.child.addr, reads, readerRate, epoch, stop, o.traced)
		readerDone <- readerOut{samples, err}
	}()

	out := &ingestOut{}
	var winStart, winEnd [windows]time.Duration
	var ckptSample sample
	writerErr := func() error {
		// One connection, strictly insert batch then delete batch.
		timed := func(req request) (sample, error) {
			t0 := time.Now()
			status, body, err := wc.do(req.wire)
			smp := sample{kind: req.kind, lat: time.Since(t0), start: t0.Sub(epoch)}
			if err != nil {
				return smp, err
			}
			if !replyOK(req.kind, status, body) {
				return smp, fmt.Errorf("%s: status %d: %s", opPath[req.kind], status, body)
			}
			smp.ok = true
			if o.traced {
				smp.server = serverLatency(body)
				smp.req, smp.resp = req.body, len(body)
			}
			return smp, nil
		}
		win := -1
		for i := 0; i < pairs; i++ {
			if w := windowOf(i, pairs); w != win {
				now := time.Since(epoch)
				if win >= 0 {
					winEnd[win] = now
				}
				winStart[w] = now
				win = w
			}
			if i == plan.ckptAfter {
				var err error
				if ckptSample, err = timed(ckpt); err != nil {
					return err
				}
			}
			smp, err := timed(ins[i])
			if err != nil {
				return err
			}
			out.writer = append(out.writer, smp)
			if err := applyInsert(s.db, plan.inserts[i]); err != nil {
				return err
			}
			smp, err = timed(del[i])
			if err != nil {
				return err
			}
			out.writer = append(out.writer, smp)
			if err := applyDelete(s.db, plan.deletes[i]); err != nil {
				return err
			}
		}
		winEnd[win] = time.Since(epoch)
		return nil
	}()
	close(stop)
	reader := <-readerDone
	if writerErr != nil {
		return nil, fmt.Errorf("ingest writer: %w", writerErr)
	}
	if reader.err != nil {
		return nil, reader.err
	}
	out.reader = reader.samples
	out.live, out.deleted = plan.liveAndDeleted()

	// A window's clock is the sum of its batch round trips, so the
	// checkpoint request in the middle is not charged to update throughput.
	ups := make([]float64, windows)
	var insLat, delLat []float64
	for w := range ups {
		var busy time.Duration
		n := 0
		for i, smp := range out.writer {
			if windowOf(i, len(out.writer)) == w {
				busy += smp.lat
				n += batchSize
			}
		}
		ups[w] = float64(n) / busy.Seconds()
	}
	for _, smp := range out.writer {
		if smp.kind == opInsertBatch {
			insLat = append(insLat, ms(smp.lat))
		} else {
			delLat = append(delLat, ms(smp.lat))
		}
	}

	// The reader beside the writes: reads fall into the writer's windows by
	// due time. Two kinds of read are kept apart from p50/p99, because one or
	// two events per run would otherwise decide the whole tail and the tail
	// would repeat only within a factor of ten: reads due while the
	// checkpoint request was in flight, and stalls — a read that took longer
	// than stallAfter to serve — each with the reads queued behind it on the
	// reader's connection. Both are counted and reported on their own.
	ckptStart, ckptEnd := ckptSample.start, ckptSample.start+ckptSample.lat
	out.apart = make([]bool, len(out.reader))
	byWindow := make([][]float64, windows)
	var late, all []float64
	var ckptStall, worstStall time.Duration
	stalls, failedReads := 0, 0
	for i, smp := range out.reader {
		if !smp.ok {
			failedReads++
		}
		all = append(all, us(smp.lat))
		service := smp.rtt()
		inCkpt := smp.start >= ckptStart && smp.start < ckptEnd
		out.apart[i] = inCkpt || service > stallAfter || (i > 0 && out.apart[i-1] && smp.queued)
		switch {
		case inCkpt:
			ckptStall = max(ckptStall, service)
		case service > stallAfter:
			stalls++
			worstStall = max(worstStall, service)
			logf("ingest: read due at %.0f ms stalled for %.0f ms (checkpoint ran %.0f–%.0f ms)", ms(smp.start), ms(service), ms(ckptStart), ms(ckptEnd))
		}
		if out.apart[i] {
			continue
		}
		late = append(late, us(smp.late))
		for w := range byWindow {
			if smp.ok && smp.start >= winStart[w] && smp.start < winEnd[w] {
				byWindow[w] = append(byWindow[w], us(smp.lat))
			}
		}
	}
	res.Attempted += len(out.writer) + len(out.reader)
	res.Failed += failedReads
	res.Metrics = append(res.Metrics,
		fromWindows("ops_per_s", "1/s", ups, batchSize*len(out.writer), true),
		quantileMetric("p50_us", "us", byWindow, 0.50),
	)
	res.Detail = append(res.Detail,
		quantileMetric("p99_us", "us", byWindow, 0.99),
		metric{Name: "insert_batch_p50_ms", Unit: "ms", Value: median(insLat), Samples: len(insLat)},
		metric{Name: "delete_batch_p50_ms", Unit: "ms", Value: median(delLat), Samples: len(delLat)},
		single("checkpoint_ms", "ms", ms(ckptSample.lat)),
		single("checkpoint_reader_stall_ms", "ms", ms(ckptStall)),
		single("reader_stalls", "count", float64(stalls)),
		single("reader_stall_max_ms", "ms", ms(worstStall)),
		metric{Name: "reader_all_p99_us", Unit: "us", Value: percentile(sortedCopy(all), 0.99), Samples: len(all)},
		metric{Name: "reader_late_p50_us", Unit: "us", Value: percentile(sortedCopy(late), 0.50), Samples: len(late)},
		metric{Name: "reader_late_p99_us", Unit: "us", Value: percentile(sortedCopy(late), 0.99), Samples: len(late)},
	)
	return out, nil
}
