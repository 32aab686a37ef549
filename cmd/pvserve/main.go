// Command pvserve serves probabilistic nearest neighbor queries over a
// PV-index via an HTTP JSON API — the concurrent serving layer on top of the
// index of Zhang et al., ICDE 2013. Any number of in-flight queries evaluate
// in parallel against the shared index; insert and delete requests apply the
// paper's incremental maintenance and serialize as exclusive writers.
//
// Usage:
//
//	pvserve -n 20000 -d 2                      # synthetic dataset, port 8080
//	pvserve -data roads.gob -addr :9000        # dataset from pvgen
//	pvserve -loadindex ix.pvidx -data d.gob    # pre-built index from pvquery
//	pvserve -n 20000 -data-dir /var/lib/pv     # durable: WAL + checkpoints
//
// In durable mode (-data-dir) every insert/delete is appended to a
// write-ahead log and fsynced before it is acknowledged; on restart the
// server loads the newest checkpoint that passes checksum verification
// (falling back to an older retained one if the newest is corrupt) and
// replays the log's tail, so no acknowledged update is ever lost. A WAL
// write failure (disk full, fsync error) puts the server in degraded
// read-only mode — queries keep serving, writes get 503 — until a
// successful POST /v1/checkpoint re-arms the write path. SIGINT/SIGTERM
// trigger a graceful shutdown: in-flight queries drain, and a final
// checkpoint is written.
//
// Writes fan their SE jobs out on the index's SE pool, as wide as
// GOMAXPROCS was when the index was built or opened, and each write route's
// call runs with GOMAXPROCS one above that: the spare P never runs an SE
// job, it waits in the network poller, so a read arriving mid-fan-out is
// picked up at once and the OS time-slices it against SE instead of the
// read waiting for the fan-out to end. The raise is counted across
// concurrent writes and undone when the last one returns; reads never
// change GOMAXPROCS, and /v1/stats reports the value without the spare P.
//
// Endpoints (request and response bodies are JSON):
//
//	POST /v1/query             {"point":[x,y,...]}  full PNNQ, exact Step 2 (an "eps" field is ignored)
//	POST /v1/possiblenn        {"point":[...]}  PNNQ Step 1 only (index retrieval, no pdf math)
//	POST /v1/possibleknn       {"point":[...], "k":3}  k-NN membership probabilities (k defaults to 1)
//	POST /v1/possibleknnbatch  {"points":[[...],...], "k":3}  possibleknn over a worker pool
//	POST /v1/possiblernn       {"point":[...]}  reverse-NN candidates
//	POST /v1/groupnn           {"points":[[...],...], "agg":"sum"|"max"}  probabilistic group NN
//	POST /v1/groupnnbatch      {"groups":[[[...],...],...], "agg":"max"}  groupnn over a worker pool
//	POST /v1/insert            {"id":1, "region":{"lo":[...],"hi":[...]}, "instances":[{"pos":[...],"prob":0.5},...]}
//	                           or "sample":{"kind":"uniform"|"gaussian", "n":100, "seed":1} for instances
//	POST /v1/delete            {"id":1}
//	POST /v1/insertbatch       {"objects":[{insert body},...]}  one group commit, one WAL fsync
//	POST /v1/deletebatch       {"ids":[1,2,...]}  one group commit, one WAL fsync
//	POST /v1/checkpoint        force a durable snapshot (durable mode only, 409 otherwise)
//	GET  /v1/stats             per-endpoint latency percentiles, leaf I/O, counts, refinement counters
//	GET  /v1/healthz           {"status":"ok"} or {"status":"degraded","cause":...}
//	GET  /healthz              liveness probe (same JSON)
//
// The bodies of /v1/insert and /v1/insertbatch are read by a strict reader
// (insertbody.go) that takes exactly the body an encoder writes — the keys
// objects, id, region, lo, hi, instances, pos and prob, each once — in one
// pass, with no reflection; on any other body it gives up and encoding/json
// decodes it, as it decodes every other route's. Both paths build the
// objects the same way, one position array per object, so a body is
// accepted or refused exactly as encoding/json would.
//
// Writes, the two batches and /v1/checkpoint are POST-only (405 otherwise);
// the five single queries take any method, and a GET reads ?point=x,y,....
// The first eleven routes share one handler (server.go's routeTable): a
// malformed request — wrong dimension, non-finite coordinate, k < 1, unknown
// agg, empty list or group, and for /v1/query and /v1/possiblenn a point
// outside the domain — is 400; 409 is a duplicate insert, 404 an unknown
// delete, 503 a write while degraded, 504 an expired -request-timeout; any
// other failure is 400 for a write and 500 for a query.
//
// Every response carries its own server-side latency in microseconds, and a
// single query's also the exact number of index leaf pages it read;
// /v1/stats aggregates both into p50/p95/p99 and means. A batch reply names
// where its time went (se_us, index_us, and refine_us, the share of se_us
// spent escalating fat rows). A write reply's affected counts the rows
// whose UBR was recomputed, unchanged those of them that came back as they
// were — for an insert, chiefly the rows the newcomers alone cut nothing from,
// which keep their witness lists too — and examined the rows the update's filter
// looked at — an insert's window, of which Lemma 8 keeps the affected; a
// delete recomputes every row that lists the victim as a witness, so its
// examined equals its affected.
// /v1/stats' refine block holds the refinement subsystem's lifetime
// counters, all atomics, so the route stays cheap to poll.
//
// Try it:
//
//	pvserve -n 5000 -d 2 &
//	curl 'localhost:8080/v1/query?point=5000,5000'
//	curl -d '{"point":[5000,5000]}' localhost:8080/v1/query
//	curl localhost:8080/v1/stats
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pvoronoi"
	"pvoronoi/internal/dataset"
	"pvoronoi/internal/geom"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		data      = flag.String("data", "", "dataset file from pvgen (omit to generate synthetic in-process)")
		n         = flag.Int("n", 20000, "object count for in-process generation")
		d         = flag.Int("d", 2, "dimensionality for in-process generation")
		uo        = flag.Float64("uo", 60, "max |u(o)| for in-process generation")
		instances = flag.Int("instances", 100, "pdf samples for in-process generation")
		seed      = flag.Int64("seed", 1, "generator seed")
		strategy  = flag.String("cset", "is", "C-set strategy: all | fs | is")
		loadIdx   = flag.String("loadindex", "", "load a pvquery-saved index instead of building")
		dataDir   = flag.String("data-dir", "", "durable mode: directory for WAL + checkpoints (recovers on boot)")
		drain     = flag.Duration("shutdown-timeout", 15*time.Second, "graceful shutdown drain window")
		reqTO     = flag.Duration("request-timeout", 30*time.Second, "per-request deadline propagated into batch query pools (0 = none)")
		inflight  = flag.Int("max-inflight", 1024, "admission bound: beyond this many in-flight requests new ones get 503 (0 = unlimited)")
		retain    = flag.Int("checkpoint-retain", 0, "checkpoints kept on disk for corruption fallback (0 = default 2)")
	)
	flag.Parse()

	opts := pvoronoi.DefaultOptions()
	switch strings.ToLower(*strategy) {
	case "all":
		opts.Strategy = pvoronoi.CSetAll
	case "fs":
		opts.Strategy = pvoronoi.CSetFS
	case "is":
		opts.Strategy = pvoronoi.CSetIS
	default:
		fail(fmt.Errorf("unknown C-set strategy %q", *strategy))
	}
	opts.CheckpointRetain = *retain

	// The bootstrap dataset: served directly in memory mode, the validation
	// set in -loadindex mode, and the first-boot (or pre-first-checkpoint
	// recovery) input in durable mode — which is why durable restarts must
	// see the same -data/-n/-seed flags. A durable restart with an existing
	// checkpoint recovers from its own stored data, so the bootstrap load
	// is skipped entirely.
	var db *pvoronoi.DB
	if *dataDir == "" || !pvoronoi.HasCheckpoint(*dataDir) {
		var err error
		db, err = loadOrGenerate(*data, *n, *d, *uo, *instances, *seed)
		if err != nil {
			fail(err)
		}
	}

	var (
		srv     *server
		ix      *pvoronoi.Index
		durable *pvoronoi.Durable
	)
	switch {
	case *dataDir != "":
		if *loadIdx != "" {
			fail(fmt.Errorf("-data-dir and -loadindex are mutually exclusive (the data directory carries its own snapshots)"))
		}
		log.Printf("opening durable index in %s...", *dataDir)
		t0 := time.Now()
		var err error
		durable, err = pvoronoi.OpenDurable(*dataDir, db, opts)
		if err != nil {
			fail(err)
		}
		rec := durable.Recovery()
		if len(rec.CorruptCheckpoints) > 0 {
			log.Printf("WARNING: checkpoint(s) %s failed verification; fell back to %s",
				strings.Join(rec.CorruptCheckpoints, ", "), rec.UsedCheckpoint)
		}
		if rec.DroppedWALRecords > 0 {
			log.Printf("WARNING: %d acknowledged WAL records lost to log corruption (%d torn bytes)",
				rec.DroppedWALRecords, rec.TornWALBytes)
		}
		switch {
		case rec.Rebuilt && rec.Replayed > 0:
			log.Printf("rebuilt from bootstrap data and replayed %d WAL updates in %v",
				rec.Replayed, time.Since(t0).Round(time.Millisecond))
		case rec.Rebuilt:
			log.Printf("built fresh durable index over %d objects in %v",
				durable.Len(), time.Since(t0).Round(time.Millisecond))
		default:
			log.Printf("recovered checkpoint at WAL seq %d (+%d replayed updates) in %v",
				rec.SnapshotSeq, rec.Replayed, time.Since(t0).Round(time.Millisecond))
		}
		ix = durable.Index
		srv = newDurableServer(durable)

	case *loadIdx != "":
		f, err := os.Open(*loadIdx)
		if err != nil {
			fail(err)
		}
		t0 := time.Now()
		ix, err = pvoronoi.LoadIndex(f, db)
		f.Close()
		if err != nil {
			fail(err)
		}
		log.Printf("loaded index over %d objects in %v", db.Len(), time.Since(t0).Round(time.Millisecond))
		srv = newServer(ix)

	default:
		log.Printf("building PV-index over %d objects (d=%d, strategy=%s)...",
			db.Len(), db.Dim(), strings.ToUpper(*strategy))
		t0 := time.Now()
		var err error
		ix, err = pvoronoi.BuildParallel(db, opts, 0)
		if err != nil {
			fail(err)
		}
		log.Printf("built in %v", time.Since(t0).Round(time.Millisecond))
		srv = newServer(ix)
	}

	srv.reqTimeout = *reqTO
	srv.maxInflight = *inflight

	domain := ix.DB().Domain
	log.Printf("serving on %s (domain %v – %v)", *addr, domain.Lo, domain.Hi)

	httpSrv := &http.Server{Addr: *addr, Handler: srv.routes()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		fail(err)
	case <-ctx.Done():
		stop()
		log.Printf("shutdown signal received; draining in-flight requests (up to %v)...", *drain)
		dctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(dctx); err != nil {
			log.Printf("drain incomplete: %v", err)
		}
		if durable != nil {
			log.Printf("writing final checkpoint...")
			if err := durable.Close(); err != nil {
				log.Printf("final checkpoint failed: %v", err)
				os.Exit(1)
			}
			log.Printf("checkpoint complete at WAL seq %d", durable.WALSeq())
		}
		log.Printf("bye")
	}
}

func loadOrGenerate(path string, n, d int, uo float64, instances int, seed int64) (*pvoronoi.DB, error) {
	if path != "" {
		return dataset.Load(path)
	}
	if err := geom.CheckDim(d); err != nil {
		return nil, fmt.Errorf("-d: %w", err)
	}
	return dataset.Synthetic(dataset.SyntheticParams{
		N: n, Dim: d, MaxSide: uo, Instances: instances, Seed: seed,
	}), nil
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "pvserve: %v\n", err)
	os.Exit(1)
}
