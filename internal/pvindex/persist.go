package pvindex

import (
	"encoding/gob"
	"fmt"
	"io"
	"runtime"

	"pvoronoi/internal/core"
	"pvoronoi/internal/exthash"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/octree"
	"pvoronoi/internal/pagestore"
	"pvoronoi/internal/rtree"
	"pvoronoi/internal/uncertain"
)

// persistMagic names the one image format LoadFrom reads and SaveTo writes:
// PVIDX5 carries the witness lists, which a PVIDX4 image lacks.
const persistMagic = "PVIDX5"

// indexImage bundles the serializable state of all index layers. Images may
// also carry a refinement cutoff, a refinement config or an adjacency graph
// from older builds, which gob skips: refinement keeps no state.
type indexImage struct {
	Magic     string
	SE        core.Options
	MemBudget int
	Fanout    int
	Objects   int
	WALSeq    uint64
	Store     *pagestore.Image
	Primary   *octree.Image
	Secondary *exthash.Image
	// Witnesses holds the rows' witness lists, Witnessed their reverse index.
	Witnesses, Witnessed *listsImage
}

// SaveTo serializes the index (page store, octree skeleton, hash directory,
// and configuration) to w. The database itself is not written — it is the
// caller's input at load time, matching the paper's separation of data and
// access structure. Durable deployments that must also persist the data use
// SnapshotWith, which saves both from one pinned version.
//
// Serialization pins the current version and runs entirely off-lock:
// writers publish new versions freely while the pinned one streams out, and
// only the pages reachable from the pinned version are captured (a page a
// writer shadow-copies mid-save is still intact in the pinned version).
func (ix *Index) SaveTo(w io.Writer) error {
	v := ix.pin()
	defer ix.unpin(v)
	return ix.saveVersion(w, v)
}

// saveVersion serializes one pinned version.
func (ix *Index) saveVersion(w io.Writer, v *version) error {
	if err := ix.damagedErr(); err != nil {
		return fmt.Errorf("pvindex: refusing to snapshot a damaged index: %w", err)
	}
	pages, err := v.primary.CollectPages(nil)
	if err != nil {
		return err
	}
	pages, err = v.secondary.CollectPages(pages)
	if err != nil {
		return err
	}
	// The image borrows the pinned pages, so it is encoded here, before the
	// caller unpins v.
	storeImg, err := ix.store.ImageOf(pages)
	if err != nil {
		return err
	}
	img := indexImage{
		Magic:     persistMagic,
		SE:        ix.cfg.SE,
		MemBudget: ix.cfg.MemBudget,
		Fanout:    ix.cfg.Fanout,
		Objects:   v.db.Len(),
		WALSeq:    v.walSeq,
		Store:     storeImg,
		Primary:   v.primary.Image(),
		Secondary: v.secondary.Image(),
		Witnesses: v.witnesses.image(),
		Witnessed: v.witnessed.image(),
	}
	return gob.NewEncoder(w).Encode(&img)
}

// SnapshotWith writes a mutually consistent snapshot pair from one pinned
// version: fn runs first (typically saving the database), then the index
// image is written to w. Both read the same immutable version, so no writer
// can slip an update between the database's state and the index's — the
// invariant a durable checkpoint depends on — and neither holds any lock:
// writers keep committing while the checkpoint streams.
func (ix *Index) SnapshotWith(w io.Writer, fn func(db *uncertain.DB) error) (walSeq uint64, err error) {
	v := ix.pin()
	defer ix.unpin(v)
	if err := ix.damagedErr(); err != nil {
		return 0, fmt.Errorf("pvindex: refusing to snapshot a damaged index: %w", err)
	}
	if fn != nil {
		if err := fn(v.db); err != nil {
			return 0, err
		}
	}
	if err := ix.saveVersion(w, v); err != nil {
		return 0, err
	}
	return v.walSeq, nil
}

// LoadFrom reconstructs an index from r over the given database. The
// database must be the same object set the index was built on (checked by
// cardinality and by per-object UBR presence).
func LoadFrom(r io.Reader, db *uncertain.DB) (*Index, error) {
	if err := geom.CheckDim(db.Dim()); err != nil {
		return nil, fmt.Errorf("pvindex: load: %w", err)
	}
	var img indexImage
	if err := gob.NewDecoder(r).Decode(&img); err != nil {
		return nil, fmt.Errorf("pvindex: decoding index image: %w", err)
	}
	if img.Magic != persistMagic {
		return nil, fmt.Errorf("pvindex: image magic is %q, this build reads only %q (a durable directory treats such a checkpoint as corrupt: it falls back to an older one, and refuses to open when none loads)", img.Magic, persistMagic)
	}
	if img.Objects != db.Len() {
		return nil, fmt.Errorf("pvindex: index was built over %d objects, database has %d", img.Objects, db.Len())
	}
	switch {
	case img.Store == nil:
		return nil, fmt.Errorf("pvindex: image has no page store")
	case img.Primary == nil:
		return nil, fmt.Errorf("pvindex: image has no primary index")
	case img.Secondary == nil:
		return nil, fmt.Errorf("pvindex: image has no secondary index")
	}
	store, err := pagestore.FromImage(img.Store)
	if err != nil {
		return nil, err
	}
	ix := &Index{
		store: store,
		pool:  runtime.GOMAXPROCS(0),
		cfg: Config{
			Store:     store,
			MemBudget: img.MemBudget,
			Fanout:    img.Fanout,
			SE:        img.SE,
		},
	}
	ix.initRuntime()
	secondary, err := exthash.FromImage(store, img.Secondary)
	if err != nil {
		return nil, err
	}
	// The loaded octree's lookup reads record headers from the secondary
	// index directly; it is only consulted by mutations, which run on
	// CloneCOW descendants wired to the writer's own view.
	lookup := func(id uint32) (geom.Rect, bool) { return storedUBR(secondary, id, db.Dim()) }
	primary, err := octree.FromImage(store, lookup, img.Primary)
	if err != nil {
		return nil, err
	}
	fanout := img.Fanout
	if fanout <= 0 {
		fanout = rtree.DefaultFanout
	}
	regionTree := buildRegionTree(db, fanout)

	// Sanity: every database object must have a stored record.
	for _, o := range db.Objects() {
		if _, ok := lookup(uint32(o.ID)); !ok {
			return nil, fmt.Errorf("pvindex: object %d missing from loaded index", o.ID)
		}
	}
	witnesses, err := listsFromImage(img.Witnesses)
	var witnessed *idLists
	if err == nil {
		witnessed, err = listsFromImage(img.Witnessed)
	}
	if err == nil {
		err = checkWitnesses(db, witnesses, witnessed)
	}
	if err != nil {
		return nil, fmt.Errorf("pvindex: image witnesses: %w", err)
	}

	ix.current.Store(&version{
		epoch:      1,
		walSeq:     img.WALSeq,
		db:         db,
		primary:    primary,
		secondary:  secondary,
		regionTree: regionTree,
		witnesses:  witnesses,
		witnessed:  witnessed,
	})
	return ix, nil
}
