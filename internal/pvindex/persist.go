package pvindex

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"pvoronoi/internal/core"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/pagestore"
	"pvoronoi/internal/uncertain"
)

// persistMagic names the image format SaveTo writes: PVIDX7 holds no octree,
// which a load rebuilds from the UBR table. LoadFrom reads it and PVIDX6,
// whose octree pages and skeleton gob skips.
const (
	persistMagic = "PVIDX7"
	pagedMagic   = "PVIDX6"
)

// rebuildMagic names the older format Rebuild starts from.
const rebuildMagic = "PVIDX5"

// ErrOldImage marks an image LoadFrom refuses for its format alone: Rebuild
// builds the index anew over the same database, at the image's WAL position.
var ErrOldImage = errors.New("pvindex: image of an older format")

// indexImage is the serializable state of an index: its configuration, its
// WAL position, the UBR table and the witness lists, every list ascending by
// ID, so the same state always saves the same bytes. The octree is derived
// from the UBR table and not saved. Older images may also carry octree pages
// and a skeleton (PVIDX6), a refinement cutoff, a refinement config or an
// adjacency graph, all of which gob skips.
type indexImage struct {
	Magic     string
	SE        core.Options
	MemBudget int
	Fanout    int
	Objects   int
	WALSeq    uint64
	// Pages holds the page size alone, under the name of PVIDX6's page
	// store, whose other fields gob skips.
	Pages *struct{ PageSize int }
	UBRs  *ubrImage
	// Witnesses holds the rows' witness lists; their reverse index, which
	// older images also carry, is derived on load.
	Witnesses *listsImage
}

// SaveTo serializes the index (configuration, UBR table and witness lists)
// to w. The database itself is not written — it is the caller's input at
// load time, matching the paper's separation of data and access structure.
// Durable deployments that must also persist the data use SnapshotWith,
// which saves both from one pinned version.
//
// Serialization pins the current version and runs entirely off-lock:
// writers publish new versions freely while the pinned one streams out.
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
	img := indexImage{
		Magic:     persistMagic,
		SE:        ix.cfg.SE,
		MemBudget: ix.cfg.MemBudget,
		Fanout:    ix.cfg.Fanout,
		Objects:   v.db.Len(),
		WALSeq:    v.walSeq,
		Pages:     &struct{ PageSize int }{ix.store.PageSize()},
		UBRs:      v.ubrs.image(),
		Witnesses: v.witnesses.image(),
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
// cardinality and by per-object UBR presence). The image's UBR table and
// witness lists are checked and adopted; the reverse index and the octree
// are derived as a build derives them. A PVIDX5 image is refused with
// ErrOldImage.
func LoadFrom(r io.Reader, db *uncertain.DB) (*Index, error) {
	if err := geom.CheckDim(db.Dim()); err != nil {
		return nil, fmt.Errorf("pvindex: load: %w", err)
	}
	var img indexImage
	if err := gob.NewDecoder(r).Decode(&img); err != nil {
		return nil, fmt.Errorf("pvindex: decoding index image: %w", err)
	}
	switch {
	case img.Magic == rebuildMagic:
		return nil, fmt.Errorf("%w: %q, this build reads only %q and %q (a durable directory rebuilds the index from the checkpoint's database)", ErrOldImage, img.Magic, persistMagic, pagedMagic)
	case img.Magic != persistMagic && img.Magic != pagedMagic:
		return nil, fmt.Errorf("pvindex: image magic is %q, this build reads only %q and %q (a durable directory treats such a checkpoint as corrupt: it falls back to an older one, and refuses to open when none loads)", img.Magic, persistMagic, pagedMagic)
	case img.Objects != db.Len():
		return nil, fmt.Errorf("pvindex: index was built over %d objects, database has %d", img.Objects, db.Len())
	case img.Pages == nil || img.Pages.PageSize <= 0:
		return nil, fmt.Errorf("pvindex: image has no page size")
	}
	ix := newIndex(Config{Store: pagestore.New(img.Pages.PageSize), MemBudget: img.MemBudget, Fanout: img.Fanout, SE: img.SE}, 0)
	w, err := ix.bootstrapWorking(db)
	if err != nil {
		return nil, err
	}
	// Every database object has exactly one UBR.
	if w.ubrs, err = ubrsFromImage(img.UBRs, db); err != nil {
		return nil, fmt.Errorf("pvindex: image UBRs: %w", err)
	}
	w.witnesses, err = listsFromImage(img.Witnesses)
	if err == nil {
		err = checkWitnesses(db, w.witnesses)
	}
	if err != nil {
		return nil, fmt.Errorf("pvindex: image witnesses: %w", err)
	}
	if err := ix.install(w, img.WALSeq); err != nil {
		return nil, err
	}
	return ix, nil
}

// Rebuild builds the index anew over db from the configuration of an image
// LoadFrom refuses with ErrOldImage, on an SE pool of workers (GOMAXPROCS
// when workers <= 0), and starts it at the image's WAL position: replaying
// the log after that position brings it to the state the image's index had
// reached, up to SE's path dependence. db must be the image's object set.
func Rebuild(r io.Reader, db *uncertain.DB, workers int) (*Index, error) {
	var img struct {
		Magic     string
		SE        core.Options
		MemBudget int
		Fanout    int
		Objects   int
		WALSeq    uint64
		Store     *struct{ PageSize int }
	}
	if err := gob.NewDecoder(r).Decode(&img); err != nil {
		return nil, fmt.Errorf("pvindex: decoding index image: %w", err)
	}
	switch {
	case img.Magic != rebuildMagic:
		return nil, fmt.Errorf("pvindex: rebuild from an image of magic %q, want %q", img.Magic, rebuildMagic)
	case img.Objects != db.Len():
		return nil, fmt.Errorf("pvindex: index was built over %d objects, database has %d", img.Objects, db.Len())
	case img.Store == nil || img.Store.PageSize <= 0:
		return nil, fmt.Errorf("pvindex: image has no page size")
	}
	cfg := Config{Store: pagestore.New(img.Store.PageSize), MemBudget: img.MemBudget, Fanout: img.Fanout, SE: img.SE}
	return buildParallel(db, cfg, workers, img.WALSeq)
}
