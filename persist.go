package pvoronoi

import (
	"io"

	"pvoronoi/internal/pvindex"
)

// Save serializes the index — its configuration, UBRs and witness lists — to
// w. The database itself is not included; supply the same object set to
// LoadIndex. The octree is not saved either: LoadIndex bulk-loads it from
// the UBRs, as a build does.
func (ix *Index) Save(w io.Writer) error {
	return ix.inner.SaveTo(w)
}

// LoadIndex reconstructs a previously saved index over db. The database
// must contain exactly the objects the index was built on (validated on
// load). The loaded index answers queries identically to the original and
// continues to support incremental Insert/Delete.
func LoadIndex(r io.Reader, db *DB) (*Index, error) {
	inner, err := pvindex.LoadFrom(r, db)
	if err != nil {
		return nil, err
	}
	return &Index{inner: inner}, nil
}

// BuildParallel constructs the index like Build but computes UBRs with the
// given number of workers (GOMAXPROCS when workers <= 0), the width every
// later write's SE fan-out keeps. Results are identical to Build;
// construction is near-linearly faster on multicore machines — the
// bulk-loading direction from the paper's conclusion.
func BuildParallel(db *DB, opts Options, workers int) (*Index, error) {
	inner, err := pvindex.BuildParallel(db, opts.toConfig(), workers)
	if err != nil {
		return nil, err
	}
	return &Index{inner: inner}, nil
}
