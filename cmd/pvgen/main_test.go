package main

import (
	"strings"
	"testing"

	"pvoronoi/internal/geom"
)

// TestGeneratorDimensionBound: a synthetic -d outside [1, geom.MaxDim] is
// refused before anything is generated, so pvgen never writes a file no
// loader accepts; both ends of the range are accepted, and the real
// datasets ignore -d.
func TestGeneratorDimensionBound(t *testing.T) {
	for _, d := range []int{-1, 0, 1, geom.MaxDim, geom.MaxDim + 1} {
		db, err := generate("", 4, d, 60, 5, 1, false)
		if ok := d >= 1 && d <= geom.MaxDim; !ok {
			if err == nil || !strings.Contains(err.Error(), "dimension") {
				t.Errorf("-d %d: generate returned %v", d, err)
			}
		} else if err != nil {
			t.Errorf("-d %d: %v", d, err)
		} else if db.Dim() != d {
			t.Errorf("-d %d: generate returned a %d-d database", d, db.Dim())
		}
	}
	if _, err := generate("airports", 20, geom.MaxDim+1, 60, 5, 1, false); err != nil {
		t.Errorf("real dataset with an unused -d: %v", err)
	}
}
