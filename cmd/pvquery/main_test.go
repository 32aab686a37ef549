package main

import (
	"strings"
	"testing"

	"pvoronoi/internal/geom"
)

// TestGeneratorDimensionBound: -d outside [1, geom.MaxDim] is refused before
// anything is generated or built (the generator would otherwise turn d <= 0
// into 3); both ends of the range are accepted.
func TestGeneratorDimensionBound(t *testing.T) {
	for _, d := range []int{-1, 0, 1, geom.MaxDim, geom.MaxDim + 1} {
		db, err := loadOrGenerate("", 4, d, 60, 5, 1)
		if ok := d >= 1 && d <= geom.MaxDim; !ok {
			if err == nil || !strings.Contains(err.Error(), "dimension") {
				t.Errorf("-d %d: loadOrGenerate returned %v", d, err)
			}
		} else if err != nil {
			t.Errorf("-d %d: %v", d, err)
		} else if db.Dim() != d {
			t.Errorf("-d %d: loadOrGenerate returned a %d-d database", d, db.Dim())
		}
	}
}
