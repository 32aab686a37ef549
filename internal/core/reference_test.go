package core

import (
	"pvoronoi/internal/domination"
	"pvoronoi/internal/geom"
)

// refShrinkExpand is the SE loop as it stood before the tester remembered
// anything between probes, verbatim: every plate is proved from scratch by
// the stateless RegionPrunable. The golden guards measure the cover-reusing
// loop's tightness and test count against it.
func refShrinkExpand(tester *domination.Tester, l, h geom.Rect, delta float64) (iterations, shrinks int) {
	if delta <= 0 {
		delta = 1e-9 // Δ=0 would loop forever on irrational boundaries
	}
	// slab is h with one face moved to the midplane for the duration of a
	// probe; the tester copies what it is handed.
	slab := h.Clone()
	for refMaxGap(l, h) >= delta {
		progressed := false
		for j := range h.Lo {
			// Low direction: candidate slab between h.Lo and the midplane.
			if h.Lo[j] < l.Lo[j] {
				mid := (h.Lo[j] + l.Lo[j]) / 2
				slab.Hi[j] = mid
				prunable := tester.RegionPrunable(slab)
				slab.Hi[j] = h.Hi[j]
				iterations++
				if prunable {
					h.Lo[j], slab.Lo[j] = mid, mid
					shrinks++
				} else {
					l.Lo[j] = mid
				}
				progressed = true
			}
			// High direction: candidate slab between the midplane and h.Hi.
			if h.Hi[j] > l.Hi[j] {
				mid := (h.Hi[j] + l.Hi[j]) / 2
				slab.Lo[j] = mid
				prunable := tester.RegionPrunable(slab)
				slab.Lo[j] = h.Lo[j]
				iterations++
				if prunable {
					h.Hi[j], slab.Hi[j] = mid, mid
					shrinks++
				} else {
					l.Hi[j] = mid
				}
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	return iterations, shrinks
}

func refMaxGap(l, h geom.Rect) float64 {
	var m float64
	for j := range l.Lo {
		if g := l.Lo[j] - h.Lo[j]; g > m {
			m = g
		}
		if g := h.Hi[j] - l.Hi[j]; g > m {
			m = g
		}
	}
	return m
}
