package main

import (
	"fmt"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a tail read from fewer points is mostly the maximum.
const minBeyond = 10

// tailLevels are the percentiles, in permille, a tail may be reported at,
// highest first. p90 needs 100 samples, p99 a thousand.
var tailLevels = []int{999, 990, 950, 900, 750}

// rankOf is the one-based nearest rank of the permille-th percentile of n
// samples: ceil(permille·n/1000), clamped to [1, n]. Integer arithmetic keeps
// p90 of 100 samples at rank 90, where float 0.9·100 would round up to 91.
func rankOf(permille, n int) int {
	r := (permille*n + 999) / 1000
	return min(max(r, 1), n)
}

// dist is a sorted sample of one timing or size.
type dist []float64

func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

// at returns the nearest-rank permille-th percentile; the sample must not be
// empty.
func (d dist) at(permille int) float64 { return d[rankOf(permille, len(d))-1] }

// p50 is the nearest-rank median, or 0 for an empty sample.
func (d dist) p50() float64 {
	if len(d) == 0 {
		return 0
	}
	return d.at(500)
}

// supports reports whether at least minBeyond samples lie above the
// permille-th percentile.
func (d dist) supports(permille int) bool {
	return len(d) > 0 && len(d)-rankOf(permille, len(d)) >= minBeyond
}

// p90 is the nearest-rank 90th percentile. It refuses (ok false) below 100
// samples, where fewer than ten points would lie beyond it.
func (d dist) p90() (v float64, ok bool) {
	if !d.supports(900) {
		return 0, false
	}
	return d.at(900), true
}

// tail returns the highest percentile in tailLevels with at least minBeyond
// samples above it.
func (d dist) tail() (permille int, v float64, ok bool) {
	for _, q := range tailLevels {
		if d.supports(q) {
			return q, d.at(q), true
		}
	}
	return 0, 0, false
}

// describe renders the median and the supported tail with the sample count,
// e.g. "p50 41.2 ms, p95 63.0 ms (n=212)".
func (d dist) describe(unit string) string {
	if len(d) == 0 {
		return "no samples"
	}
	s := fmt.Sprintf("p50 %.4g %s", d.p50(), unit)
	if q, v, ok := d.tail(); ok {
		s += fmt.Sprintf(", %s %.4g %s", pctName(q), v, unit)
	} else {
		s += ", no tail (fewer than 11 samples)"
	}
	return s + fmt.Sprintf(" (n=%d)", len(d))
}

// pctName spells a permille level as a percentile: 900 → "p90", 999 → "p99.9".
func pctName(permille int) string {
	if permille%10 == 0 {
		return fmt.Sprintf("p%d", permille/10)
	}
	return fmt.Sprintf("p%.1f", float64(permille)/10)
}

// median of an unsorted sample (0 when empty).
func median(xs []float64) float64 { return newDist(xs).p50() }

// mean of a sample (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
