package core

import (
	"reflect"
	"runtime"
	"testing"
)

// workerCounts are the fan-out widths every invariance test compares: serial,
// two workers (forces real interleaving even on a 1-CPU host), four, and
// whatever the host actually has.
func workerCounts() []int {
	ws := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 1 && n != 2 && n != 4 {
		ws = append(ws, n)
	}
	return ws
}

// The parallel layer's contract is byte-identity, not mere closeness: every
// reduction happens in index order and every worker owns its mutable state,
// so the same bits must come out at any worker count. These tests pin that
// contract (and, under -race, double as data-race probes for the shared
// engine state).

func TestSampleLandscapeWorkerInvariance(t *testing.T) {
	c := smallCircuit(t)
	var ref *Landscape
	for _, w := range workerCounts() {
		p := problemFor(t, c, 0.5)
		opts := DefaultOptions()
		opts.Workers = w
		ls, err := p.SampleLandscape(6, 6, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if ref == nil {
			ref = ls
			continue
		}
		if !reflect.DeepEqual(ls, ref) {
			t.Errorf("workers=%d: landscape differs from serial grid", w)
		}
	}
}

func TestOptimizeJointRefineWorkerInvariance(t *testing.T) {
	c := smallCircuit(t)
	var ref *Result
	for _, w := range workerCounts() {
		p := problemFor(t, c, 0.5)
		opts := DefaultOptions()
		opts.Workers = w
		res, err := p.OptimizeJoint(opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		// Everything must match bit for bit — including the effort counter,
		// which speculative evaluation bills on-path only.
		if !reflect.DeepEqual(res, ref) {
			t.Errorf("workers=%d: result differs from serial\n got %+v\nwant %+v", w, res, ref)
		}
	}
}

func TestEDPStudyWorkerInvariance(t *testing.T) {
	c := smallCircuit(t)
	fcs := []float64{100e6, 200e6, 400e6}
	var refPts []EDPPoint
	refBest := -1
	for _, w := range workerCounts() {
		opts := DefaultOptions()
		opts.Workers = w
		pts, best, err := EDPStudy(specFor(c, 0.5), fcs, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if refPts == nil {
			refPts, refBest = pts, best
			continue
		}
		if best != refBest || !reflect.DeepEqual(pts, refPts) {
			t.Errorf("workers=%d: EDP sweep differs from serial", w)
		}
	}
}

func TestVariationStudyWorkerInvariance(t *testing.T) {
	c := smallCircuit(t)
	tols := []float64{0, 0.1, 0.2}
	var ref []VariationPoint
	for _, w := range workerCounts() {
		p := problemFor(t, c, 0.5)
		base, err := p.OptimizeBaseline(DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.Workers = w
		pts, err := p.VariationStudy(tols, opts, base)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if ref == nil {
			ref = pts
			continue
		}
		if !reflect.DeepEqual(pts, ref) {
			t.Errorf("workers=%d: variation sweep differs from serial", w)
		}
	}
}
