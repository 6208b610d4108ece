package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed: newDist must sort
	}
	return xs
}

func TestNearestRank(t *testing.T) {
	d := newDist(seq(100))
	for _, c := range []struct {
		permille int
		want     float64
	}{{500, 50}, {750, 75}, {900, 90}, {990, 99}, {999, 100}} {
		if got := d.at(c.permille); got != c.want {
			t.Errorf("%s of 1..100 = %v, want %v", pctName(c.permille), got, c.want)
		}
	}
	if got := newDist([]float64{3, 1, 2}).p50(); got != 2 {
		t.Errorf("median of {1,2,3} = %v, want 2", got)
	}
	if got := newDist([]float64{1, 2, 3, 4}).p50(); got != 2 {
		t.Errorf("nearest-rank median of {1,2,3,4} = %v, want 2 (rank ceil(0.5*4))", got)
	}
	if got := newDist(nil).p50(); got != 0 {
		t.Errorf("median of no samples = %v, want 0", got)
	}
}

func TestP90NeedsHundredSamples(t *testing.T) {
	if _, ok := newDist(seq(99)).p90(); ok {
		t.Error("p90 printed from 99 samples; fewer than ten would lie beyond it")
	}
	v, ok := newDist(seq(100)).p90()
	if !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
}

func TestTailIsHighestWithTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n        int
		permille int
	}{{1000, 990}, {999, 950}, {200, 950}, {199, 900}, {100, 900}, {50, 750}, {40, 750}} {
		q, _, ok := newDist(seq(c.n)).tail()
		if !ok || q != c.permille {
			t.Errorf("n=%d: tail %s (ok %v), want %s", c.n, pctName(q), ok, pctName(c.permille))
		}
		if beyond := c.n - rankOf(q, c.n); beyond < minBeyond {
			t.Errorf("n=%d: %d samples beyond %s", c.n, beyond, pctName(q))
		}
	}
	if _, _, ok := newDist(seq(39)).tail(); ok {
		t.Error("39 samples support no tail level: p75 leaves only 9 beyond it")
	}
}

func TestSpanSelfTimeMergesConcurrentChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{name: "step", parent: -1, start: 0, end: 100 * time.Millisecond},
		{name: "req", parent: 0, start: 10 * time.Millisecond, end: 50 * time.Millisecond},
		{name: "req", parent: 0, start: 30 * time.Millisecond, end: 60 * time.Millisecond},
		{name: "req", parent: 0, start: 80 * time.Millisecond, end: 90 * time.Millisecond},
	}}
	for _, a := range tr.summary() {
		if a.name == "step" && a.self != 40*time.Millisecond {
			t.Errorf("step self time %v, want 40ms (children cover 10-60 and 80-90)", a.self)
		}
		if a.name == "req" && (a.count != 3 || a.total != 80*time.Millisecond) {
			t.Errorf("req: count %d total %v, want 3 and 80ms", a.count, a.total)
		}
	}
}

func TestPlanIsSeeded(t *testing.T) {
	a, b, c := makePlan(5, 20), makePlan(5, 20), makePlan(6, 20)
	if len(a.steps) != len(b.steps) || a.netlists != b.netlists {
		t.Fatal("same seed drew different plans")
	}
	for i := range a.steps {
		for j := range a.steps[i] {
			if a.steps[i][j] != b.steps[i][j] {
				t.Fatalf("step %d arrival %d differs between runs of one seed", i, j)
			}
		}
	}
	if len(a.steps[0]) == len(c.steps[0]) && a.steps[0][0] == c.steps[0][0] {
		t.Error("different seeds drew the same schedule")
	}
}
