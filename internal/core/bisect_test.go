package core

import (
	"context"
	"math"
	"slices"
	"testing"

	"cmosopt/internal/optimize"
)

// Each case's want lists the paper's MID sequence, worked by hand from
// [0,1]: a feasible candidate no worse than the level's best moves to the
// improving half (HIGHER for thresholds, LOWER for supplies), anything else
// to the other half.
func TestBisectProbeSequence(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name   string
		higher bool
		price  func(x float64) (float64, bool)
		m      int
		want   []float64
		best   float64
	}{
		{
			name: "threshold improving", higher: true, m: 4,
			price: func(x float64) (float64, bool) { return 1 - x, true },
			want:  []float64{0.5, 0.75, 0.875, 0.9375},
			best:  1 - 0.9375,
		},
		{
			name: "supply improving", higher: false, m: 3,
			price: func(x float64) (float64, bool) { return x, true },
			want:  []float64{0.5, 0.25, 0.125},
			best:  0.125,
		},
		{
			name: "ties steer as improved", higher: true, m: 3,
			price: func(float64) (float64, bool) { return 1, true },
			want:  []float64{0.5, 0.75, 0.875},
			best:  1,
		},
		{
			name: "worse steers away", higher: true, m: 4,
			price: func(x float64) (float64, bool) { return x, true },
			// 0.5 sets the best; every later candidate is higher, so worse.
			want: []float64{0.5, 0.75, 0.625, 0.5625},
			best: 0.5,
		},
		{
			name: "infeasible candidates", higher: false, m: 6,
			price: func(x float64) (float64, bool) {
				if x < 0.6 {
					return inf, false
				}
				return x, true
			},
			want: []float64{0.5, 0.75, 0.625, 0.5625, 0.59375, 0.609375},
			best: 0.609375,
		},
		{
			name: "nothing feasible", higher: true, m: 3,
			price: func(float64) (float64, bool) { return inf, false },
			want:  []float64{0.5, 0.25, 0.125},
			best:  inf,
		},
	}
	p := &Problem{ctx: context.Background()}
	for _, tc := range cases {
		var got []float64
		best := p.bisect(level{
			r:      optimize.Range{Lo: 0, Hi: 1},
			higher: tc.higher,
			price: func(x float64) (float64, bool) {
				got = append(got, x)
				return tc.price(x)
			},
		}, tc.m)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: probed %v, want %v", tc.name, got, tc.want)
		}
		if best != tc.best {
			t.Errorf("%s: best %v, want %v", tc.name, best, tc.best)
		}
	}
}

// TestBisectBatchCommitsOnPath prices with a speculative batch and checks
// that each batch is offered MID(r) and both reachable midpoints, that only
// the two on-path results are committed, and that the committed sequence
// and the returned best equal the serial walk's.
func TestBisectBatchCommitsOnPath(t *testing.T) {
	// Feasible only in [0.3, 0.7], energy lowest at 0.55: the walk turns in
	// both directions.
	price := func(x float64) (float64, bool) {
		if x < 0.3 || x > 0.7 {
			return math.Inf(1), false
		}
		return (x - 0.55) * (x - 0.55), true
	}
	p := &Problem{ctx: context.Background()}
	for _, higher := range []bool{true, false} {
		r := optimize.Range{Lo: 0, Hi: 1}
		var serial []float64
		wantBest := p.bisect(level{r: r, higher: higher, price: func(x float64) (float64, bool) {
			serial = append(serial, x)
			return price(x)
		}}, 7)

		var committed []float64
		var batches [][3]float64
		got := p.bisect(level{
			r:      r,
			higher: higher,
			price: func(x float64) (float64, bool) {
				committed = append(committed, x)
				return price(x)
			},
			batch: func(mid, toward, away float64) [3]candidate {
				batches = append(batches, [3]float64{mid, toward, away})
				var cs [3]candidate
				for i, x := range []float64{mid, toward, away} {
					cs[i] = func() (float64, bool) {
						committed = append(committed, x)
						return price(x)
					}
				}
				return cs
			},
		}, 7)

		if !slices.Equal(committed, serial) {
			t.Errorf("higher=%v: committed %v, serial walk probed %v", higher, committed, serial)
		}
		if got != wantBest {
			t.Errorf("higher=%v: best %v, serial %v", higher, got, wantBest)
		}
		// Seven steps: three batches of two, then one serial step.
		if len(batches) != 3 {
			t.Fatalf("higher=%v: %d batches, want 3", higher, len(batches))
		}
		for i, b := range batches {
			mid := serial[2*i]
			// Both halves of the range whose midpoint is mid are mid ± w/4,
			// w = 2^-(2i) for the range of step 2i.
			q := math.Ldexp(1, -2*i) / 4
			up, down := mid+q, mid-q
			if !higher {
				up, down = down, up
			}
			if b != [3]float64{mid, up, down} {
				t.Errorf("higher=%v: batch %d offered %v, want %v", higher, i, b, [3]float64{mid, up, down})
			}
		}
	}
}

func TestBisectPollsBetweenCandidates(t *testing.T) {
	p := &Problem{ctx: &countdownCtx{left: 2}}
	n := 0
	p.bisect(level{r: optimize.Range{Lo: 0, Hi: 1}, price: func(float64) (float64, bool) {
		n++
		return 1, true
	}}, 8)
	if n != 2 {
		t.Errorf("priced %d candidates after two allowed polls, want 2", n)
	}
}
