package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cmosopt/internal/circuit"
	"cmosopt/internal/obs"
	"cmosopt/internal/serve"
)

// stubServer runs a serve.Server whose jobs call run instead of the
// optimizer.
func stubServer(t *testing.T, cfg serve.Config, run func(*serve.Request) (*serve.Result, error)) *serve.Client {
	t.Helper()
	cfg.Runner = func(_ context.Context, req *serve.Request, _ int, _ *obs.Registry) (*serve.Result, error) {
		return run(req)
	}
	srv := serve.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		_ = srv.Shutdown(context.Background())
		ts.Close()
	})
	return &serve.Client{BaseURL: ts.URL}
}

// tinyNetlist returns a distinct valid netlist per i, so each is a miss.
func tinyNetlist(i int) string {
	return fmt.Sprintf("# %d\nINPUT(a)\nOUTPUT(b)\nb = NOT(a)\n", i)
}

func freshSchedule(dues ...time.Duration) []arrival {
	out := make([]arrival, len(dues))
	for i, d := range dues {
		out[i] = arrival{due: d, netlist: i}
	}
	return out
}

func tinyRequest(a arrival) *serve.Request {
	return &serve.Request{Kind: serve.KindOptimize, Bench: tinyNetlist(a.netlist)}
}

// TestLatencyCountsFromDueTimeUnderStall: while the only executor is stuck
// on the first job, later requests wait; each one's latency runs from when
// it was due, so it covers the rest of the stall.
func TestLatencyCountsFromDueTimeUnderStall(t *testing.T) {
	const stall = 300 * time.Millisecond
	first := make(chan struct{}, 1)
	first <- struct{}{}
	client := stubServer(t, serve.Config{Executors: 1, QueueDepth: 8}, func(*serve.Request) (*serve.Result, error) {
		select {
		case <-first:
			time.Sleep(stall)
		default:
		}
		return &serve.Result{Output: "ok"}, nil
	})
	g := &loadGen{client: client, sleep: time.Sleep}
	replies := g.run(context.Background(), freshSchedule(0, 40*time.Millisecond, 80*time.Millisecond, 120*time.Millisecond), tinyRequest)
	for i := range replies {
		rp := &replies[i]
		if classify(rp) != outcomeOK {
			t.Fatalf("request %d: %v %s", i, rp.err, rp.state)
		}
		if floor := stall - rp.due; rp.latency() < floor {
			t.Errorf("request %d due at %v: latency %v, want >= %v (the stall's remainder)", i, rp.due, rp.latency(), floor)
		}
		if rp.latency() < rp.done-rp.sent {
			t.Errorf("request %d: latency %v shorter than its round trip %v", i, rp.latency(), rp.done-rp.sent)
		}
	}
	s := summarize(refRate, replies)
	if s.pass || s.miss[len(s.miss)-1] < ms(stall) {
		t.Errorf("stalled step summarized as %q with max miss latency %v ms", s.why, s.miss[len(s.miss)-1])
	}
}

// TestGeneratorLatenessReported: a generator that oversleeps sends late;
// the lateness is reported and the latency still counts from the due time.
func TestGeneratorLatenessReported(t *testing.T) {
	const over = 30 * time.Millisecond
	client := stubServer(t, serve.Config{}, func(*serve.Request) (*serve.Result, error) {
		return &serve.Result{Output: "ok"}, nil
	})
	g := &loadGen{client: client, sleep: func(d time.Duration) { time.Sleep(d + over) }}
	replies := g.run(context.Background(), freshSchedule(10*time.Millisecond, 20*time.Millisecond, 30*time.Millisecond), tinyRequest)
	if replies[0].late() < over {
		t.Errorf("first request sent %v late, want >= %v", replies[0].late(), over)
	}
	for i := range replies {
		if rp := &replies[i]; rp.latency() < rp.late() {
			t.Errorf("request %d: latency %v excludes the generator's %v lateness", i, rp.latency(), rp.late())
		}
	}
	if s := summarize(refRate, replies); s.lateMax < ms(over) {
		t.Errorf("lateMax %.1f ms, want >= %v", s.lateMax, over)
	}
}

// TestRejectedCountsAsFailed: with one executor and a queue of one, four
// simultaneous misses cannot all be admitted; each 429 is a failure.
func TestRejectedCountsAsFailed(t *testing.T) {
	client := stubServer(t, serve.Config{Executors: 1, QueueDepth: 1}, func(*serve.Request) (*serve.Result, error) {
		time.Sleep(200 * time.Millisecond)
		return &serve.Result{Output: "ok"}, nil
	})
	g := &loadGen{client: client, sleep: time.Sleep}
	s := summarize(refRate, g.run(context.Background(), freshSchedule(0, 0, 0, 0), tinyRequest))
	if s.rejected < 2 || s.failed != s.rejected || s.ok+s.failed != 4 || s.pass {
		t.Errorf("4 requests at capacity 2: ok %d failed %d rejected %d pass %v; want >= 2 rejected, all counted failed",
			s.ok, s.failed, s.rejected, s.pass)
	}
}

// TestWrongOutputCountsAsFailed: a served answer that differs from the
// offline cli.PrintResult output fails the check and counts as failed.
func TestWrongOutputCountsAsFailed(t *testing.T) {
	c, err := servedNetlist(defaultSeed, 0)
	if err != nil {
		t.Fatal(err)
	}
	env := &serveEnv{texts: []string{circuit.BenchString(c)}}
	good := solveOffline(env.texts[0], nil, nil)
	if good.err != nil {
		t.Fatalf("netlist 0 of the default seed: %v", good.err)
	}
	for _, c := range []struct {
		output string
		failed int
	}{{good.out, 0}, {strings.Replace(good.out, "feasible", "Feasible", 1), 1}} {
		r := newResult("serve")
		replies := []reply{{arrival: arrival{netlist: 0, keep: true}, state: serve.StateDone, output: c.output}}
		checkServed(r, env, replies, defaultSeed, false)
		if r.failed != c.failed || len(r.errs) != c.failed {
			t.Errorf("served output altered=%v: failed %d, errs %v", c.failed > 0, r.failed, r.errs)
		}
	}
}
