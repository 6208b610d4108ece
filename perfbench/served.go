package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"time"

	"cmosopt/internal/circuit"
	"cmosopt/internal/cli"
	"cmosopt/internal/core"
	"cmosopt/internal/device"
	"cmosopt/internal/netgen"
	"cmosopt/internal/obs"
	"cmosopt/internal/serve"
	"cmosopt/internal/wiring"
)

// Serve workload parameters. The server runs in-process behind a loopback
// httptest listener; requests are kind=optimize with an inline .bench
// netlist, so a miss runs Procedure 2 at the paper's defaults.
const (
	serveExecutors = 2
	// serveQueue is the admission limit. It is deeper than any step sends
	// requests, so a step above capacity shows as a growing backlog, never
	// as 429s: the benchmark provokes no failures.
	serveQueue  = 1024
	missShare   = 1.0 / 3 // share of requests carrying a fresh netlist
	refRate     = 40.0    // req/s at which hit and miss latencies are reported
	repeatAfter = time.Second
	hitLimitMS  = 50.0 // latency limits a rate must meet to count for max_rps
	missLimitMS = 500.0
	// checkSample fresh netlists are re-solved in-process; their served
	// outputs must be byte-equal to cli.PrintResult of the offline result.
	checkSample    = 6
	requestTimeout = time.Minute
)

// ladder are the rates above refRate probed for max_rps, in order; the
// probe stops at the first rate that misses a limit.
var ladder = []float64{50, 60, 75, 90, 110}

// arrival is one scheduled request.
type arrival struct {
	due     time.Duration // offset from the start of its step
	netlist int           // index of the netlist it carries
	repeat  bool          // a copy of an earlier request, normally a cache hit
	keep    bool          // keep the served output for the offline comparison
}

// plan is a run's request schedule: one Poisson arrival sequence per rate,
// all drawn from the seed before anything is sent.
type plan struct {
	rates    []float64
	steps    [][]arrival
	netlists int
}

// makePlan draws the schedule: the reference rate for half the run, then
// each ladder rate for a tenth. A request repeats, with probability
// 1-missShare, a fresh request due at least repeatAfter earlier.
func makePlan(seed int64, seconds float64) *plan {
	rng := rand.New(rand.NewSource(mix(seed, 99)))
	pl := &plan{rates: append([]float64{refRate}, ladder...)}
	type freshAt struct {
		at  time.Duration
		idx int
	}
	var fresh []freshAt
	var pool []int // netlists of fresh requests old enough to repeat
	var offset time.Duration
	for si, rate := range pl.rates {
		dur := seconds / 10
		if si == 0 {
			dur = seconds / 2
		}
		var step []arrival
		for t := rng.ExpFloat64() / rate; t < dur; t += rng.ExpFloat64() / rate {
			due := time.Duration(t * 1e9)
			for len(pool) < len(fresh) && fresh[len(pool)].at <= offset+due-repeatAfter {
				pool = append(pool, fresh[len(pool)].idx)
			}
			a := arrival{due: due}
			if len(pool) > 0 && rng.Float64() >= missShare {
				a.netlist, a.repeat = pool[rng.Intn(len(pool))], true
			} else {
				a.netlist = pl.netlists
				a.keep = si == 0 && a.netlist < checkSample
				fresh = append(fresh, freshAt{offset + due, a.netlist})
				pl.netlists++
			}
			step = append(step, a)
		}
		pl.steps = append(pl.steps, step)
		offset += time.Duration(dur * 1e9)
	}
	return pl
}

// servedNetlist generates netlist i of a run: suite profiles in turn, each
// from a seed derived from the run seed.
func servedNetlist(seed int64, i int) (*circuit.Circuit, error) {
	cfg, err := netgen.ProfileConfig(suiteProfiles[i%len(suiteProfiles)])
	if err != nil {
		return nil, err
	}
	return netgen.Generate(cfg, mix(seed, 7, int64(i)))
}

// serveEnv is one set-up: the request netlists and a running server.
type serveEnv struct {
	texts     []string
	gates     []int
	srv       *serve.Server
	ts        *httptest.Server
	transport *http.Transport
	client    *serve.Client
}

func newServeEnv(seed int64, netlists int) (*serveEnv, error) {
	e := &serveEnv{}
	for i := 0; i < netlists; i++ {
		c, err := servedNetlist(seed, i)
		if err != nil {
			return nil, err
		}
		e.texts = append(e.texts, circuit.BenchString(c))
		e.gates = append(e.gates, c.NumLogic())
	}
	e.srv = serve.New(serve.Config{Executors: serveExecutors, QueueDepth: serveQueue})
	e.ts = httptest.NewServer(e.srv.Handler())
	e.transport = &http.Transport{MaxIdleConnsPerHost: serveQueue + serveExecutors}
	e.client = &serve.Client{BaseURL: e.ts.URL, HTTP: &http.Client{Transport: e.transport}}
	return e, nil
}

func (e *serveEnv) request(a arrival) *serve.Request {
	return &serve.Request{Kind: serve.KindOptimize, Bench: e.texts[a.netlist]}
}

// close stops the server, then the listener, waiting for both.
func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = e.srv.Shutdown(ctx) // a timeout here leaves only canceled jobs behind
	e.ts.Close()
	e.transport.CloseIdleConnections()
}

// reply is the outcome of one request, timed from the step start.
type reply struct {
	arrival
	sent, done time.Duration
	cached     bool
	state      string
	errMsg     string
	flagged    bool   // the served report says "feasible   false"
	wallNS     int64  // server-side run time from the job manifest (misses)
	output     string // kept only for arrivals marked keep
	err        error  // transport error, timeout or 429
}

// latency counts from when the request was due, so a stall that delays
// sending is charged to every request queued behind it.
func (r *reply) latency() time.Duration { return r.done - r.due }

// late is how far behind schedule the generator sent the request.
func (r *reply) late() time.Duration { return r.sent - r.due }

// loadGen sends each arrival at its due time whether or not earlier
// requests have been answered (open loop), one goroutine per request.
type loadGen struct {
	client *serve.Client
	sleep  func(time.Duration) // time.Sleep; tests substitute a late sleeper
	t      *tracer
}

func (g *loadGen) run(ctx context.Context, step []arrival, req func(arrival) *serve.Request) []reply {
	out := make([]reply, len(step))
	root := g.t.begin("serve.step", -1)
	start := time.Now()
	var wg sync.WaitGroup
	for i, a := range step {
		if d := a.due - time.Since(start); d > 0 {
			g.sleep(d)
		}
		out[i].arrival = a
		out[i].sent = time.Since(start)
		wg.Add(1)
		go func(rp *reply, rq *serve.Request) {
			defer wg.Done()
			sp := g.t.begin("serve.Client.SubmitWait", root)
			rctx, cancel := context.WithTimeout(ctx, requestTimeout)
			st, err := g.client.SubmitWait(rctx, rq)
			cancel()
			rp.done = time.Since(start)
			g.t.end(sp)
			rp.err, rp.cached, rp.state, rp.errMsg = err, st.Cached, st.State, st.Error
			if res := st.Result; res != nil {
				rp.flagged = strings.Contains(res.Output, "\nfeasible   false")
				if res.Manifest != nil {
					rp.wallNS = res.Manifest.WallNS
				}
				if rp.keep {
					rp.output = res.Output
				}
			}
		}(&out[i], req(a))
	}
	wg.Wait()
	g.t.end(root)
	return out
}

// Reply outcomes.
const (
	outcomeOK = iota
	outcomeInfeasible
	outcomeFailed
	outcomeRejected // a 429 from admission control; also a failure
)

func classify(rp *reply) int {
	var full *serve.QueueFullError
	switch {
	case errors.As(rp.err, &full):
		return outcomeRejected
	case rp.err != nil:
		return outcomeFailed
	case rp.state == serve.StateDone && rp.flagged:
		return outcomeInfeasible
	case rp.state == serve.StateDone:
		return outcomeOK
	case rp.state == serve.StateFailed && isInfeasibleMsg(rp.errMsg):
		return outcomeInfeasible
	}
	return outcomeFailed
}

// stepStats summarizes one rate step. Latencies are in ms and cover every
// answered request; infeasible answers are misses (they are never cached).
type stepStats struct {
	rate                                        float64
	attempted, ok, infeasible, failed, rejected int
	flagged                                     int // infeasible answers carrying a design
	hit, miss, submitHit, run, queue            dist
	lateMax, drain                              float64 // ms
	pass                                        bool
	why                                         string
}

func summarize(rate float64, replies []reply) stepStats {
	s := stepStats{rate: rate, attempted: len(replies)}
	var hit, miss, submit, run, queue []float64
	var lastDue, lastDone time.Duration
	for i := range replies {
		rp := &replies[i]
		s.lateMax = max(s.lateMax, ms(rp.late()))
		lastDue, lastDone = max(lastDue, rp.due), max(lastDone, rp.done)
		switch classify(rp) {
		case outcomeRejected:
			s.rejected++
			s.failed++
			continue
		case outcomeFailed:
			s.failed++
			continue
		case outcomeInfeasible:
			s.infeasible++
			if rp.flagged {
				s.flagged++
			}
		default:
			s.ok++
		}
		lat := ms(rp.latency())
		if rp.cached {
			hit = append(hit, lat)
			submit = append(submit, ms(rp.done-rp.sent))
			continue
		}
		miss = append(miss, lat)
		if rp.wallNS > 0 {
			run = append(run, float64(rp.wallNS)/1e6)
			queue = append(queue, lat-float64(rp.wallNS)/1e6)
		}
	}
	s.hit, s.miss, s.submitHit = newDist(hit), newDist(miss), newDist(submit)
	s.run, s.queue = newDist(run), newDist(queue)
	s.drain = ms(lastDone - lastDue)
	hitTail, missTail := limitTail(s.hit), limitTail(s.miss)
	switch {
	case s.failed > 0:
		s.why = fmt.Sprintf("%d failed", s.failed)
	case len(s.miss) == 0 || len(s.hit) == 0:
		s.why = "no hits or no misses answered"
	case hitTail > hitLimitMS:
		s.why = fmt.Sprintf("hit tail %.1f ms > %g ms", hitTail, hitLimitMS)
	case missTail > missLimitMS:
		s.why = fmt.Sprintf("miss tail %.1f ms > %g ms", missTail, missLimitMS)
	case s.drain > missLimitMS:
		s.why = fmt.Sprintf("backlog: last reply %.0f ms after the last send was due", s.drain)
	default:
		s.pass = true
		s.why = "meets limits"
	}
	return s
}

// limitTail is the percentile the latency limits apply to: p90 when the
// sample supports it, else the highest supported tail, else the maximum.
func limitTail(d dist) float64 {
	if len(d) == 0 {
		return 0
	}
	if v, ok := d.p90(); ok {
		return v
	}
	if _, v, ok := d.tail(); ok {
		return v
	}
	return d[len(d)-1]
}

func (s *stepStats) String() string {
	return fmt.Sprintf("rate %5.0f req/s: attempted %4d ok %4d infeasible %3d failed %3d (429: %d) late max %6.2f ms | hit %s | miss %s | %s",
		s.rate, s.attempted, s.ok, s.infeasible, s.failed, s.rejected, s.lateMax,
		s.hit.describe("ms"), s.miss.describe("ms"), s.why)
}

// offlineSolve is one in-process run of what the server runs for an
// inline-netlist optimize request: same circuit name, spec, options and
// rendering.
type offlineSolve struct {
	p      *core.Problem
	res    *core.Result
	out    string
	err    error
	elabMS float64
}

// solveOffline solves netlist text, attaching reg (may be nil) and adding
// the optimizer call's engine counts to counts (may be nil).
func solveOffline(text string, reg *obs.Registry, counts *callCounts) offlineSolve {
	var s offlineSolve
	c, err := circuit.ParseBenchString("bench-"+serve.HashNetlist(text)[:12], text)
	if err != nil {
		s.err = err
		return s
	}
	start := time.Now()
	s.p, s.err = core.NewProblem(core.Spec{
		Circuit: c, Tech: device.Default350(), Wiring: wiring.Default350(),
		Fc: paperFc, Skew: skew, InputProb: 0.5, InputDensity: 0.5, Obs: reg,
	})
	s.elabMS = ms(time.Since(start))
	if s.err != nil {
		return s
	}
	before := *s.p.Eval.Metrics()
	s.res, s.err = s.p.OptimizeJoint(core.Options{M: 12, WidthPasses: 4, Workers: 1})
	if counts != nil {
		counts.add(before, *s.p.Eval.Metrics(), s.res)
	}
	if s.err == nil {
		var b strings.Builder
		cli.PrintResult(&b, s.p, s.res)
		s.out = b.String()
	}
	return s
}

func runServe(cfg runCfg) *result {
	r := newResult("serve")
	pl := makePlan(cfg.seed, cfg.seconds)
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}

	var setupS []float64
	var env *serveEnv
	runtime.LockOSThread()   // threadCPU measures this goroutine's thread
	for i := 0; i < 5; i++ { // set up five times, keep the last
		if env != nil {
			env.close()
		}
		c0 := threadCPU()
		var err error
		if env, err = newServeEnv(cfg.seed, pl.netlists); err != nil {
			runtime.UnlockOSThread()
			r.fail("set-up: %v", err)
			return r
		}
		setupS = append(setupS, (threadCPU() - c0).Seconds())
	}
	runtime.UnlockOSThread()
	defer env.close()
	r.gates = maxInt(env.gates)
	heap0 := liveHeap()

	g := &loadGen{client: env.client, sleep: time.Sleep, t: tr}
	var steps []stepStats
	var refReplies []reply
	maxRPS := 0.0
	for si, step := range pl.steps {
		cpu0 := processCPU()
		replies := g.run(context.Background(), step, env.request)
		cpu := processCPU() - cpu0
		st := summarize(pl.rates[si], replies)
		r.attempted += st.attempted
		r.failed += st.failed
		r.infeasible += st.infeasible
		r.flagged += st.flagged
		steps = append(steps, st)
		if si == 0 {
			refReplies = replies
			if misses := len(st.miss); misses > 0 {
				r.values["optimize_cpu_s"] = cpu.Seconds() / float64(misses)
			}
			gates := 0 // every request is retained, so repeats count too
			for _, a := range step {
				gates += env.gates[a.netlist]
			}
			r.values["live_bytes_per_gate"] = float64(liveHeap()-heap0) / float64(gates)
		}
		if !st.pass {
			break
		}
		maxRPS = st.rate
	}

	ref := &steps[0]
	r.values["setup_s"] = median(setupS)
	r.values["optimize_s"] = mean(ref.run) / 1e3
	r.values["job_ms_p50"] = ref.hit.p50()
	r.values["hit_ms_p50"] = ref.hit.p50()
	r.values["miss_ms_p50"] = ref.miss.p50()
	if v, ok := ref.hit.p90(); ok {
		r.values["hit_ms_p90"] = v
	}
	if v, ok := ref.miss.p90(); ok {
		r.values["miss_ms_p90"] = v
	}
	r.values["max_rps"] = maxRPS
	r.values["serve.submit_ms_p50"] = ref.submitHit.p50()
	r.values["serve.run_ms_p50"] = ref.run.p50()
	if v, ok := ref.queue.p90(); ok {
		r.values["serve.queue_wait_ms_p90"] = v
	}
	if n := len(ref.hit) + len(ref.miss); n > 0 {
		r.values["serve.cache_hit_ratio"] = float64(len(ref.hit)) / float64(n)
	}
	rejected, late := 0, 0.0
	for _, st := range steps {
		rejected += st.rejected
		late = max(late, st.lateMax)
	}
	r.values["serve.rejected"] = float64(rejected)
	r.values["serve.gen_late_ms_max"] = late

	r.logf("server: Executors %d, QueueDepth %d, Workers 1; %d netlists; open loop, Poisson arrivals, %.0f%% fresh netlists", serveExecutors, serveQueue, pl.netlists, missShare*100)
	r.logf("set-up   %s", newDist(setupS).describe("s"))
	for i := range steps {
		r.logf("%s", steps[i].String())
	}
	r.logf("max_rps %.0f req/s (limits: hit tail <= %g ms, miss tail <= %g ms, no failures, no backlog)", maxRPS, hitLimitMS, missLimitMS)
	checkServed(r, env, refReplies, cfg.seed, cfg.traced)
	if cfg.traced {
		printSpans(&r.lines, tr)
	}
	return r
}

// checkServed re-solves the first checkSample netlists in-process and
// requires each served answer to be byte-equal to the offline one. The
// offline solves are the calls the server makes, so a traced run reads its
// per-layer numbers from them; it repeats each with an obs registry
// attached, which must not change the output.
func checkServed(r *result, env *serveEnv, replies []reply, seed int64, traced bool) {
	served := make(map[int]*reply)
	for i := range replies {
		if rp := &replies[i]; rp.keep {
			served[rp.netlist] = rp
		}
	}
	var (
		counts          callCounts
		spans           spanCounts
		er              engineReplay
		el              elabReplay
		gen, elab, rend []float64
		plainS, tracedS float64
	)
	for i := 0; i < checkSample && i < len(env.texts); i++ {
		start := time.Now()
		s := solveOffline(env.texts[i], nil, &counts)
		plainS += time.Since(start).Seconds()
		r.hashes = append(r.hashes, resultHash(s.res, s.err))
		if s.err != nil && !isInfeasible(s.err) {
			r.fail("offline solve of netlist %d: %v", i, s.err)
			continue
		}
		if rp := served[i]; rp != nil {
			switch o := classify(rp); {
			case o == outcomeOK && s.err != nil:
				r.fail("netlist %d: served a design, offline %v", i, s.err)
			case o == outcomeOK && rp.output != s.out:
				r.fail("netlist %d: served output differs from offline cli.PrintResult", i)
			case o == outcomeInfeasible && rp.flagged && rp.output != s.out:
				r.fail("netlist %d: served output differs from offline cli.PrintResult", i)
			case o == outcomeInfeasible && !rp.flagged && (s.err == nil || rp.errMsg != s.err.Error()):
				r.fail("netlist %d: served %q, offline %v", i, rp.errMsg, s.err)
			}
		}
		if !traced {
			continue
		}
		reg := obs.NewRegistry()
		start = time.Now()
		t := solveOffline(env.texts[i], reg, nil)
		tracedS += time.Since(start).Seconds()
		if t.out != s.out || resultHash(t.res, t.err) != resultHash(s.res, s.err) {
			r.fail("netlist %d: traced offline solve differs from untraced", i)
		}
		spans.add(reg, t.p.C.NumLogic(), t.p.Eval.Metrics().WidthProbes)
		if err := el.add(t.p.C, t.p.Fc, 0.5, seed); err != nil {
			r.fail("replay netlist %d: %v", i, err)
		}
		start = time.Now()
		if _, err := servedNetlist(seed, i); err != nil {
			r.fail("netlist %d: %v", i, err)
		}
		gen = append(gen, ms(time.Since(start)))
		elab = append(elab, s.elabMS)
		if s.res != nil {
			er.add(s.p, s.res.Assignment)
			rend = append(rend, renderUS(s.p, s.res))
		}
	}
	if !traced {
		return
	}
	counts.report(r.values)
	spans.report(r.values)
	er.report(r.values)
	el.report(r.values)
	r.values["netgen.generate_ms"] = median(gen)
	r.values["core.elaborate_ms"] = median(elab)
	r.values["cli.render_us"] = median(rend)
	if plainS > 0 {
		r.values["obs.trace_overhead_frac"] = (tracedS - plainS) / plainS
	}
}

func maxInt(xs []int) int {
	m := 0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
