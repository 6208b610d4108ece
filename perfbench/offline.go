package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"cmosopt/internal/circuit"
	"cmosopt/internal/core"
	"cmosopt/internal/device"
	"cmosopt/internal/netgen"
	"cmosopt/internal/obs"
	"cmosopt/internal/wiring"
)

// Input parameters shared by the workloads: the paper's clock, derating and
// activities, and the ~0.35 ns-per-level clock the repo's scale benchmarks
// use for deep circuits (a fixed 300 MHz is infeasible at depth 120).
const (
	paperFc    = 300e6
	skew       = 0.95
	levelDelay = 0.35e-9
	scaleGates = 40_000
)

var (
	suiteProfiles   = netgen.SuiteNames()
	suiteActivities = []float64{0.1, 0.5}
	sizingProfiles  = []string{"s298"} // the cheapest shape: many calls per run
)

// mix derives a generator seed from the run seed and a position, so that
// one seed fixes every input of a run.
func mix(xs ...int64) int64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, x := range xs {
		h ^= uint64(x)
		h += 0x9e3779b97f4a7c15
		h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
		h = (h ^ h>>27) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return int64(h >> 1)
}

// problem is one elaborated instance plus what the per-layer replays need.
type problem struct {
	p      *core.Problem
	c      *circuit.Circuit
	spec   core.Spec
	reg    *obs.Registry // nil on untraced passes
	genMS  float64       // generating c (shared by the problems built from it)
	elabMS float64
	solved *core.Result // first feasible result, for the replays
}

// elaborator generates and elaborates one pass's problems, wrapping each
// public call in a span under root.
type elaborator struct {
	t      *tracer
	root   int
	traced bool
	out    []*problem
}

func (b *elaborator) generate(cfg netgen.Config, seed int64) (*circuit.Circuit, float64, error) {
	sp := b.t.begin("netgen.Generate", b.root)
	start := time.Now()
	c, err := netgen.Generate(cfg, seed)
	d := time.Since(start)
	b.t.end(sp)
	return c, ms(d), err
}

func (b *elaborator) elaborate(c *circuit.Circuit, genMS, fc, act float64) error {
	s := core.Spec{
		Circuit: c, Tech: device.Default350(), Wiring: wiring.Default350(),
		Fc: fc, Skew: skew, InputProb: 0.5, InputDensity: act,
	}
	var reg *obs.Registry
	if b.traced {
		reg = obs.NewRegistry()
		s.Obs = reg
	}
	sp := b.t.begin("core.NewProblem", b.root)
	start := time.Now()
	p, err := core.NewProblem(s)
	d := time.Since(start)
	b.t.end(sp)
	if err != nil {
		return err
	}
	b.out = append(b.out, &problem{p: p, c: c, spec: s, reg: reg, genMS: genMS, elabMS: ms(d)})
	return nil
}

// profilePass builds one circuit per named profile from seeds derived from
// (seed, pass) and elaborates each at every activity.
func (b *elaborator) profilePass(names []string, acts []float64, seed int64, pass int) error {
	for i, name := range names {
		cfg, err := netgen.ProfileConfig(name)
		if err != nil {
			return err
		}
		c, gen, err := b.generate(cfg, mix(seed, int64(pass), int64(i)))
		if err != nil {
			return err
		}
		for _, act := range acts {
			if err := b.elaborate(c, gen, paperFc, act); err != nil {
				return err
			}
		}
	}
	return nil
}

// scaleConfig is netgen's s100k profile shrunk to scaleGates logic gates,
// keeping its depth and its PI/PO/DFF-to-gate ratios.
func scaleConfig() netgen.Config {
	cfg, err := netgen.ScaleConfig("s100k")
	if err != nil {
		panic(err) // a built-in profile
	}
	f := float64(scaleGates) / float64(cfg.Gates)
	cfg.Name = fmt.Sprintf("s%dk", scaleGates/1000)
	cfg.Gates = scaleGates
	cfg.PIs = int(math.Round(float64(cfg.PIs) * f))
	cfg.POs = int(math.Round(float64(cfg.POs) * f))
	cfg.DFFs = int(math.Round(float64(cfg.DFFs) * f))
	return cfg
}

// offlineSpec is a closed-loop workload with one client calling the library
// directly: each pass sets up fresh problems, then makes the listed
// optimizer calls on each.
type offlineSpec struct {
	name  string
	build func(b *elaborator, seed int64, pass int) error
	calls []string
	opts  core.Options
}

var (
	suiteSpec = offlineSpec{
		name: "suite",
		build: func(b *elaborator, seed int64, pass int) error {
			return b.profilePass(suiteProfiles, suiteActivities, seed, pass)
		},
		calls: []string{"joint", "baseline"},
		opts:  core.Options{M: 12, WidthPasses: 4, Workers: 1}, // core.DefaultOptions, serial
	}
	scaleSpec = offlineSpec{
		name: "scale",
		build: func(b *elaborator, seed int64, _ int) error {
			cfg := scaleConfig()
			c, gen, err := b.generate(cfg, mix(seed))
			if err != nil {
				return err
			}
			return b.elaborate(c, gen, 1/(float64(cfg.Depth)*levelDelay), 0.5)
		},
		calls: []string{"joint"},
		opts:  core.Options{M: 8, WidthPasses: 6, Workers: 1}, // as BenchmarkProcedure2/s100k
	}
	sizingSpec = offlineSpec{
		name: "sizing",
		build: func(b *elaborator, seed int64, pass int) error {
			return b.profilePass(sizingProfiles, []float64{0.5}, seed, pass)
		},
		calls: []string{"sensitivity"},
		opts:  core.Options{M: 8, WidthPasses: 4, Workers: 1},
	}
)

func runSuite(cfg runCfg) *result  { return runOffline(suiteSpec, cfg) }
func runScale(cfg runCfg) *result  { return runOffline(scaleSpec, cfg) }
func runSizing(cfg runCfg) *result { return runOffline(sizingSpec, cfg) }

func optimizeCall(p *core.Problem, kind string, opts core.Options) (*core.Result, error) {
	switch kind {
	case "joint":
		return p.OptimizeJoint(opts)
	case "baseline":
		return p.OptimizeBaseline(opts)
	case "sensitivity":
		return p.OptimizeJointSensitivity(opts)
	}
	return nil, fmt.Errorf("unknown optimizer %q", kind)
}

// liveHeap collects garbage and returns the bytes still in use.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

func logicGates(ps []*problem) int {
	n := 0
	for _, prob := range ps {
		n += prob.p.C.NumLogic()
	}
	return n
}

// runOffline runs passes until the next one would end past cfg.seconds
// (always at least one). On a traced run every pass is followed by a traced
// rerun of the same inputs, whose outputs must match bit for bit; the pair
// gives the tracing overhead.
func runOffline(w offlineSpec, cfg runCfg) *result {
	r := newResult(w.name)
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	var (
		setupS, passS, jobMS  []float64
		genMS, elabMS         []float64
		plainS, cpuS, tracedS float64
		counts                callCounts
		spans                 spanCounts
		last                  []*problem
		plainHashes           []string
	)
	// setUp builds pass k's problems and times the set-up.
	setUp := func(pass int, traced bool, root int) ([]*problem, error) {
		b := &elaborator{t: tr, root: root, traced: traced}
		c0 := threadCPU()
		err := w.build(b, cfg.seed, pass)
		setupS = append(setupS, (threadCPU() - c0).Seconds())
		return b.out, err
	}

	runtime.LockOSThread() // threadCPU measures this goroutine's thread
	defer runtime.UnlockOSThread()
	start := time.Now()
	for k := 0; ; k++ {
		pass, traced := k, false
		if cfg.traced {
			pass, traced = k/2, k%2 == 1
		}
		if cfg.passes > 0 && pass >= cfg.passes {
			break
		}
		if cfg.passes == 0 && k > 0 && !traced {
			el := time.Since(start).Seconds()
			if el+el/float64(k) > cfg.seconds {
				break
			}
		}
		root := tr.begin("pass", -1)
		probs, err := setUp(pass, traced, root)
		if err != nil {
			r.fail("set-up of pass %d: %v", pass, err)
			tr.end(root)
			break
		}
		var passHashes []string
		opt, cpu := 0.0, 0.0
		last = probs
		for _, prob := range probs {
			genMS, elabMS = append(genMS, prob.genMS), append(elabMS, prob.elabMS)
			var joint, base *core.Result
			var probes int64
			job := 0.0 // ms: every call on this problem is one job
			for _, kind := range w.calls {
				before := *prob.p.Eval.Metrics()
				sp := tr.begin("core.Optimize."+kind, root)
				t0, c0 := time.Now(), threadCPU()
				res, err := optimizeCall(prob.p, kind, w.opts)
				d, c := time.Since(t0), threadCPU()-c0
				tr.end(sp)
				after := *prob.p.Eval.Metrics()
				opt += d.Seconds()
				cpu += c.Seconds()
				job += ms(d)
				passHashes = append(passHashes, resultHash(res, err))
				if err == nil && prob.solved == nil {
					prob.solved = res
				}
				if traced {
					probes += after.WidthProbes - before.WidthProbes
					continue
				}
				counts.add(before, after, res)
				r.attempted++
				switch {
				case isInfeasible(err):
					r.infeasible++
				case err != nil:
					r.fail("%s pass %d %s: %v", prob.p.C.Name, pass, kind, err)
				case !res.Feasible:
					// A design the optimizer itself flags as missing b/Fc
					// is its "no feasible design" answer in another form.
					r.infeasible++
					r.flagged++
				case res.CriticalDelay > prob.p.CycleBudget()*(1+1e-9):
					r.fail("%s pass %d %s: result flagged feasible has delay %g s over budget %g s",
						prob.p.C.Name, pass, kind, res.CriticalDelay, prob.p.CycleBudget())
				}
				if err == nil {
					switch kind {
					case "joint":
						joint = res
					case "baseline":
						base = res
					}
				}
			}
			if joint != nil && base != nil && joint.Feasible && base.Feasible && joint.Energy.Total() > base.Energy.Total() {
				r.fail("%s pass %d: joint energy %g J exceeds baseline %g J",
					prob.p.C.Name, pass, joint.Energy.Total(), base.Energy.Total())
			}
			if traced {
				spans.add(prob.reg, prob.p.C.NumLogic(), probes)
			} else {
				jobMS = append(jobMS, job)
			}
		}
		tr.end(root)
		if traced {
			tracedS += opt
			for i := range passHashes {
				if passHashes[i] != plainHashes[i] {
					r.fail("pass %d problem %d: traced result differs from untraced", pass, i)
				}
			}
			continue
		}
		plainS += opt
		cpuS += cpu
		passS = append(passS, opt)
		plainHashes = passHashes
		r.hashes = append(r.hashes, passHashes...)
	}
	for len(setupS) < 3 && len(r.errs) == 0 {
		if _, err := setUp(0, false, -1); err != nil {
			r.fail("set-up: %v", err)
		}
	}
	if err := measureLive(r, w, cfg.seed); err != nil {
		r.fail("set-up: %v", err)
	}

	jobs := newDist(jobMS)
	r.values["setup_s"] = median(setupS)
	r.values["optimize_cpu_s"] = cpuS / float64(len(passS))
	r.values["optimize_s"] = plainS / float64(len(passS))
	r.values["job_ms_p50"] = jobs.p50()
	if v, ok := jobs.p90(); ok {
		r.values["job_ms_p90"] = v
	}
	r.values["netgen.generate_ms"] = median(genMS)
	r.values["core.elaborate_ms"] = median(elabMS)
	counts.report(r.values)
	r.logf("passes %d (%s per pass: %v)", len(passS), w.name, describeCalls(w))
	r.logf("set-up   %s of thread CPU", newDist(setupS).describe("s"))
	r.logf("pass     %s wall; %.4g s of thread CPU per pass", newDist(passS).describe("s"), cpuS/float64(len(passS)))
	r.logf("job      %s wall", jobs.describe("ms"))

	if cfg.traced {
		spans.report(r.values)
		if plainS > 0 && tracedS > 0 {
			r.values["obs.trace_overhead_frac"] = (tracedS - plainS) / plainS
		}
		replayLayers(r, last, cfg.seed)
		printSpans(&r.lines, tr)
	}
	return r
}

// liveGates is how many logic gates measureLive keeps elaborated at once,
// so that the heap's page granularity does not show in bytes per gate.
const liveGates = 20_000

// measureLive elaborates passes, untimed, until at least liveGates logic
// gates are held, and reports the live heap they add per gate and the
// working set of the largest problem.
func measureLive(r *result, w offlineSpec, seed int64) error {
	heap0 := liveHeap()
	var held []*problem
	for pass := 0; logicGates(held) < liveGates; pass++ {
		b := &elaborator{root: -1}
		if err := w.build(b, seed, pass); err != nil {
			return err
		}
		held = append(held, b.out...)
	}
	perGate := float64(liveHeap()-heap0) / float64(logicGates(held))
	r.values["live_bytes_per_gate"] = perGate
	for _, prob := range held {
		r.gates = max(r.gates, prob.p.C.NumLogic())
	}
	r.workingSet = perGate * float64(r.gates)
	return nil
}

func describeCalls(w offlineSpec) string {
	return fmt.Sprintf("calls %v, M=%d, WidthPasses=%d, Workers=%d", w.calls, w.opts.M, w.opts.WidthPasses, w.opts.Workers)
}

// replayLayers times each layer's public API on (up to four of) the last
// pass's problems and solved assignments.
func replayLayers(r *result, probs []*problem, seed int64) {
	var er engineReplay
	var el elabReplay
	var render []float64
	stride := max(1, len(probs)/4)
	seen := make(map[*circuit.Circuit]bool)
	for i := 0; i < len(probs); i += stride {
		prob := probs[i]
		if !seen[prob.c] {
			seen[prob.c] = true
			if err := el.add(prob.c, prob.spec.Fc, prob.spec.InputDensity, seed); err != nil {
				r.fail("replay %s: %v", prob.c.Name, err)
			}
		}
		if prob.solved != nil {
			er.add(prob.p, prob.solved.Assignment)
			render = append(render, renderUS(prob.p, prob.solved))
		}
	}
	er.report(r.values)
	el.report(r.values)
	if len(render) > 0 {
		r.values["cli.render_us"] = median(render)
	}
}
