package serve

import (
	"bytes"
	"context"
	"fmt"
	"strings"

	"cmosopt/internal/circuit"
	"cmosopt/internal/cli"
	"cmosopt/internal/core"
	"cmosopt/internal/device"
	"cmosopt/internal/netgen"
	"cmosopt/internal/obs"
	"cmosopt/internal/wiring"
)

// Runner executes one admitted, normalized request under the job's context
// and registry and returns its result. Swappable so tests can control job
// timing precisely; production uses DefaultRunner.
type Runner func(ctx context.Context, req *Request, workers int, reg *obs.Registry) (*Result, error)

// DefaultRunner routes the request family onto the same internal/core
// pipeline the command-line tools use. Outputs are rendered with the shared
// cli helpers, so a served response is byte-identical to the offline tool's
// stdout for the same request — the property the serve-e2e CI job asserts.
func DefaultRunner(ctx context.Context, req *Request, workers int, reg *obs.Registry) (*Result, error) {
	switch req.Kind {
	case KindSweep:
		return runSweep(ctx, req, workers, reg)
	case KindOptimize:
		return runOptimize(ctx, req, workers, reg)
	}
	return nil, fmt.Errorf("serve: unknown kind %q", req.Kind)
}

func runSweep(ctx context.Context, req *Request, workers int, reg *obs.Registry) (*Result, error) {
	tech, err := requestTech(req)
	if err != nil {
		return nil, err
	}
	params := cli.SweepParams{
		Circuit: req.Circuit, FromHz: req.FromHz, ToHz: req.ToHz,
		Points: req.Points, Activity: req.Activity, Workers: workers,
	}
	ct, pts, best, err := cli.RunSweep(params, tech, reg, ctx)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	if err := cli.RenderSweep(&out, req.Format, cli.SweepTable(ct.Name, req.Activity, pts, best)); err != nil {
		return nil, err
	}
	man := obs.NewManifest("served")
	man.Circuit = ct.Name
	man.Gates = ct.NumLogic()
	man.Workers = workers
	for _, pt := range pts {
		man.Results = append(man.Results,
			cli.ResultRecord(fmt.Sprintf("fc=%.0fMHz", pt.Fc/1e6), pt.Fc, pt.Result))
	}
	man.Finish(reg)
	return &Result{Output: out.String(), Manifest: man}, nil
}

func runOptimize(ctx context.Context, req *Request, workers int, reg *obs.Registry) (*Result, error) {
	ct, err := requestCircuit(req)
	if err != nil {
		return nil, err
	}
	tech, err := requestTech(req)
	if err != nil {
		return nil, err
	}
	p, err := core.NewProblem(core.Spec{
		Circuit:      ct,
		Tech:         tech,
		Wiring:       wiring.Default350(),
		Fc:           req.FcHz,
		Skew:         req.Skew,
		InputProb:    req.InputProb,
		InputDensity: req.Activity,
		Obs:          reg,
		Ctx:          ctx,
	})
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	opts.M = req.M
	opts.Workers = workers

	res, err := p.Optimize(req.Mode, req.NV, opts)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	cli.PrintResult(&out, p, res)

	man := obs.NewManifest("served")
	man.Circuit = p.C.Name
	man.Gates = p.C.NumLogic()
	man.FcHz = req.FcHz
	man.Workers = workers
	man.Results = append(man.Results, cli.ResultRecord(req.Mode, req.FcHz, res))
	man.Finish(reg)
	return &Result{Output: out.String(), Manifest: man}, nil
}

// requestCircuit resolves the request's netlist source. Uploaded and inline
// netlists are named by their content address so reports stay reproducible.
func requestCircuit(req *Request) (*circuit.Circuit, error) {
	if req.Circuit != "" {
		return netgen.LoadNamed(req.Circuit)
	}
	text := req.benchText
	if text == "" {
		text = req.Bench
	}
	if text == "" {
		return nil, fmt.Errorf("serve: request has no netlist")
	}
	name := "bench-" + HashNetlist(text)[:12]
	return circuit.ParseBenchString(name, text)
}

// requestTech applies the request's device-parameter overrides to the
// default technology.
func requestTech(req *Request) (device.Tech, error) {
	tech := device.Default350()
	if req.Tech == "" {
		return tech, nil
	}
	return device.ParseTech(tech, strings.NewReader(req.Tech))
}
