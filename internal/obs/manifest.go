package obs

import (
	"encoding/json"
	"os"
	"runtime"
)

// SchemaVersion identifies the manifest JSON layout. Consumers (served
// clients, cross-run comparisons) check it before reading anything else;
// bump it only for incompatible changes.
const SchemaVersion = "cmosopt/manifest/v1"

// Manifest is the machine-readable record of one tool run: what ran, on what,
// with what result, how long it took and where the time went. Every cmd/*
// tool writes one with -metrics out.json, and every served job returns one
// with its result.
type Manifest struct {
	Schema    string `json:"schema"`
	Tool      string `json:"tool"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`

	// Workload identification (zero values omitted where not applicable).
	Circuit string  `json:"circuit,omitempty"`
	Gates   int     `json:"gates,omitempty"`
	FcHz    float64 `json:"fc_hz,omitempty"`
	Workers int     `json:"workers,omitempty"`

	WallNS int64 `json:"wall_ns"`

	// Results holds one record per optimization outcome the run produced
	// (one for cmd/lowpower, one per sweep point for cmd/sweep, …).
	Results []ResultRecord `json:"results,omitempty"`

	// Obs is the registry snapshot: span tree, engine counters, histograms,
	// per-worker utilization.
	Obs *Snapshot `json:"obs,omitempty"`
}

// ResultRecord summarizes one optimization result inside a manifest.
type ResultRecord struct {
	Label          string    `json:"label,omitempty"`
	Method         string    `json:"method,omitempty"`
	FcHz           float64   `json:"fc_hz,omitempty"`
	Vdd            float64   `json:"vdd"`
	Vts            []float64 `json:"vts,omitempty"`
	EnergyStatic   float64   `json:"energy_static"`
	EnergyDynamic  float64   `json:"energy_dynamic"`
	EnergyTotal    float64   `json:"energy_total"`
	CriticalDelayS float64   `json:"critical_delay_s"`
	Feasible       bool      `json:"feasible"`
	Evaluations    int       `json:"evaluations,omitempty"`
}

// NewManifest returns a manifest stamped with the build/host environment.
func NewManifest(tool string) *Manifest {
	return &Manifest{
		Schema:    SchemaVersion,
		Tool:      tool,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
	}
}

// Finish freezes the registry (stopping its root span) and embeds its
// snapshot. A nil registry leaves the manifest's Obs section empty.
func (m *Manifest) Finish(r *Registry) {
	if r == nil {
		return
	}
	m.WallNS = r.Finish().Nanoseconds()
	s := r.Snapshot()
	m.Obs = &s
}

// WriteFile writes the manifest as indented JSON (map keys sorted by
// encoding/json, so output is stable for fixed contents).
func (m *Manifest) WriteFile(path string) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
