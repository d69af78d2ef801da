package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// schemaVersion identifies the BENCH_*.json layout. Bump it on any
// incompatible change; Compare refuses to gate across versions (a schema
// change is a human decision, not a regression).
const schemaVersion = 1

// Report is one benchmark snapshot — the BENCH_<date>.json payload.
type Report struct {
	SchemaVersion int          `json:"schema_version"`
	Date          string       `json:"date"`
	GoVersion     string       `json:"go_version"`
	Quick         bool         `json:"quick"`
	Cases         []CaseResult `json:"cases"`
	// Machine is the host the report was measured on (additive field;
	// older baselines lack it, and a comparison across machines is noted,
	// not gated).
	Machine *Machine `json:"machine,omitempty"`
	// TunedVsDefault summarizes each tuned suite row against its
	// default-configuration counterpart (additive field; older baselines
	// simply lack it).
	TunedVsDefault []TunedDelta `json:"tuned_vs_default,omitempty"`
	// Fleet holds the in-process fleet load-test scenarios (additive
	// field; older baselines simply lack it and gate nothing there).
	Fleet []FleetScenario `json:"fleet,omitempty"`
	// Certify holds the admission-certifier rows: latency, the
	// predicted-vs-actual iteration ratios of the paper matrices, and the
	// doomed-matrix rejection speedup (additive field; older baselines
	// simply lack it and gate nothing there).
	Certify []CertifyScenario `json:"certify,omitempty"`
	// Sessions holds the streaming-session and batch rows: the
	// deterministic warm-vs-cold iteration comparison and the
	// batch-vs-sequential wall-time speedup (additive field; older
	// baselines simply lack it and gate nothing there).
	Sessions []SessionScenario `json:"sessions,omitempty"`
	// Kernels holds the sweep-kernel speedup rows: stencil wall time
	// against the packed-CSR baseline on fixed-sweep solves, with
	// enforced speedup floors (additive field; older baselines simply lack
	// it and gate nothing there).
	Kernels []KernelScenario `json:"kernels,omitempty"`
	// Methods holds the update-rule rows: momentum-vs-jacobi iteration
	// counts on the paper matrices, the multigrid-vs-damped-Jacobi modeled
	// seconds per digit, and the bounded-delay ring's per-rule tick counts
	// (additive field; older baselines simply lack it and gate nothing
	// there).
	Methods []MethodScenario `json:"methods,omitempty"`
	// Tune holds the auto-tuner rows: tune.Tune at GOMAXPROCS 1 against
	// NumCPU, with the Results compared and a speedup floor (additive
	// field; older baselines simply lack it and gate nothing there).
	Tune []TuneScenario `json:"tune,omitempty"`
	// HostSweep holds the host Table 4 rows: async-(1) ns per nonzero and
	// each k's cost relative to async-(1), measured on this machine's
	// cores (additive field; older baselines simply lack it, and nothing
	// here is gated against a baseline).
	HostSweep []HostSweepScenario `json:"hostsweep,omitempty"`
}

// CaseResult is one benchmark case's measurements. Iteration counts of
// deterministic cases are exact (seeded simulated engine); wall times are
// the minimum over the case's repetitions.
type CaseResult struct {
	Name          string  `json:"name"`
	Matrix        string  `json:"matrix"`
	Engine        string  `json:"engine"`
	N             int     `json:"n"`
	BlockSize     int     `json:"block_size"`
	LocalIters    int     `json:"local_iters"`
	Tolerance     float64 `json:"tolerance"`
	Deterministic bool    `json:"deterministic"`

	// Omega is the relaxation weight when it differs from 1, and Tuned
	// marks rows whose (block size, k, ω) came from the auto-tuner rather
	// than the suite table. Additive fields: absent in older baselines.
	Omega float64 `json:"omega,omitempty"`
	Tuned bool    `json:"tuned,omitempty"`
	// Devices and Strategy describe a multi-device row ("multigpu" engine):
	// device count and communication strategy of the live executor.
	// Additive fields: absent in older baselines.
	Devices  int    `json:"devices,omitempty"`
	Strategy string `json:"strategy,omitempty"`

	Iterations      int     `json:"iterations"` // global iterations to tolerance
	TimeToTolerance float64 `json:"time_to_tolerance_seconds"`
	ItersPerSec     float64 `json:"iters_per_sec"`
	AllocBytes      uint64  `json:"alloc_bytes"` // heap bytes allocated by one solve
	Allocs          uint64  `json:"allocs"`      // heap objects allocated by one solve
	// ModeledSeconds is the modeled GPU wall time to tolerance: the
	// calibrated per-iteration cost × iterations (0 for exact-local rows,
	// and absent in older baselines).
	ModeledSeconds float64 `json:"modeled_seconds,omitempty"`
}

// TunedDelta compares a tuned suite row against the default-configuration
// row of the same matrix and engine. Ratios below 1 mean the tuner won.
type TunedDelta struct {
	Matrix       string  `json:"matrix"`
	DefaultCase  string  `json:"default_case"`
	TunedCase    string  `json:"tuned_case"`
	IterRatio    float64 `json:"iterations_ratio"`      // tuned / default
	ModeledRatio float64 `json:"modeled_seconds_ratio"` // tuned / default
	TunedWins    bool    `json:"tuned_wins"`            // on iterations or modeled time
}

// tunedVsDefault pairs every tuned case with the default row of the same
// matrix and engine.
func tunedVsDefault(cases []CaseResult) []TunedDelta {
	var out []TunedDelta
	for _, tc := range cases {
		if !tc.Tuned {
			continue
		}
		for _, dc := range cases {
			if dc.Tuned || dc.Matrix != tc.Matrix || dc.Engine != tc.Engine || dc.LocalIters == 0 {
				continue
			}
			d := TunedDelta{Matrix: tc.Matrix, DefaultCase: dc.Name, TunedCase: tc.Name}
			if dc.Iterations > 0 {
				d.IterRatio = float64(tc.Iterations) / float64(dc.Iterations)
			}
			if dc.ModeledSeconds > 0 {
				d.ModeledRatio = tc.ModeledSeconds / dc.ModeledSeconds
			}
			d.TunedWins = (d.IterRatio > 0 && d.IterRatio < 1) || (d.ModeledRatio > 0 && d.ModeledRatio < 1)
			out = append(out, d)
			break
		}
	}
	return out
}

func (r Report) byName() map[string]CaseResult {
	m := make(map[string]CaseResult, len(r.Cases))
	for _, c := range r.Cases {
		m[c.Name] = c
	}
	return m
}

func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	if r.SchemaVersion == 0 {
		return nil, fmt.Errorf("%s: missing schema_version", path)
	}
	return &r, nil
}

func writeReport(path string, r Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Limits are the per-metric regression thresholds, expressed as tolerated
// fractional increase over the baseline.
type Limits struct {
	// MaxIterRegress gates iteration counts of deterministic cases; the
	// non-deterministic engines get NondetIterFactor times the allowance
	// (run-to-run spread is physical, per the paper's §4.1 study).
	MaxIterRegress   float64
	NondetIterFactor float64
	// MaxTimeRegress gates time-to-tolerance and (inverted) iters/sec.
	// Loose by default: CI machines are noisy and shared.
	MaxTimeRegress float64
	// MaxAllocRegress gates allocated bytes and object counts.
	MaxAllocRegress float64
}

func defaultLimits() Limits {
	return Limits{
		MaxIterRegress:   0.10,
		NondetIterFactor: 5,
		MaxTimeRegress:   1.00,
		MaxAllocRegress:  0.50,
	}
}

// Problem is one gate violation.
type Problem struct {
	Case   string
	Metric string
	Base   float64
	Now    float64
	Limit  float64 // tolerated fractional increase
}

func (p Problem) String() string {
	if p.Base == 0 {
		return fmt.Sprintf("%s: %s", p.Case, p.Metric)
	}
	return fmt.Sprintf("%s: %s %.4g -> %.4g (%+.0f%%, limit +%.0f%%)",
		p.Case, p.Metric, p.Base, p.Now, 100*(p.Now/p.Base-1), 100*p.Limit)
}

// Compare gates current against base: every baseline case must still
// exist, and no metric may regress beyond its limit. Reports from
// different schema versions or suite modes (quick vs full) are not
// comparable case-by-case, so only the intersection gates in the
// cross-mode case and nothing gates across schema versions.
func Compare(base, current Report, lim Limits) []Problem {
	if base.SchemaVersion != current.SchemaVersion {
		return nil
	}
	var out []Problem
	now := current.byName()
	sameMode := base.Quick == current.Quick
	for _, b := range base.Cases {
		c, ok := now[b.Name]
		if !ok {
			if sameMode {
				out = append(out, Problem{Case: b.Name, Metric: "coverage (case missing from current run)"})
			}
			continue
		}
		iterLimit := lim.MaxIterRegress
		if !b.Deterministic {
			iterLimit *= lim.NondetIterFactor
		}
		check := func(metric string, baseV, nowV, limit float64) {
			if baseV > 0 && nowV > baseV*(1+limit) {
				out = append(out, Problem{Case: b.Name, Metric: metric, Base: baseV, Now: nowV, Limit: limit})
			}
		}
		check("iterations", float64(b.Iterations), float64(c.Iterations), iterLimit)
		// Modeled time is iterations × a constant per-iteration cost, so it
		// gates with the iteration allowance; baselines predating the field
		// hold 0 there and are skipped by the baseV > 0 guard.
		check("modeled_seconds", b.ModeledSeconds, c.ModeledSeconds, iterLimit)
		check("time_to_tolerance_seconds", b.TimeToTolerance, c.TimeToTolerance, lim.MaxTimeRegress)
		check("alloc_bytes", float64(b.AllocBytes), float64(c.AllocBytes), lim.MaxAllocRegress)
		check("allocs", float64(b.Allocs), float64(c.Allocs), lim.MaxAllocRegress)
		// iters/sec regresses downward; gate the inverse ratio so one
		// threshold covers both time metrics.
		if b.ItersPerSec > 0 && c.ItersPerSec > 0 &&
			b.ItersPerSec/c.ItersPerSec > 1+lim.MaxTimeRegress {
			out = append(out, Problem{Case: b.Name, Metric: "iters_per_sec (inverse)",
				Base: b.ItersPerSec, Now: c.ItersPerSec, Limit: lim.MaxTimeRegress})
		}
	}
	out = append(out, compareFleet(base, current, lim)...)
	out = append(out, compareCertify(base, current, lim)...)
	out = append(out, compareSessions(base, current, lim)...)
	out = append(out, compareKernels(base, current, lim)...)
	out = append(out, compareMethods(base, current, lim)...)
	out = append(out, compareTune(base, current)...)
	return out
}
