package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/mats"
	"repro/internal/sparse"
	"repro/internal/vecmath"
)

// KernelScenario is one sweep-kernel speedup row of the snapshot: the same
// fixed-sweep solve (Tolerance 0, fixed global iterations, seeded simulated
// engine — pure kernel wall time, no convergence variance) run through the
// packed-CSR baseline and one dispatch kernel, reported as the wall-time
// ratio. Floor is the enforced minimum speedup, set from ten readings of
// each row, well under the lowest, and high enough that a kernel made
// 1.5× slower fails it (docs/KERNELS.md): the stencil kernel holds ×1.5
// on s1rmt3m1, ×1.25 on the quick Poisson grid and ×1.1 on the larger
// one; the fv1 row gates at ×0.9 — its 63% interior fraction Amdahl-caps
// the win (the other 37% of rows run a per-row loop over the same packed
// CSR the baseline runs).
type KernelScenario struct {
	Name       string `json:"name"`
	Matrix     string `json:"matrix"`
	Kernel     string `json:"kernel"`
	N          int    `json:"n"`
	BlockSize  int    `json:"block_size"`
	LocalIters int    `json:"local_iters"`
	Iterations int    `json:"iterations"`
	// CSRSeconds and KernelSeconds are interleaved best-of-reps wall times
	// (one rep of each kernel per round, so load bursts hit both alike).
	CSRSeconds    float64 `json:"csr_seconds"`
	KernelSeconds float64 `json:"kernel_seconds"`
	Speedup       float64 `json:"speedup"`
	Floor         float64 `json:"floor,omitempty"`
	// InteriorFraction describes the structure the speedup depends on.
	InteriorFraction float64 `json:"interior_fraction,omitempty"`
}

// kernelCase declares one speedup row of the kernel suite.
type kernelCase struct {
	name   string
	matrix string
	gen    func() *sparse.CSR
	kernel core.KernelKind
	bs     int
	floor  float64
}

func kernelCases(quick bool) []kernelCase {
	poisson := func(w, h int) func() *sparse.CSR {
		return func() *sparse.CSR { return mats.Poisson2D(w, h) }
	}
	named := func(name string) func() *sparse.CSR {
		return func() *sparse.CSR { return mats.MustGenerate(name).A }
	}
	if quick {
		return []kernelCase{
			{"kernel/stencil-poisson", "poisson_64x64", poisson(64, 64), core.KernelStencil, 1024, 1.25},
		}
	}
	return []kernelCase{
		{"kernel/stencil-poisson", "poisson_120x120", poisson(120, 120), core.KernelStencil, 1024, 1.1},
		{"kernel/stencil-s1rmt3m1", "s1rmt3m1", named("s1rmt3m1"), core.KernelStencil, 256, 1.5},
		{"kernel/stencil-fv1", "fv1", named("fv1"), core.KernelStencil, 512, 0.9},
	}
}

// runKernelSuite measures the kernel speedup rows and returns them with
// the count of floor violations. A row that lands under its floor gets one
// re-measurement before it counts as a violation — the floors sit well
// under the quiet-machine ratios, so a miss is almost always a load burst
// the interleaving could not fully cancel.
func runKernelSuite(quick bool, out io.Writer) ([]KernelScenario, int) {
	const localIters, sweeps = 8, 12
	reps := 13
	if quick {
		reps = 9
	}
	var rows []KernelScenario
	problems := 0
	for _, kc := range kernelCases(quick) {
		row, err := measureKernelCase(kc, localIters, sweeps, reps)
		if err == nil && row.Speedup < row.Floor {
			row, err = measureKernelCase(kc, localIters, sweeps, reps)
		}
		if err != nil {
			fmt.Fprintf(out, "benchgate: REGRESSION %s: %v\n", kc.name, err)
			problems++
			continue
		}
		fmt.Fprintf(out, "benchgate: %s  %s  csr %.1fms  %s %.1fms  speedup ×%.2f (floor ×%.2f)\n",
			row.Name, row.Matrix, 1e3*row.CSRSeconds, row.Kernel, 1e3*row.KernelSeconds,
			row.Speedup, row.Floor)
		if row.Speedup < row.Floor {
			fmt.Fprintf(out, "benchgate: REGRESSION %s: %s only ×%.2f over packed CSR (floor ×%.2f)\n",
				row.Name, row.Kernel, row.Speedup, row.Floor)
			problems++
		}
		rows = append(rows, row)
	}
	return rows, problems
}

// measureKernelCase times the fixed-sweep solve through the CSR plan and
// the case's kernel plan, interleaved, best-of-reps each.
func measureKernelCase(kc kernelCase, localIters, sweeps, reps int) (KernelScenario, error) {
	a := kc.gen()
	row := KernelScenario{
		Name: kc.name, Matrix: kc.matrix, Kernel: kc.kernel.String(),
		N: a.Rows, BlockSize: kc.bs, LocalIters: localIters,
		Iterations: sweeps, Floor: kc.floor,
	}
	b := make([]float64, a.Rows)
	a.MulVec(b, vecmath.Ones(a.Cols))
	opt := core.Options{
		BlockSize: kc.bs, LocalIters: localIters, MaxGlobalIters: sweeps,
		Tolerance: 0, Seed: 7, Engine: core.EngineSimulated,
	}
	csrPlan, err := core.NewPlanWithConfig(a, kc.bs, false, core.PlanConfig{Kernel: core.KernelCSR})
	if err != nil {
		return row, fmt.Errorf("csr plan: %w", err)
	}
	kernPlan, err := core.NewPlanWithConfig(a, kc.bs, false, core.PlanConfig{Kernel: kc.kernel})
	if err != nil {
		return row, fmt.Errorf("%s plan: %w", kc.kernel, err)
	}
	if si := kernPlan.StencilInfo(); si != nil {
		row.InteriorFraction = si.InteriorFraction()
	}
	for r := 0; r < reps; r++ {
		for _, m := range []struct {
			plan *core.Plan
			best *float64
		}{{csrPlan, &row.CSRSeconds}, {kernPlan, &row.KernelSeconds}} {
			start := time.Now()
			if _, err := core.SolveWithPlan(m.plan, b, opt); err != nil {
				return row, err
			}
			if el := time.Since(start).Seconds(); r == 0 || el < *m.best {
				*m.best = el
			}
		}
	}
	if row.KernelSeconds > 0 {
		row.Speedup = row.CSRSeconds / row.KernelSeconds
	}
	return row, nil
}

// compareKernels gates the kernel rows against the baseline: every
// baseline row must still run (the floors themselves are enforced at
// measurement time, baseline or not), and the wall times gate with the
// wall-time allowance in same-mode comparisons.
func compareKernels(base, current Report, lim Limits) []Problem {
	if len(base.Kernels) == 0 {
		return nil
	}
	now := make(map[string]KernelScenario, len(current.Kernels))
	for _, r := range current.Kernels {
		now[r.Name] = r
	}
	var out []Problem
	sameMode := base.Quick == current.Quick
	for _, b := range base.Kernels {
		c, ok := now[b.Name]
		if !ok {
			if sameMode {
				out = append(out, Problem{Case: b.Name, Metric: "coverage (kernel row missing from current run)"})
			}
			continue
		}
		if sameMode && b.KernelSeconds > 0 && c.KernelSeconds > b.KernelSeconds*(1+lim.MaxTimeRegress) {
			out = append(out, Problem{Case: b.Name, Metric: "kernel_seconds",
				Base: b.KernelSeconds, Now: c.KernelSeconds, Limit: lim.MaxTimeRegress})
		}
	}
	return out
}
