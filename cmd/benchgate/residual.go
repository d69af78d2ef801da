package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/mats"
	"repro/internal/metrics"
	"repro/internal/vecmath"
)

// ResidualScenario is the residual-check cost row: solve-large's solve
// (Trefethen_20000 on the goroutine engine, bs 448, k 5, tolerance 1e-8)
// with the observers a service job sets — a metrics sink and a progress
// hook — run once with an exact ‖b − Ax‖ check every iteration and once
// under the residual gate at the service's gap. Each rep runs both,
// alternating which goes first.
type ResidualScenario struct {
	Name       string  `json:"name"`
	Matrix     string  `json:"matrix"`
	BlockSize  int     `json:"block_size"`
	LocalIters int     `json:"local_iters"`
	Tolerance  float64 `json:"tolerance"`
	Reps       int     `json:"reps"`
	// Every and Gated are the per-solve readings of the two settings.
	Every ResidualMode `json:"every"`
	Gated ResidualMode `json:"gated"`
	// Ratio is the rep-by-rep wall-time ratio of the gated solve to the
	// same rep's every-iteration solve.
	Ratio Spread `json:"ratio"`
	// Unconverged counts solves that missed the tolerance or reported a
	// residual above it; FullyChecked counts gated solves that ran an
	// exact check every iteration.
	Unconverged  int `json:"unconverged"`
	FullyChecked int `json:"fully_checked"`
}

// ResidualMode is one setting's per-solve iterations and exact checks.
type ResidualMode struct {
	ResidualEvery int    `json:"residual_every"`
	Iterations    Spread `json:"iterations"`
	Checks        Spread `json:"checks"`
}

// residualGap is the gated solves' ResidualEvery. It mirrors
// internal/service's jobResidualEvery, the gap of every queued job.
const residualGap = 8

// residualMaxRatio is the row's time ceiling: the gated solve must take at
// most this fraction of the every-iteration solve's wall time (medians of
// ×0.67–0.81 were measured on a 2-vCPU host, where a check costs about a
// sweep's memory traffic).
const residualMaxRatio = 0.95

// runResidualSuite measures the residual-check cost row and returns it with
// the count of gate violations. Nothing is compared against the baseline.
func runResidualSuite(quick bool, out io.Writer) ([]ResidualScenario, int) {
	reps := 5
	if quick {
		reps = 3
	}
	row, err := measureResidual("Trefethen_20000", reps)
	if err != nil {
		fmt.Fprintf(out, "benchgate: REGRESSION %s: %v\n", row.Name, err)
		return nil, 1
	}
	for _, m := range []ResidualMode{row.Every, row.Gated} {
		fmt.Fprintf(out, "benchgate: %s  every=%d  %.0f iters (%.0f–%.0f)  %.0f exact checks (%.0f–%.0f)\n",
			row.Name, m.ResidualEvery, m.Iterations.Median, m.Iterations.Min, m.Iterations.Max,
			m.Checks.Median, m.Checks.Min, m.Checks.Max)
	}
	fmt.Fprintf(out, "benchgate: %s  gated/every time ×%.2f (%.2f–%.2f, ceiling ×%.2f)\n",
		row.Name, row.Ratio.Median, row.Ratio.Min, row.Ratio.Max, residualMaxRatio)
	if p := residualProblem(row); p != "" {
		fmt.Fprintf(out, "benchgate: REGRESSION %s: %s\n", row.Name, p)
		return []ResidualScenario{row}, 1
	}
	return []ResidualScenario{row}, 0
}

// residualProblem gates a measured row: every solve converged with an exact
// residual at or below the tolerance, every gated solve skipped some
// checks, and the gated solves are at least 5% faster in the median.
func residualProblem(row ResidualScenario) string {
	switch {
	case row.Unconverged > 0:
		return fmt.Sprintf("%d solves did not converge to %g", row.Unconverged, row.Tolerance)
	case row.FullyChecked > 0:
		return fmt.Sprintf("%d gated solves ran an exact check every iteration: the residual gate is off", row.FullyChecked)
	case row.Ratio.Median > residualMaxRatio:
		return fmt.Sprintf("gated solves take ×%.2f the every-iteration time (ceiling ×%.2f)", row.Ratio.Median, residualMaxRatio)
	}
	return ""
}

// measureResidual times reps pairs of solves of one matrix, rotating which
// setting runs first.
func measureResidual(name string, reps int) (ResidualScenario, error) {
	const bs, k, tol = 448, 5, 1e-8
	row := ResidualScenario{
		Name: "residual/" + name, Matrix: name, BlockSize: bs, LocalIters: k, Tolerance: tol, Reps: reps,
		Every: ResidualMode{ResidualEvery: 0}, Gated: ResidualMode{ResidualEvery: residualGap},
	}
	tm, err := mats.Generate(name)
	if err != nil {
		return row, err
	}
	a := tm.A
	plan, err := core.NewPlan(a, bs, false)
	if err != nil {
		return row, err
	}
	b := make([]float64, a.Rows)
	a.MulVec(b, vecmath.Ones(a.Cols))
	sink := core.NewSolveMetrics(metrics.NewRegistry(), 512)
	solve := func(every int) (core.Result, int, float64, error) {
		checks := 0
		opt := core.Options{
			BlockSize: bs, LocalIters: k, MaxGlobalIters: 500, Tolerance: tol,
			Engine: core.EngineGoroutine, Seed: 1, ResidualEvery: every, Metrics: sink,
			OnResidual: func(int, float64) { checks++ },
		}
		start := time.Now()
		res, err := core.SolveWithPlan(plan, b, opt)
		return res, checks, time.Since(start).Seconds(), err
	}
	if _, _, _, err := solve(0); err != nil { // warm the plan's pools
		return row, err
	}
	modes := []*ResidualMode{&row.Every, &row.Gated}
	var iters, checks [2][]float64
	secs := [2][]float64{make([]float64, reps), make([]float64, reps)}
	for rep := 0; rep < reps; rep++ {
		for j := range modes {
			mi := (rep + j) % 2
			res, n, s, err := solve(modes[mi].ResidualEvery)
			if err != nil {
				return row, err
			}
			if !res.Converged || !(res.Residual <= tol) {
				row.Unconverged++
			}
			if mi == 1 && n >= res.GlobalIterations {
				row.FullyChecked++
			}
			iters[mi] = append(iters[mi], float64(res.GlobalIterations))
			checks[mi] = append(checks[mi], float64(n))
			secs[mi][rep] = s
		}
	}
	for mi, m := range modes {
		m.Iterations, m.Checks = spreadOf(iters[mi]), spreadOf(checks[mi])
	}
	ratios := make([]float64, reps)
	for rep := range ratios {
		ratios[rep] = secs[1][rep] / secs[0][rep]
	}
	row.Ratio = spreadOf(ratios)
	return row, nil
}
