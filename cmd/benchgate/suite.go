package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/mats"
	"repro/internal/multigpu"
	"repro/internal/sparse"
	"repro/internal/tune"
	"repro/internal/vecmath"
)

// benchCase is one suite entry: a matrix, an engine, and an async-(k)
// configuration that converges to Tolerance.
type benchCase struct {
	Name       string
	Matrix     string
	Gen        func() *sparse.CSR
	Engine     string // "simulated" | "goroutine" | "freerunning" | "multigpu"
	BlockSize  int
	LocalIters int
	Omega      float64 // 0 means 1
	Tolerance  float64
	MaxIters   int
	Seed       int64 // simulated engine: fixes the schedule, so runs are exact
	Reps       int
	// Tuned replaces BlockSize/LocalIters/Omega with the auto-tuner's
	// choice before measuring (the search itself is not timed).
	Tuned bool
	// Devices and Strategy configure a "multigpu" engine row: the live
	// multi-device executor with that many GPUs exchanging via Strategy.
	Devices  int
	Strategy multigpu.Strategy
}

// suite returns the benchmark cases. The quick suite keeps the paper's
// Trefethen_2000 (the matrix the satellite tests anchor on) and shrinks
// the stencil/statistical analogs so a CI run finishes in seconds; the
// full suite uses the paper's Table 1 sizes. Case names are stable across
// modes only where the configuration is identical, because the gate
// matches baselines by name.
func suite(quick bool) []benchCase {
	reps := 5
	if quick {
		reps = 3
	}
	tref := func() *sparse.CSR { return mats.Trefethen(2000) }
	fv := func() *sparse.CSR { return mats.FV(40, 40, 1.368) }
	chem := func() *sparse.CSR { return mats.Chem97ZtZ(600) }
	if !quick {
		fv = func() *sparse.CSR { return mats.FVTiled(98, 98, 1.368) }
		chem = func() *sparse.CSR { return mats.Chem97ZtZ(2541) }
	}
	fvName, chemName := "fv_40x40", "Chem97ZtZ_600"
	if !quick {
		fvName, chemName = "fv1", "Chem97ZtZ"
	}

	cases := []benchCase{
		{Name: "Trefethen_2000/simulated/k5", Matrix: "Trefethen_2000", Gen: tref,
			Engine: "simulated", BlockSize: 128, LocalIters: 5, Tolerance: 1e-6, MaxIters: 200, Seed: 1, Reps: reps},
		{Name: "Trefethen_2000/goroutine/k5", Matrix: "Trefethen_2000", Gen: tref,
			Engine: "goroutine", BlockSize: 128, LocalIters: 5, Tolerance: 1e-6, MaxIters: 200, Reps: reps},
		{Name: "Trefethen_2000/freerunning/k5", Matrix: "Trefethen_2000", Gen: tref,
			Engine: "freerunning", BlockSize: 128, LocalIters: 5, Tolerance: 1e-6, MaxIters: 400, Reps: reps},
		{Name: fvName + "/simulated/k5", Matrix: fvName, Gen: fv,
			Engine: "simulated", BlockSize: 128, LocalIters: 5, Tolerance: 1e-6, MaxIters: 2000, Seed: 1, Reps: reps},
		{Name: chemName + "/simulated/k5", Matrix: chemName, Gen: chem,
			Engine: "simulated", BlockSize: 128, LocalIters: 5, Tolerance: 1e-6, MaxIters: 2000, Seed: 1, Reps: reps},
		// Tuned counterparts of the three paper matrices: the auto-tuner
		// picks (block size, k, ω); the tuned-vs-default summary in the
		// snapshot compares each against its /k5 default row.
		{Name: "Trefethen_2000/simulated/tuned", Matrix: "Trefethen_2000", Gen: tref,
			Engine: "simulated", Tuned: true, Tolerance: 1e-6, MaxIters: 200, Seed: 1, Reps: reps},
		{Name: fvName + "/simulated/tuned", Matrix: fvName, Gen: fv,
			Engine: "simulated", Tuned: true, Tolerance: 1e-6, MaxIters: 2000, Seed: 1, Reps: reps},
		{Name: chemName + "/simulated/tuned", Matrix: chemName, Gen: chem,
			Engine: "simulated", Tuned: true, Tolerance: 1e-6, MaxIters: 2000, Seed: 1, Reps: reps},
	}
	// Multi-device rows over the AMC device sweep of Figure 11: the modeled
	// seconds must reproduce its shape (2 GPUs beat 1, 3 GPUs — crossing
	// QPI — cost more than 2), which main gates explicitly after the run.
	// The 1-device row executes sequentially and is seeded, so it is exact.
	for _, g := range []int{1, 2, 3} {
		cases = append(cases, benchCase{
			Name: fmt.Sprintf("Trefethen_2000/multigpu-amc/g%d", g), Matrix: "Trefethen_2000", Gen: tref,
			Engine: "multigpu", BlockSize: 128, LocalIters: 5, Tolerance: 1e-6, MaxIters: 400,
			Seed: 1, Reps: reps, Devices: g, Strategy: multigpu.AMC,
		})
	}
	if !quick {
		cases = append(cases,
			benchCase{Name: fvName + "/goroutine/k5", Matrix: fvName, Gen: fv,
				Engine: "goroutine", BlockSize: 448, LocalIters: 5, Tolerance: 1e-6, MaxIters: 2000, Reps: reps},
			benchCase{Name: "Trefethen_2000/simulated/exact", Matrix: "Trefethen_2000", Gen: tref,
				Engine: "simulated", BlockSize: 128, LocalIters: 0, Tolerance: 1e-6, MaxIters: 200, Seed: 1, Reps: reps},
		)
	}
	return cases
}

// runCase executes one case Reps times against a pre-built plan (setup is
// excluded: time-to-tolerance measures the iteration phase the paper's
// Table 5 times) and reports the fastest repetition, with the heap
// allocation delta of a single solve.
func runCase(c benchCase) (CaseResult, error) {
	a := c.Gen()
	b := make([]float64, a.Rows)
	a.MulVec(b, vecmath.Ones(a.Cols))

	if c.Tuned {
		// The search runs outside the timed region: a warm daemon serves
		// it from the fingerprint cache, so the measured solve is what a
		// repeat customer pays.
		tr, err := tune.Tune(a, b, tune.Config{Seed: c.Seed})
		if err != nil {
			return CaseResult{Name: c.Name}, fmt.Errorf("auto-tune: %w", err)
		}
		c.BlockSize, c.LocalIters, c.Omega = tr.BlockSize, tr.LocalIters, tr.Omega
	}

	res := CaseResult{
		Name: c.Name, Matrix: c.Matrix, Engine: c.Engine, N: a.Rows,
		BlockSize: c.BlockSize, LocalIters: c.LocalIters, Tolerance: c.Tolerance,
		// A seeded simulated run is exact; so is a seeded 1-device multigpu
		// run (a single shard executes sequentially in dispatch order).
		Deterministic: c.Seed != 0 && (c.Engine == "simulated" ||
			(c.Engine == "multigpu" && c.Devices == 1)),
		Tuned:   c.Tuned,
		Devices: c.Devices,
	}
	if c.Engine == "multigpu" {
		res.Strategy = c.Strategy.String()
	}
	if c.Omega != 0 && c.Omega != 1 {
		res.Omega = c.Omega
	}

	exact := c.LocalIters == 0
	plan, err := core.NewPlan(a, c.BlockSize, exact)
	if err != nil {
		return res, err
	}

	// Settle the heap once per case, not per rep: a collection empties the
	// plan's scratch pools, and the solve after it counts their refill as
	// its own allocations. The first rep fills the pools; the later reps
	// count what a warm plan allocates.
	runtime.GC()
	best := -1.0
	for rep := 0; rep < c.Reps; rep++ {
		iters, elapsed, allocB, allocN, err := runOnce(plan, a, b, c)
		if err != nil {
			return res, err
		}
		if best < 0 || elapsed < best {
			best = elapsed
			res.Iterations = iters
		}
		// Allocations are gated on the minimum across reps: concurrent GC
		// and goroutine-stack reuse add run-to-run noise that the fastest
		// rep does not necessarily avoid.
		if rep == 0 || allocB < res.AllocBytes {
			res.AllocBytes = allocB
		}
		if rep == 0 || allocN < res.Allocs {
			res.Allocs = allocN
		}
	}
	res.TimeToTolerance = best
	if best > 0 {
		res.ItersPerSec = float64(res.Iterations) / best
	}
	if !exact {
		model := gpusim.CalibratedModel()
		if c.Engine == "multigpu" {
			perIter, err := multigpu.IterTime(model, multigpu.Supermicro(), c.Strategy,
				c.Devices, a.Rows, a.NNZ(), c.LocalIters)
			if err != nil {
				return res, err
			}
			res.ModeledSeconds = perIter * float64(res.Iterations)
		} else {
			res.ModeledSeconds = model.AsyncIterTime(a.Rows, a.NNZ(), c.LocalIters) * float64(res.Iterations)
		}
	}
	return res, nil
}

func runOnce(plan *core.Plan, a *sparse.CSR, b []float64, c benchCase) (int, float64, uint64, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()

	var iters int
	var converged bool
	switch c.Engine {
	case "simulated", "goroutine":
		engine := core.EngineSimulated
		if c.Engine == "goroutine" {
			engine = core.EngineGoroutine
		}
		opt := core.Options{
			BlockSize: c.BlockSize, LocalIters: c.LocalIters, ExactLocal: c.LocalIters == 0,
			Omega:          c.Omega,
			MaxGlobalIters: c.MaxIters, Tolerance: c.Tolerance, Engine: engine, Seed: c.Seed,
		}
		r, err := core.SolveWithPlan(plan, b, opt)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		iters, converged = r.GlobalIterations, r.Converged
	case "multigpu":
		opt := core.Options{
			BlockSize: c.BlockSize, LocalIters: c.LocalIters,
			Omega:          c.Omega,
			MaxGlobalIters: c.MaxIters, Tolerance: c.Tolerance, Seed: c.Seed,
		}
		r, err := multigpu.SolveWithPlan(plan, b, opt, gpusim.CalibratedModel(),
			multigpu.Supermicro(), c.Strategy, c.Devices)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		iters, converged = r.GlobalIterations, r.Converged
	case "freerunning":
		nb := plan.NumBlocks()
		r, err := core.SolveFreeRunningWithPlan(plan, b, core.FreeRunningOptions{
			BlockSize: c.BlockSize, LocalIters: c.LocalIters,
			MaxBlockUpdates: int64(c.MaxIters) * int64(nb), Tolerance: c.Tolerance,
		})
		if err != nil {
			return 0, 0, 0, 0, err
		}
		iters = int(r.EquivalentGlobalIters + 0.5)
		converged = r.Converged
	default:
		return 0, 0, 0, 0, fmt.Errorf("unknown engine %q", c.Engine)
	}

	elapsed := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	if !converged {
		return 0, 0, 0, 0, fmt.Errorf("%s did not reach %g within the budget", c.Name, c.Tolerance)
	}
	return iters, elapsed, after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs, nil
}
