// Command blockasync solves a linear system with the block-asynchronous
// relaxation method or one of the paper's baselines, printing convergence
// progress and (for GPU methods) the modeled hardware time.
//
// Usage:
//
//	blockasync [-matrix name | -mm file.mtx] [-method m] [flags]
//
// Methods: async (default), richardson2 (async with second-order momentum,
// see -beta), multigrid (async-smoothed V-cycles; five-point Poisson
// operators only), jacobi, scaled-jacobi, gauss-seidel, sor, cg, freerun.
// The right-hand side is b = A·1 (exact solution: ones), the paper's
// convention.
//
// With -devices N (async only) the solve runs on the live multi-device
// executor: one shard per GPU of the modeled topology, exchanging boundary
// components via the -strategy scheme (amc, dc or dk), with the modeled
// multi-GPU wall time reported alongside the convergence result.
//
// Mutually inconsistent flag combinations are rejected up front rather
// than silently ignored: -tune computes block size, local sweeps and ω
// itself, so combining it with explicit -block/-local/-omega (or with a
// non-async -method, or -devices) is an error, as are -matrix together
// with -mm, -strategy without -devices, and -devices with -goroutines.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gpusim"
	"repro/internal/mats"
	"repro/internal/multigpu"
	"repro/internal/multigrid"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/spectral"
	"repro/internal/tune"
	"repro/internal/vecmath"
)

// config is the parsed command line. set records which flags the user
// passed explicitly, so defaults can be distinguished from choices (the
// default -omega 1.5 is for SOR and must not leak into async, where ω=1 is
// the paper's baseline unless the user asks otherwise).
type config struct {
	matrix, mmfile, method string
	block, local, iters    int
	tol, omega, beta       float64
	seed                   int64
	gor, history, tuned    bool
	devices                int
	strategy               string
	kernel, precision      string
	set                    map[string]bool
}

func main() {
	var cfg config
	flag.StringVar(&cfg.matrix, "matrix", "Trefethen_2000", "generated test matrix name")
	flag.StringVar(&cfg.mmfile, "mm", "", "read the system matrix from a Matrix Market file instead")
	flag.StringVar(&cfg.method, "method", "async", "solver: async | richardson2 | multigrid | jacobi | scaled-jacobi | gauss-seidel | sor | cg | freerun")
	flag.IntVar(&cfg.block, "block", 448, "block (subdomain) size for async methods")
	flag.IntVar(&cfg.local, "local", 5, "local Jacobi sweeps per block (k in async-(k))")
	flag.IntVar(&cfg.iters, "iters", 1000, "maximum (global) iterations")
	flag.Float64Var(&cfg.tol, "tol", 1e-10, "absolute l2 residual tolerance")
	flag.Float64Var(&cfg.omega, "omega", 1.5, "relaxation factor (sor; async methods when set explicitly)")
	flag.Float64Var(&cfg.beta, "beta", 0.3, "momentum coefficient β in [0,1) (method richardson2)")
	flag.Int64Var(&cfg.seed, "seed", 1, "chaos seed for the async engines")
	flag.BoolVar(&cfg.gor, "goroutines", false, "use the truly asynchronous goroutine engine")
	flag.BoolVar(&cfg.history, "history", false, "print the residual after every iteration")
	flag.BoolVar(&cfg.tuned, "tune", false, "auto-tune block size, local sweeps and ω before solving (async only)")
	flag.IntVar(&cfg.devices, "devices", 0, "run on the live multi-GPU executor with this many devices (async only)")
	flag.StringVar(&cfg.strategy, "strategy", "amc", "inter-GPU communication strategy: amc | dc | dk (requires -devices)")
	flag.StringVar(&cfg.kernel, "kernel", "auto", "sweep-kernel dispatch: auto | csr | stencil (async and freerun)")
	flag.StringVar(&cfg.precision, "precision", "f64", "iterate storage precision: f64 | f32 (async and freerun)")
	flag.Parse()

	cfg.set = make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { cfg.set[f.Name] = true })

	if err := cfg.check(); err != nil {
		fmt.Fprintln(os.Stderr, "blockasync:", err)
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "blockasync:", err)
		os.Exit(1)
	}
}

// check rejects flag combinations where one flag would silently override
// or ignore another.
func (c config) check() error {
	isSet := func(name string) bool { return c.set[name] }
	async := c.method == "async" || c.method == "richardson2"
	mgrid := c.method == "multigrid"
	switch {
	case isSet("matrix") && isSet("mm"):
		return errors.New("-matrix and -mm both select the system; pass exactly one")
	case c.tuned && !async && !mgrid:
		return fmt.Errorf("-tune only applies to -method async, richardson2 or multigrid, have %q", c.method)
	case c.tuned && (isSet("block") || isSet("local") || isSet("omega")):
		return errors.New("-tune computes block size, local sweeps and ω itself; drop the explicit -block/-local/-omega overrides")
	case c.tuned && c.devices > 0:
		return errors.New("-tune searches the single-device engines; it cannot be combined with -devices")
	case c.devices < 0:
		return fmt.Errorf("-devices must be nonnegative, have %d", c.devices)
	case c.devices > 0 && !async:
		return fmt.Errorf("-devices only applies to -method async or richardson2, have %q", c.method)
	case c.devices > 0 && c.gor:
		return errors.New("-devices runs on the sharded executor; it cannot be combined with -goroutines")
	case isSet("strategy") && c.devices == 0:
		return errors.New("-strategy requires -devices")
	case isSet("omega") && !async && !mgrid && c.method != "sor":
		return fmt.Errorf("-omega only applies to the async methods or sor, have %q", c.method)
	case isSet("beta") && c.method != "richardson2":
		return fmt.Errorf("-beta only applies to -method richardson2, have %q", c.method)
	case c.beta < 0 || c.beta >= 1:
		return fmt.Errorf("-beta must lie in [0,1), have %g", c.beta)
	case isSet("goroutines") && !async:
		return fmt.Errorf("-goroutines only applies to -method async or richardson2, have %q", c.method)
	case isSet("kernel") && !async && c.method != "freerun":
		return fmt.Errorf("-kernel only applies to -method async, richardson2 or freerun, have %q", c.method)
	case isSet("precision") && !async && c.method != "freerun":
		return fmt.Errorf("-precision only applies to -method async, richardson2 or freerun, have %q", c.method)
	}
	if _, err := core.ParseKernel(c.kernel); err != nil {
		return err
	}
	switch c.precision {
	case "", core.PrecF64, core.PrecF32:
	default:
		return fmt.Errorf("unknown precision %q (want f64 or f32)", c.precision)
	}
	if c.devices > 0 {
		if _, err := parseStrategy(c.strategy); err != nil {
			return err
		}
	}
	return nil
}

func parseStrategy(s string) (multigpu.Strategy, error) {
	switch strings.ToLower(s) {
	case "", "amc":
		return multigpu.AMC, nil
	case "dc":
		return multigpu.DC, nil
	case "dk":
		return multigpu.DK, nil
	default:
		return 0, fmt.Errorf("unknown strategy %q (want amc, dc or dk)", s)
	}
}

func run(c config) error {
	var a *sparse.CSR
	name := c.matrix
	if c.mmfile != "" {
		f, err := os.Open(c.mmfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if a, err = sparse.ReadMatrixMarket(f); err != nil {
			return err
		}
		name = c.mmfile
	} else {
		tm, err := experiments.Matrix(c.matrix)
		if err != nil {
			return err
		}
		a = tm.A
	}
	b := make([]float64, a.Rows)
	a.MulVec(b, vecmath.Ones(a.Cols))
	fmt.Printf("system: %s  n=%d  nnz=%d  method=%s\n", name, a.Rows, a.NNZ(), c.method)

	printHistory := func(h []float64) {
		if !c.history {
			return
		}
		for i, r := range h {
			fmt.Printf("  iter %4d  residual %.6e\n", i+1, r)
		}
	}
	model := gpusim.CalibratedModel()

	switch c.method {
	case "async", "richardson2":
		var asyncOmega float64
		if c.set["omega"] {
			asyncOmega = c.omega
		}
		method, beta := core.RuleJacobi, 0.0
		if c.method == "richardson2" {
			method, beta = core.RuleRichardson2, c.beta
		}
		if c.tuned {
			tr, err := tune.Tune(a, b, tune.Config{Seed: c.seed})
			if err != nil {
				return fmt.Errorf("auto-tune: %w", err)
			}
			c.block, c.local, asyncOmega = tr.BlockSize, tr.LocalIters, tr.Omega
			if c.method == "async" {
				// -method async lets the tuner's method stage pick the rule;
				// -method richardson2 pins it (with the -beta coefficient).
				method, beta = tr.Method, tr.Beta
			}
			fmt.Printf("tuned: block=%d local=%d omega=%.3f method=%s beta=%.2f  (rate %.4f/iter, modeled %.5f s/digit, %d probe solves)\n",
				c.block, c.local, asyncOmega, method, beta, tr.Rate, tr.SecondsPerDigit, tr.ProbeSolves)
		}
		opt := core.Options{
			BlockSize: c.block, LocalIters: c.local, Omega: asyncOmega, Precision: c.precision,
			Method: method, Beta: beta,
			MaxGlobalIters: c.iters, Tolerance: c.tol, RecordHistory: c.history, Seed: c.seed,
		}
		plan, err := buildPlan(a, c.block, c.kernel)
		if err != nil {
			return err
		}
		if c.devices > 0 {
			strat, err := parseStrategy(c.strategy)
			if err != nil {
				return err
			}
			res, err := multigpu.SolveWithPlan(plan, b, opt, model, multigpu.Supermicro(), strat, c.devices)
			if err != nil && !errors.Is(err, core.ErrDiverged) {
				return err
			}
			printHistory(res.History)
			report(res.Converged, res.GlobalIterations, res.Residual, err)
			fmt.Printf("modeled GPU time: %.4f s (%.6f s/iter, %d devices, %s, %d blocks)\n",
				res.ModeledSeconds, res.PerIterSeconds, res.NumGPUs, res.Strategy, res.NumBlocks)
			ex := res.Exchanges
			fmt.Printf("exchanges: %d uploads (%d B), %d downloads (%d B), %d remote loads (%d B)\n",
				ex.Uploads, ex.BytesUp, ex.Downloads, ex.BytesDown, ex.RemoteLoads, ex.RemoteBytes)
			return nil
		}
		if c.gor {
			opt.Engine = core.EngineGoroutine
		}
		res, err := core.SolveWithPlan(plan, b, opt)
		if err != nil && !errors.Is(err, core.ErrDiverged) {
			return err
		}
		printHistory(res.History)
		modelT := model.AsyncIterTime(a.Rows, a.NNZ(), c.local) * float64(res.GlobalIterations)
		report(res.Converged, res.GlobalIterations, res.Residual, err)
		fmt.Printf("modeled GPU time: %.4f s (%d blocks, engine %s)\n", modelT, res.NumBlocks, opt.Engine)

	case "freerun":
		plan, err := buildPlan(a, c.block, c.kernel)
		if err != nil {
			return err
		}
		res, err := core.SolveFreeRunningWithPlan(plan, b, core.FreeRunningOptions{
			BlockSize: c.block, LocalIters: c.local, Precision: c.precision,
			MaxBlockUpdates: int64(c.iters) * int64((a.Rows+c.block-1)/c.block),
			Tolerance:       c.tol,
		})
		if err != nil && !errors.Is(err, core.ErrDiverged) {
			return err
		}
		report(res.Converged, int(res.EquivalentGlobalIters), res.Residual, err)
		fmt.Printf("block updates: %d\n", res.BlockUpdates)

	case "multigrid":
		w := int(math.Round(math.Sqrt(float64(a.Rows))))
		if w*w != a.Rows || w < 5 || w%2 == 0 {
			return fmt.Errorf("-method multigrid needs an odd square grid (n = W×W, odd W ≥ 5), have n=%d", a.Rows)
		}
		if !sameCSR(a, mats.Poisson2D(w, w)) {
			return fmt.Errorf("-method multigrid supports the five-point Poisson operator on the %dx%d grid; the selected matrix differs", w, w)
		}
		var sm *multigrid.AsyncSmoother
		if c.tuned {
			tuned, tr, err := multigrid.TunedAsyncSmoother(a, b, 2, tune.Config{Seed: c.seed})
			if err != nil {
				return fmt.Errorf("auto-tune: %w", err)
			}
			sm = tuned
			fmt.Printf("tuned smoother: block=%d local=%d omega=%.3f method=%s beta=%.2f  (%d probe solves)\n",
				sm.BlockSize, sm.LocalIters, sm.Omega, sm.Method, sm.Beta, tr.ProbeSolves)
		} else {
			var asyncOmega float64
			if c.set["omega"] {
				asyncOmega = c.omega
			}
			sm = &multigrid.AsyncSmoother{BlockSize: c.block, LocalIters: c.local, GlobalIters: 2, Omega: asyncOmega}
		}
		mg, err := multigrid.New(multigrid.Options{Width: w, Height: w, Smoother: sm})
		if err != nil {
			return err
		}
		fmt.Printf("hierarchy: %d levels, smoother %s\n", mg.NumLevels(), mg.SmootherName())
		res, err := mg.Solve(b, c.tol, c.iters)
		if err != nil && !errors.Is(err, multigrid.ErrDiverged) {
			return err
		}
		printHistory(res.History)
		report(res.Converged, res.Cycles, res.Residual, err)

	case "jacobi", "gauss-seidel", "sor", "cg", "scaled-jacobi":
		opt := solver.Options{MaxIterations: c.iters, Tolerance: c.tol, RecordHistory: c.history}
		var res solver.Result
		var err error
		switch c.method {
		case "jacobi":
			res, err = solver.Jacobi(a, b, opt)
		case "gauss-seidel":
			res, err = solver.GaussSeidel(a, b, opt)
		case "sor":
			res, err = solver.SOR(a, b, c.omega, opt)
		case "cg":
			res, err = solver.CG(a, b, opt)
		case "scaled-jacobi":
			tau, terr := spectral.TauScaling(a, 200, c.seed)
			if terr != nil {
				return terr
			}
			fmt.Printf("tau = %.6f\n", tau)
			res, err = solver.ScaledJacobi(a, b, tau, opt)
		}
		if err != nil && !errors.Is(err, solver.ErrDiverged) {
			return err
		}
		printHistory(res.History)
		report(res.Converged, res.Iterations, res.Residual, err)
		if c.method == "gauss-seidel" {
			fmt.Printf("modeled CPU time: %.4f s\n",
				model.GaussSeidelIterTime(a.Rows, a.NNZ())*float64(res.Iterations))
		}

	default:
		return fmt.Errorf("unknown method %q", c.method)
	}
	return nil
}

// buildPlan resolves the -kernel dispatch into a solve plan and prints
// what it resolved to (under auto, the detector's decision).
func buildPlan(a *sparse.CSR, block int, kernel string) (*core.Plan, error) {
	kk, err := core.ParseKernel(kernel)
	if err != nil {
		return nil, err
	}
	p, err := core.NewPlanWithConfig(a, block, false, core.PlanConfig{Kernel: kk})
	if err != nil {
		return nil, err
	}
	if si := p.StencilInfo(); si != nil {
		fmt.Printf("kernel: stencil (%d-point, offsets %v, %d interior / %d boundary rows)\n",
			len(si.Spec.Offsets), si.Spec.Offsets, si.InteriorRows, si.BoundaryRows)
	} else {
		fmt.Println("kernel: csr")
	}
	return p, nil
}

// sameCSR reports structural and numerical equality of two CSR matrices —
// the multigrid admission check (the hierarchy rediscretizes the Poisson
// family, so the finest operator must actually be that operator).
func sameCSR(a, b *sparse.CSR) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || len(a.Val) != len(b.Val) {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for i := range a.Val {
		if a.ColIdx[i] != b.ColIdx[i] || a.Val[i] != b.Val[i] {
			return false
		}
	}
	return true
}

func report(converged bool, iters int, residual float64, err error) {
	switch {
	case converged:
		fmt.Printf("converged in %d iterations, residual %.6e\n", iters, residual)
	case err != nil:
		fmt.Printf("DIVERGED after %d iterations (%v)\n", iters, err)
	default:
		fmt.Printf("not converged after %d iterations, residual %.6e\n", iters, residual)
	}
}
