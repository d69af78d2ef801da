package tune

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/sparse"
	"repro/internal/spectral"
)

// Config bounds the search.
type Config struct {
	// BlockSizes and LocalIters are the candidate grids. Defaults: the
	// paper's neighbourhood {64, 128, 256, 448, 896} × {1, 2, 3, 5, 8}.
	BlockSizes []int
	LocalIters []int
	// ProbeIters is the length of each probe solve (default 25).
	ProbeIters int
	// Seed drives every probe solve, making the whole search deterministic.
	Seed int64
	// OmegaProbes budgets the golden-section ω refinement: at most this
	// many probe solves after the (block size, k) grid (default 8).
	// Negative disables the ω stage entirely and keeps ω = 1.
	OmegaProbes int
	// Kernels are the candidate sweep-kernel dispatches for the post-grid
	// kernel stage. Default: core.KernelCSR and core.KernelSELL, plus
	// core.KernelStencil when the matrix detects stencil structure. The
	// stage needs no extra probe solves in f64 — kernel dispatch is
	// bit-transparent (see internal/core), so the grid winner's measured
	// rate applies to every kernel and only the modeled traffic differs.
	Kernels []core.KernelKind
	// Precisions are the candidate iterate storage precisions (default
	// {core.PrecF64}). Adding core.PrecF32 lets the stage weigh the reduced
	// iterate traffic against the rounding's effect on the contraction
	// rate, which it measures with one extra probe solve.
	Precisions []string
}

// spectralSteps is the Lanczos iteration count used to center the ω
// bracket at τ = 2/(λ₁+λ_n) of the normalized matrix.
const spectralSteps = 32

// methodBetas are the candidate momentum coefficients of the method stage.
var methodBetas = []float64{0.1, 0.3, 0.5}

// model prices every candidate: the calibrated per-iteration cost of the
// paper's Fermi C2070.
var model = gpusim.CalibratedModel()

func (c Config) withDefaults() Config {
	if len(c.BlockSizes) == 0 {
		c.BlockSizes = []int{64, 128, 256, 448, 896}
	}
	if len(c.LocalIters) == 0 {
		c.LocalIters = []int{1, 2, 3, 5, 8}
	}
	if c.ProbeIters <= 0 {
		c.ProbeIters = 25
	}
	if c.OmegaProbes == 0 {
		c.OmegaProbes = 8
	}
	if len(c.Precisions) == 0 {
		c.Precisions = []string{core.PrecF64}
	}
	return c
}

// Result reports the tuning outcome.
type Result struct {
	BlockSize  int
	LocalIters int
	// Omega is the winning relaxation weight (1 when the ω stage is
	// disabled or failed to improve on plain Jacobi).
	Omega float64
	// Rate is the measured per-global-iteration residual contraction of
	// the winning configuration (geometric mean over its probe solve).
	Rate float64
	// SecondsPerDigit is the modeled wall time to gain one decimal digit
	// of accuracy — the score minimized.
	SecondsPerDigit float64
	// Probed counts grid configurations evaluated; Skipped counts those
	// that failed to contract during the probe (e.g. divergent).
	Probed, Skipped int
	// ProbeSolves counts every short solve executed, all stages combined —
	// the work a tuning cache hit saves.
	ProbeSolves int
	// OmegaBracket is the ω interval the golden-section stage searched;
	// OmegaFromSpectral reports whether its center came from the Lanczos
	// estimate (as opposed to the fixed fallback bracket).
	OmegaBracket      [2]float64
	OmegaFromSpectral bool
	// Method and Beta are the method stage's winners: the update rule with
	// the lowest modeled time per digit at the winning (block size, k, ω).
	// Method core.RuleJacobi (the zero value) with Beta 0 means the
	// first-order rule won (or the stage was disabled).
	Method core.RuleKind
	Beta   float64
	// Kernel and Precision are the kernel stage's winners: the sweep-kernel
	// dispatch and iterate storage precision with the lowest modeled time
	// per digit at the winning (block size, k, ω). KernelTraffic is the
	// winner's modeled per-nonzero traffic factor relative to packed CSR
	// (see gpusim.AsyncIterTimeKernel).
	Kernel        core.KernelKind
	Precision     string
	KernelTraffic float64
}

// Tune searches (block size, local iterations, ω) for the given system and
// returns the configuration with the lowest modeled time per digit of
// residual reduction. The grid stage builds one core.Plan per block size,
// reuses it across all k candidates and keeps it only while it holds the
// winner, so at most two plans are alive at once; the ω stage reuses the
// winning plan. Tune returns an error if no grid candidate contracts at
// all (the ρ(|B|) ≥ 1 case — no parameter choice can fix s1rmt3m1).
//
// Every probe is a seeded solve on the deterministic simulated engine, so
// the probes that do not depend on each other — one block size's k
// candidates, the method stage's β candidates — run side by side
// (probeAll) and are folded in grid order: the Result is the same at any
// GOMAXPROCS. The ω stage is serial, each golden-section point following
// from the previous comparison.
func Tune(a *sparse.CSR, b []float64, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	best := Result{Omega: 1, SecondsPerDigit: math.Inf(1)}
	var bestPlan *core.Plan
	blockSizes := cfg.BlockSizes
	fits := false
	for _, bs := range blockSizes {
		if bs <= a.Rows {
			fits = true
			break
		}
	}
	if !fits {
		// Every grid candidate exceeds the matrix dimension (small systems
		// against the paper-scale default grid). Rather than reporting "no
		// candidate contracted", probe the one configuration that exists:
		// the single-block plan, whose local solve is exact.
		blockSizes = []int{a.Rows}
	}
	for _, bs := range blockSizes {
		if bs > a.Rows {
			continue // degenerate duplicates of the single-block case
		}
		ks := cfg.LocalIters
		best.Probed += len(ks)
		plan, err := core.NewPlan(a, bs, false)
		if err != nil {
			best.Skipped += len(ks)
			continue
		}
		scores := make([]score, len(ks))
		probeAll(len(ks), func(i int) {
			scores[i] = cfg.probe(plan, b, ks[i], 1, core.RuleJacobi, 0, core.PrecF64)
		})
		best.ProbeSolves += len(ks)
		for i, s := range scores {
			if !s.ok {
				best.Skipped++
				continue
			}
			if s.perDigit < best.SecondsPerDigit {
				best.BlockSize = bs
				best.LocalIters = ks[i]
				best.Rate = s.rate
				best.SecondsPerDigit = s.perDigit
				bestPlan = plan
			}
		}
	}
	if math.IsInf(best.SecondsPerDigit, 1) {
		return best, fmt.Errorf("tune: no candidate configuration contracted (ρ(|B|) ≥ 1?)")
	}
	if cfg.OmegaProbes > 0 {
		cfg.refineOmega(a, b, bestPlan, &best)
	}
	cfg.methodStage(b, bestPlan, &best)
	cfg.kernelStage(a, b, bestPlan, &best)
	return best, nil
}

// probeAll runs probe(0), …, probe(n−1) on min(GOMAXPROCS, n) goroutines
// that take indices from a shared counter, and returns when all are done;
// one goroutine takes them in order. Each probe must be independent of the
// others and write only its own slot, which the caller folds in index
// order afterwards.
func probeAll(n int, probe func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				probe(i)
			}
		}()
	}
	wg.Wait()
}

// methodStage probes the second-order Richardson rule at the winning
// (block size, k, ω) across the candidate β grid and keeps the rule when it
// beats the first-order winner on modeled time per digit. A β probe costs
// the same per-iteration time as the first-order rule at this granularity
// (one extra fused multiply-add and the trail's vector traffic are below
// the model's resolution), so the comparison is rate against rate.
func (cfg Config) methodStage(b []float64, plan *core.Plan, best *Result) {
	k, omega := best.LocalIters, best.Omega
	scores := make([]score, len(methodBetas))
	probeAll(len(methodBetas), func(i int) {
		scores[i] = cfg.probe(plan, b, k, omega, core.RuleRichardson2, methodBetas[i], core.PrecF64)
	})
	best.ProbeSolves += len(methodBetas)
	for i, s := range scores {
		if !s.ok {
			continue // diverged or stagnated: momentum loses by default
		}
		if s.perDigit < best.SecondsPerDigit {
			best.Method = core.RuleRichardson2
			best.Beta = methodBetas[i]
			best.Rate = s.rate
			best.SecondsPerDigit = s.perDigit
		}
	}
}

// Modeled per-nonzero traffic of the non-CSR execution paths, relative to
// the packed-CSR sweep (value + column index per nonzero). An interior
// stencil row loads no column indices and keeps its coefficients in
// registers, leaving roughly the iterate gather; a SELL slice trades
// aligned contiguous loads against its padding slots; a float32 iterate
// halves the vector traffic while the matrix values stay float64. The
// constants mirror the byte ratios the docs/KERNELS.md walkthrough derives.
const (
	stencilTraffic = 0.55
	sellTraffic    = 0.9
	f32Traffic     = 0.8
)

// kernelTraffic models a plan's per-nonzero traffic factor from its own
// statistics: the stencil kernel only accelerates the detected interior
// rows (boundary rows still run packed CSR), and a SELL layout pays for
// every padded slot it stores.
func kernelTraffic(p *core.Plan) float64 {
	switch p.Kernel() {
	case core.KernelStencil:
		f := p.StencilInfo().InteriorFraction()
		return f*stencilTraffic + (1 - f)
	case core.KernelSELL:
		return sellTraffic * p.SELLSlotRatio()
	default:
		return 1
	}
}

// kernelStage joins the kernel × precision grid at the winning
// (block size, k, ω). In f64 the grid winner's measured rate transfers to
// every kernel verbatim (dispatch is bit-transparent), so the stage is pure
// pricing: build each candidate plan, read its traffic statistics, and keep
// the cheapest modeled time per digit. A float32 candidate changes the
// trajectory, so its rate is measured once by a probe on the winning plan —
// f32 rounding is also kernel-transparent, making that single probe valid
// for every kernel candidate.
func (cfg Config) kernelStage(a *sparse.CSR, b []float64, bestPlan *core.Plan, best *Result) {
	kernels := cfg.Kernels
	if len(kernels) == 0 {
		kernels = []core.KernelKind{core.KernelCSR, core.KernelSELL}
		if _, ok := sparse.DetectStencil(a); ok {
			kernels = append(kernels, core.KernelStencil)
		}
	}
	// The candidates' rates in Config.Precisions order, so a tie goes to
	// the precision listed first.
	type precRate struct {
		prec string
		rate float64
	}
	var rates []precRate
	for _, prec := range cfg.Precisions {
		if prec == "" || prec == core.PrecF64 {
			rates = append(rates, precRate{core.PrecF64, best.Rate})
			continue
		}
		best.ProbeSolves++
		if s := cfg.probe(bestPlan, b, best.LocalIters, best.Omega, best.Method, best.Beta, prec); s.ok {
			rates = append(rates, precRate{prec, s.rate})
		}
	}
	best.Kernel = core.KernelCSR
	best.Precision = core.PrecF64
	best.KernelTraffic = 1
	m := bestPlan.Matrix()
	for _, k := range kernels {
		traffic := 1.0
		if k != core.KernelCSR { // CSR is the traffic baseline; no plan needed
			plan := bestPlan
			if k != bestPlan.Kernel() {
				p, err := core.NewPlanWithConfig(a, best.BlockSize, false, core.PlanConfig{Kernel: k})
				if err != nil {
					continue // e.g. no stencil structure for an explicit stencil candidate
				}
				plan = p
			}
			traffic = kernelTraffic(plan)
		}
		for _, r := range rates {
			pt := traffic
			if r.prec == core.PrecF32 {
				pt *= f32Traffic
			}
			iterTime := model.AsyncIterTimeKernel(m.Rows, m.NNZ(), best.LocalIters, pt)
			perDigit := iterTime * math.Ln10 / -math.Log(r.rate)
			if perDigit < best.SecondsPerDigit {
				best.Kernel = k
				best.Precision = r.prec
				best.KernelTraffic = pt
				best.Rate = r.rate
				best.SecondsPerDigit = perDigit
			}
		}
	}
}

// refineOmega runs the golden-section stage on the winning (block size, k):
// bracket ω around the spectral estimate τ = 2/(λ₁+λ_n) (the optimal
// weight for scaled Richardson, paper §4.2) and keep any ω that scores
// below the grid winner's ω = 1. Divergent probes score +Inf, so the
// search backs away from them; if nothing beats plain Jacobi the result
// keeps ω = 1.
func (cfg Config) refineOmega(a *sparse.CSR, b []float64, plan *core.Plan, best *Result) {
	lo, hi := 0.5, 1.5
	if tau, err := spectral.TauScaling(a, spectralSteps, cfg.Seed+1); err == nil && tau > 0 && tau < 2 {
		lo, hi = tau-0.5, tau+0.5
		best.OmegaFromSpectral = true
	}
	if lo < 0.05 {
		lo = 0.05
	}
	if hi > 1.95 {
		hi = 1.95
	}
	best.OmegaBracket = [2]float64{lo, hi}
	k := best.LocalIters
	GoldenSection(func(w float64) float64 {
		best.ProbeSolves++
		s := cfg.probe(plan, b, k, w, core.RuleJacobi, 0, core.PrecF64)
		if !s.ok {
			return math.Inf(1)
		}
		if s.perDigit < best.SecondsPerDigit {
			best.Omega = w
			best.Rate = s.rate
			best.SecondsPerDigit = s.perDigit
		}
		return s.perDigit
	}, lo, hi, 1e-2, cfg.OmegaProbes)
}

// score is one probe's outcome: the measured contraction rate and its
// modeled seconds per digit; ok is false when the probe failed to contract
// (divergence, stagnation, exact zero).
type score struct {
	rate, perDigit float64
	ok             bool
}

// probe runs one short seeded solve on the warm plan and scores it:
// geometric-mean contraction rate over the recorded history, priced by the
// model's per-iteration cost as seconds per decimal digit. It reads only
// its arguments, so probes may run side by side.
func (cfg Config) probe(p *core.Plan, b []float64, k int, omega float64, method core.RuleKind, beta float64, precision string) score {
	res, err := core.SolveWithPlan(p, b, core.Options{
		BlockSize:      p.BlockSize(),
		LocalIters:     k,
		Omega:          omega,
		Method:         method,
		Beta:           beta,
		Precision:      precision,
		MaxGlobalIters: cfg.ProbeIters,
		RecordHistory:  true,
		Seed:           cfg.Seed,
		Engine:         core.EngineSimulated,
	})
	if err != nil || len(res.History) < 2 {
		return score{}
	}
	h := res.History
	first, last := h[0], h[len(h)-1]
	if !(last > 0) || !(first > 0) || last >= first {
		return score{} // not contracting (or already at exact zero)
	}
	rate := math.Pow(last/first, 1/float64(len(h)-1))
	m := p.Matrix()
	iterTime := model.AsyncIterTime(m.Rows, m.NNZ(), k)
	// Iterations per decimal digit: ln(10)/(−ln rate).
	return score{rate, iterTime * math.Ln10 / -math.Log(rate), true}
}
