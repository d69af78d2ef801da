package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/certify"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/vecmath"
)

// EngineKind selects the execution engine.
type EngineKind int

const (
	// EngineSimulated executes blocks deterministically in a seeded
	// chaotic order (reproducible).
	EngineSimulated EngineKind = iota
	// EngineGoroutine executes blocks concurrently on a worker pool with
	// relaxed-consistency shared memory (non-deterministic).
	EngineGoroutine
)

// String implements fmt.Stringer.
func (e EngineKind) String() string {
	switch e {
	case EngineSimulated:
		return "simulated"
	case EngineGoroutine:
		return "goroutine"
	default:
		return fmt.Sprintf("EngineKind(%d)", int(e))
	}
}

// Options configures a block-asynchronous solve.
type Options struct {
	// BlockSize is the subdomain size in rows. The paper uses 448 for
	// production runs and 128 for the non-determinism study. Required > 0.
	BlockSize int
	// LocalIters is k in async-(k): Jacobi sweeps per block per global
	// iteration, with off-block values frozen. Required > 0 (paper default 5).
	LocalIters int
	// ExactLocal replaces the k local Jacobi sweeps with an *exact* dense
	// solve of each subdomain system (the k→∞ limit of the trade-off in
	// §4.3: classical block Jacobi under the chaotic schedule). LocalIters
	// and Omega are ignored when set.
	ExactLocal bool
	// Omega damps (ω<1) or over-relaxes (ω>1) every local update:
	// x_i ← (1−ω)x_i + ω·(Jacobi update). Zero selects 1 (the paper's
	// plain scheme). With ω = τ = 2/(λ₁+λ_n) the block-asynchronous
	// iteration converges on SPD systems with ρ(B) > 1, extending the
	// paper's §4.2 scaled-Jacobi remark to the asynchronous method.
	Omega float64
	// Method selects the update rule of the block sweeps (see RuleKind).
	// The zero value RuleJacobi is the paper's first-order weighted Jacobi;
	// RuleRichardson2 adds the heavy-ball momentum term β(x_k − x_{k−1}).
	// A RuleRichardson2 solve with Beta 0 runs the literal Jacobi code path
	// and is bit-identical to a RuleJacobi solve — the seam's equivalence
	// contract, enforced by the method-equivalence tests.
	Method RuleKind
	// Beta is the momentum coefficient of RuleRichardson2, in [0, 1).
	// Zero (the default) disables momentum entirely: no trail is allocated
	// and the kernels take the first-order path. Non-zero Beta requires
	// Method == RuleRichardson2 and is incompatible with ExactLocal (the
	// direct subdomain solves have no sweep recurrence to accelerate).
	Beta float64
	// MomentumGuess seeds the momentum trail x_{k−1} (a Session carrying
	// its trail across warm-started steps). Requires non-zero Beta and the
	// system dimension; nil starts the trail at the initial iterate, so the
	// first sweep's momentum term vanishes. Not modified by the solve.
	MomentumGuess []float64
	// MaxGlobalIters bounds the number of global iterations. Required > 0.
	MaxGlobalIters int
	// Tolerance is the absolute l2 residual target; 0 disables the
	// stopping test (run exactly MaxGlobalIters, as the paper's
	// per-iteration figures do).
	Tolerance float64
	// RecordHistory stores ‖b−Ax‖₂ after every global iteration.
	RecordHistory bool
	// ResidualEvery (barrier engines) spaces the exact residual checks:
	// with a value N > 1, the full-matrix SpMV behind the stopping test
	// runs at every N-th iteration and the last, and at any iteration in
	// between whose free incremental estimate — the last exact residual
	// scaled by the ratio of block-update norms ‖Δx‖₂, which the kernels
	// accumulate anyway — has reached the tolerance. So the estimate places
	// the check that decides the stop, and N only caps the gap between
	// checks. Convergence is only ever declared from an exact check, so the
	// reported residual is never an estimate; a misplaced estimate costs at
	// worst N−1 extra iterations before convergence is noticed. Values 0
	// and 1 mean exact checks every iteration (the default). The gate
	// requires a Tolerance and disables itself when the per-iteration
	// residual is itself the output (RecordHistory) or under ExactLocal.
	// Metrics and OnResidual do not disable it: they observe the exact
	// checks that run. For the same ResidualEvery, setting them never
	// changes the iterate, the stop iteration or the residual.
	ResidualEvery int
	// InitialGuess seeds x if non-nil (not modified); zero vector otherwise.
	InitialGuess []float64
	// Ctx, if non-nil, is checked before every block execution (and at
	// every global-iteration boundary): once it is done the solve returns
	// early with an error wrapping both ErrCanceled and the context's
	// error (deadline or cancellation), so cancellation latency is bounded
	// by one block sweep even on large systems. The partial iterate is
	// returned in Result.X. A nil Ctx never cancels.
	Ctx context.Context

	// Engine selects the execution engine (default EngineSimulated).
	Engine EngineKind
	// Precision selects the iterate storage precision: "" or PrecF64 for
	// exact double precision, PrecF32 for float32 iterate storage with
	// float64 accumulation and float64 residual checks (see precision.go).
	// Valid for all engines; purely a storage choice, the matrix and
	// right-hand side stay float64.
	Precision string
	// Seed drives the chaotic scheduler. Runs with equal non-zero seeds
	// are identical under EngineSimulated; under EngineGoroutine the seed
	// only shapes dispatch order, not the race outcomes. Seed 0 (the zero
	// value) selects a distinct per-run stream derived from a
	// process-local counter — it does NOT mean "seed with 0", because
	// every caller leaving Seed unset would then silently share one
	// stream. Callers that need reproducibility must set a non-zero seed
	// (or replay a recorded schedule, whose metadata retains the derived
	// seed).
	Seed int64
	// Recurrence in [0,1] is the scheduler's pattern persistence (§4.1
	// observes GPU scheduling follows a recurring pattern). Default 0.8.
	Recurrence float64
	// StaleProb in [0,1] applies to EngineSimulated and adds chaos beyond
	// the wave model: with this probability a block reads the snapshot
	// from the start of the whole global iteration rather than of its
	// dispatch wave (a maximally late dispatch). Default 0 — staleness
	// then derives purely from the scheduling order, as on the hardware.
	StaleProb float64
	// Workers is the worker-pool size for EngineGoroutine; default 14
	// (Fermi C2070 multiprocessors).
	Workers int

	// SkipBlock, if non-nil, is consulted before each block execution;
	// returning true skips the block for that global iteration. Package
	// fault uses this hook to inject core failures (§4.5).
	SkipBlock func(iter, block int) bool
	// RecordTrace (EngineSimulated only) collects the Chazan–Miranker
	// update/shift statistics into Result.Trace.
	RecordTrace bool
	// AfterIteration, if non-nil, runs after each global iteration's
	// barrier with read/write access to the iterate. Package fault uses
	// this hook to inject *silent* errors (§4.5: undetected corruption);
	// monitoring code can use it to snoop on the iterate. It runs after
	// every global iteration, checked or not (OnResidual reports the exact
	// checks without computing the residual again).
	AfterIteration func(iter int, x VectorAccess)

	// Record, if non-nil, captures the executed block schedule: every
	// engine appends one sched.Event per block execution in commit order.
	// Take Record.Schedule() after the solve returns.
	Record *sched.Recorder
	// Replay, if non-nil, drives the engine along a previously captured
	// schedule instead of the seeded chaotic scheduler. The simulated
	// engine reproduces a simulated-engine capture bit-for-bit (order,
	// stale masks and race coin flips are all restored); captures from
	// the concurrent engines replay as a canonical deterministic
	// execution of the recorded block sequence. SkipBlock and Chaos are
	// ignored during replay (their effects are already baked into the
	// recorded stream).
	Replay *sched.Schedule
	// Chaos, if non-nil, injects adversarial scheduling perturbations
	// (delays, dispatch reordering, forced stale reads) into the engines.
	// Package fault provides a seeded implementation; internal/service
	// exposes it behind a debug flag.
	Chaos *ChaosHooks

	// Certify selects the admission-time convergence pre-flight
	// (certify.ModeOff, the default, skips it). ModeWarn certifies the
	// matrix before the first iteration and attaches the certificate to
	// Result.Certificate; ModeEnforce additionally refuses a Diverges
	// verdict with an error wrapping certify.ErrDivergent — the solve
	// then never iterates (Result still carries the certificate).
	Certify certify.Mode
	// CertifyOptions tunes the certifier work bounds; the zero value uses
	// the certifier defaults. Ignored when Certify is ModeOff.
	CertifyOptions certify.Options

	// Metrics, if non-nil, receives per-engine counters (global iterations,
	// block sweeps, stale reads, chaos injections, replay events) and the
	// residual of every exact check into its bounded ring. With Tolerance 0
	// and no RecordHistory, setting Metrics makes the engines compute the
	// residual every global iteration; under the ResidualEvery gate it
	// receives only the checks that run. It never changes control flow or
	// the solve: the iterate, the stop iteration and the residual are
	// those of the same solve without it.
	Metrics *SolveMetrics
	// OnResidual, if non-nil, receives every exact residual check of a
	// barrier engine as soon as it is computed: the global iteration and
	// the same ‖b−Ax‖₂ that goes into Result.Residual, the history and the
	// metrics ring, passed before the stopping and divergence tests. The
	// iterations arrive in increasing order and the last call is the
	// result's (GlobalIterations, Residual). It runs on the solve's
	// goroutine. Like Metrics, it makes every global iteration compute the
	// exact residual when Tolerance is 0, sees only the checks that run
	// under ResidualEvery, and never changes control flow or the solve.
	// internal/service reports job and session-step progress through it.
	OnResidual func(iter int, residual float64)

	// referenceKernel pins the engines to the pre-staging reference block
	// kernel; the bit-identity property tests use it to run whole solves
	// down both kernel paths.
	referenceKernel bool
}

// runSeedCounter backs the per-run stream derivation for Seed == 0.
var runSeedCounter atomic.Int64

// nextRunSeed derives a distinct seed for a run that left Options.Seed at
// the zero value: a splitmix64-style golden-ratio scramble of a
// process-local counter. The result is never 0, so a derived seed is
// always distinguishable from "unset".
func nextRunSeed() int64 {
	z := uint64(runSeedCounter.Add(1)) * 0x9E3779B97F4A7C15
	z ^= z >> 31
	return int64(z | 1)
}

// withDefaults fills zero-value optional fields.
func (o Options) withDefaults() Options {
	if o.Omega == 0 {
		o.Omega = 1
	}
	if o.Seed == 0 {
		o.Seed = nextRunSeed()
	}
	if o.Recurrence == 0 {
		o.Recurrence = 0.8
	}
	if o.Workers == 0 {
		o.Workers = 14
	}
	return o
}

func (o Options) validate(a *sparse.CSR, b []float64) error {
	if err := validateSystem(a, b); err != nil {
		return err
	}
	if o.BlockSize <= 0 {
		return fmt.Errorf("core: BlockSize must be positive, have %d", o.BlockSize)
	}
	if o.LocalIters <= 0 && !o.ExactLocal {
		return fmt.Errorf("core: LocalIters must be positive, have %d", o.LocalIters)
	}
	if o.MaxGlobalIters <= 0 {
		return fmt.Errorf("core: MaxGlobalIters must be positive, have %d", o.MaxGlobalIters)
	}
	if err := validateGuess(a.Rows, o.InitialGuess); err != nil {
		return err
	}
	if o.Recurrence < 0 || o.Recurrence > 1 {
		return fmt.Errorf("core: Recurrence %g outside [0,1]", o.Recurrence)
	}
	if o.StaleProb < 0 || o.StaleProb > 1 {
		return fmt.Errorf("core: StaleProb %g outside [0,1]", o.StaleProb)
	}
	if o.Workers < 0 {
		return fmt.Errorf("core: Workers must be nonnegative, have %d", o.Workers)
	}
	if o.Omega < 0 || o.Omega >= 2 {
		return fmt.Errorf("core: Omega must lie in (0,2), have %g", o.Omega)
	}
	if err := validateRule(o.Method, o.Beta); err != nil {
		return err
	}
	if o.Beta != 0 && o.ExactLocal {
		return fmt.Errorf("core: momentum (Beta %g) is incompatible with ExactLocal: the exact subdomain solves have no sweep recurrence", o.Beta)
	}
	if o.MomentumGuess != nil {
		if o.Beta == 0 {
			return fmt.Errorf("core: MomentumGuess requires a non-zero Beta")
		}
		if len(o.MomentumGuess) != a.Rows {
			return fmt.Errorf("core: MomentumGuess length %d does not match dimension %d", len(o.MomentumGuess), a.Rows)
		}
	}
	if o.ResidualEvery < 0 {
		return fmt.Errorf("core: ResidualEvery must be nonnegative, have %d", o.ResidualEvery)
	}
	if err := validatePrecision(o.Precision); err != nil {
		return err
	}
	return nil
}

// Result reports a block-asynchronous solve.
type Result struct {
	X                []float64
	GlobalIterations int
	Residual         float64 // final ‖b−Ax‖₂
	Converged        bool
	History          []float64 // per-global-iteration residuals if requested
	Trace            *Trace    // Chazan–Miranker statistics if requested
	NumBlocks        int
	// Momentum is the final momentum trail x_{k−1} of a RuleRichardson2
	// solve with non-zero Beta — hand it to the next solve's MomentumGuess
	// to continue the second-order recurrence (Session does this
	// automatically). Nil on the first-order path.
	Momentum []float64
	// Certificate is the admission pre-flight output when Options.Certify
	// is ModeWarn or ModeEnforce; nil when certification was off.
	Certificate *certify.Certificate
}

// Sentinel errors. All error returns of this package that describe one of
// these conditions wrap the corresponding sentinel, so callers can
// dispatch with errors.Is regardless of the message details.
var (
	// ErrDiverged is reported (wrapped) when the residual becomes
	// non-finite — the expected outcome on systems with ρ(|B|) > 1 such as
	// s1rmt3m1.
	ErrDiverged = errors.New("core: iteration diverged (non-finite residual)")
	// ErrCanceled is reported (wrapped, together with the context's own
	// error) when Options.Ctx is done before the solve finishes.
	ErrCanceled = errors.New("core: solve canceled")
	// ErrNotConverged marks a solve that exhausted its iteration budget
	// without reaching the requested tolerance. The engines themselves
	// report this condition via Result.Converged (running to the budget is
	// a legitimate outcome for the paper's per-iteration studies); callers
	// that require convergence — internal/service job execution, for one —
	// wrap ErrNotConverged so errors.Is works across layers.
	ErrNotConverged = errors.New("core: iteration did not converge within the budget")
)

// Solve runs async-(k) block-asynchronous relaxation on Ax = b.
//
// It is the one-shot entry point: the per-matrix setup (block partition,
// block views, inverse diagonal, LU factors for ExactLocal) is rebuilt on
// every call. Long-running callers should build the setup once with
// NewPlan and iterate with SolveWithPlan.
func Solve(a *sparse.CSR, b []float64, opt Options) (Result, error) {
	opt = opt.withDefaults()
	if err := opt.validate(a, b); err != nil {
		return Result{}, err
	}
	p, err := NewPlan(a, opt.BlockSize, opt.ExactLocal)
	if err != nil {
		return Result{}, err
	}
	return SolveWithPlan(p, b, opt)
}

// residualState carries a solve's residual bookkeeping: the scratch vector
// the exact checks compute into (so they allocate nothing) and the anchors
// of the Options.ResidualEvery incremental estimate. One exact checkpoint
// records the pair (r, δ) of residual and block-update norm; between
// checkpoints the residual is estimated as r̂ = r·(δ_now/δ_anchor) — both
// norms contract at the iteration's asymptotic rate, so their ratio tracks
// the residual's decay without touching the matrix.
type residualState struct {
	scratch []float64
	// rows is the executor's residual pass (see barrier.rows); nil fills
	// the rows on the solve's goroutine.
	rows      func(r, x []float64)
	every     int
	tol       float64
	lastExact float64 // residual at the last exact checkpoint
	lastDelta float64 // ‖Δx‖₂ at the last exact checkpoint
	haveExact bool
}

// newResidualState sizes the gate for one solve. The incremental estimate
// needs a tolerance to estimate against, and stays off when the
// per-iteration residual is the output (RecordHistory). Metrics and
// OnResidual leave it on: they observe the exact checks that run. ExactLocal
// solves keep exact checks — the direct subdomain solves do not produce an
// update norm.
func newResidualState(opt Options, exactLocal bool, scratch []float64, rows func(r, x []float64)) *residualState {
	rs := &residualState{scratch: scratch, rows: rows, every: opt.ResidualEvery, tol: opt.Tolerance}
	if opt.Tolerance <= 0 || opt.RecordHistory || exactLocal {
		rs.every = 0
	}
	return rs
}

// exact computes ‖b−Ax‖₂ into the scratch. Wherever the rows ran, the norm
// is one serial Nrm2 in row order, so the value is bit-identical to
// residualInto.
func (rs *residualState) exact(a *sparse.CSR, b, x []float64) float64 {
	if rs.rows == nil {
		return residualInto(rs.scratch, a, b, x)
	}
	rs.rows(rs.scratch, x)
	return vecmath.Nrm2(rs.scratch)
}

// skip reports whether iteration iter may defer the exact residual check:
// only strictly between checkpoints, with a finite nonzero update norm and
// an incremental estimate still clearly above the tolerance.
func (rs *residualState) skip(iter, maxIters int, delta2 float64) bool {
	if rs == nil || rs.every <= 1 || iter >= maxIters || iter%rs.every == 0 {
		return false
	}
	if !rs.haveExact || rs.lastDelta <= 0 {
		return false
	}
	if !(delta2 > 0) || math.IsInf(delta2, 0) {
		// Stagnation, NaN or overflow in the update: resolve it with an
		// exact check (divergence detection must not be deferred).
		return false
	}
	est := rs.lastExact * (math.Sqrt(delta2) / rs.lastDelta)
	return est > rs.tol
}

// checkResidual updates res with the current residual; it returns stop=true
// when the tolerance is met or the iteration has left the finite range.
// delta2 is the summed squared block-update norm of the iteration (the
// estimate anchor); rs must be non-nil.
func checkResidual(a *sparse.CSR, b, x []float64, opt Options, res *Result, iter int, delta2 float64, rs *residualState) (bool, error) {
	res.GlobalIterations = iter
	wantStop := opt.RecordHistory || opt.Tolerance != 0
	if !wantStop && opt.Metrics == nil && opt.OnResidual == nil {
		return false, nil
	}
	r := rs.exact(a, b, x)
	rs.lastExact, rs.lastDelta, rs.haveExact = r, math.Sqrt(delta2), true
	res.Residual = r
	opt.Metrics.pushResidual(r)
	if opt.OnResidual != nil {
		opt.OnResidual(iter, r)
	}
	if opt.RecordHistory {
		res.History = append(res.History, r)
	}
	if !wantStop {
		// Residual tracing (Metrics, OnResidual) must not alter control
		// flow: with Tolerance 0 the stopping test (and its divergence
		// error) stays disabled, exactly as for an uninstrumented run.
		return false, nil
	}
	if math.IsNaN(r) || math.IsInf(r, 0) {
		return true, fmt.Errorf("%w after %d global iterations", ErrDiverged, iter)
	}
	if opt.Tolerance > 0 && r <= opt.Tolerance {
		res.Converged = true
		return true, nil
	}
	return false, nil
}
