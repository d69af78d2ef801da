package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sched"
	"repro/internal/sparse"
)

// FreeRunningOptions configures SolveFreeRunning, the fully asynchronous
// extension engine: there is no global barrier. Each worker owns a fixed
// set of blocks and sweeps them in a loop until the convergence monitor
// confirms the tolerance or the update budget is exhausted. The only
// coordination is a bounded lead — a worker blocks while it is two sweep
// rounds ahead of the slowest (the Chazan–Miranker fairness condition,
// enforced instead of hoped for) — and the brief pause of the workers
// while the monitor confirms a converged-looking residual on a consistent
// iterate. Within those bounds the update function u(·) is whatever the Go
// scheduler produces: the purest software realization of chaotic
// relaxation, and a demonstration of the paper's Exascale argument that
// progress continues regardless of relative worker speeds.
type FreeRunningOptions struct {
	BlockSize  int
	LocalIters int
	// MaxBlockUpdates bounds the total number of block kernel executions
	// across all workers. Required > 0.
	MaxBlockUpdates int64
	// Tolerance is the absolute l2 residual target checked by the monitor.
	// Required > 0 (a free-running solve needs a stopping rule). The run
	// stops only once the tolerance holds on the quiesced iterate, which
	// is the iterate it returns.
	Tolerance float64
	// Workers defaults to 14 (Fermi multiprocessor count).
	Workers int
	// Precision selects the iterate storage precision — "" / PrecF64 for
	// exact doubles, PrecF32 for float32 iterate storage with float64
	// accumulation and residual checks (see precision.go).
	Precision string
	// Method and Beta select the update rule, with the Options semantics:
	// RuleRichardson2 with non-zero Beta adds the heavy-ball momentum term
	// to every sweep (the free-running ω stays the paper's literal 1). A
	// zero Beta runs the first-order path bit-identically to RuleJacobi.
	Method RuleKind
	Beta   float64
	// CheckEvery is the number of block updates between monitor residual
	// checks; default max(numBlocks, 64).
	CheckEvery   int64
	InitialGuess []float64
	// Ctx, if non-nil, stops the free-running workers as soon as it is
	// done; the solve then returns the partial iterate and an error
	// wrapping ErrCanceled. A nil Ctx never cancels.
	Ctx context.Context

	// Record, if non-nil, captures the executed block schedule: each
	// worker appends one sched.Event per block sweep, the recorder ring's
	// slot reservation defining the commit order.
	Record *sched.Recorder
	// Replay, if non-nil, re-executes a captured schedule
	// deterministically: the capture's worker count is re-created and a
	// turn gate (the injected yield point) sequences the workers through
	// the recorded event order, each block executing exclusively. Any two
	// replays of one schedule produce bit-identical iterates.
	// MaxBlockUpdates and the convergence monitor are ignored — the
	// schedule itself bounds the work.
	Replay *sched.Schedule
	// Chaos, if non-nil, injects delays before block sweeps (only the
	// Delay hook applies: a free-running run has no dispatch order to
	// reorder and its staleness is physical). Ignored during replay.
	Chaos *ChaosHooks

	// Metrics, if non-nil, receives the "freerunning" engine counters
	// (block sweeps, chaos injections, replay events) and every residual
	// the convergence monitor computes. A free-running run has no global
	// iterations, so that counter stays 0 — EquivalentGlobalIters is the
	// comparable unit.
	Metrics *SolveMetrics

	// referenceKernel pins the workers to the pre-staging reference block
	// kernel (see Options.referenceKernel).
	referenceKernel bool
}

// FreeRunningResult reports a free-running solve.
type FreeRunningResult struct {
	X            []float64
	BlockUpdates int64 // total kernel executions performed
	Residual     float64
	Converged    bool
	// EquivalentGlobalIters is BlockUpdates divided by the block count —
	// the comparable unit to Result.GlobalIterations.
	EquivalentGlobalIters float64
	// Momentum is the final momentum trail of a non-zero-Beta run (see
	// Result.Momentum); nil on the first-order path.
	Momentum []float64
}

// validate checks a free-running configuration against the system; the one
// validation path both entry points share (the substrate's satellite
// dedupe: SolveFreeRunning and SolveFreeRunningWithPlan used to carry
// diverging copies of these checks).
func (o FreeRunningOptions) validate(a *sparse.CSR, b []float64) error {
	if err := validateSystem(a, b); err != nil {
		return err
	}
	if o.BlockSize <= 0 || o.LocalIters <= 0 {
		return fmt.Errorf("core: BlockSize and LocalIters must be positive, have %d, %d",
			o.BlockSize, o.LocalIters)
	}
	if o.MaxBlockUpdates <= 0 && o.Replay == nil {
		return fmt.Errorf("core: MaxBlockUpdates must be positive, have %d", o.MaxBlockUpdates)
	}
	if o.Tolerance <= 0 && o.Replay == nil {
		// A live free-running solve needs a stopping rule; a replay is
		// bounded by its schedule, so the tolerance is optional there.
		return fmt.Errorf("core: free-running solve requires a positive Tolerance")
	}
	if err := validatePrecision(o.Precision); err != nil {
		return err
	}
	if err := validateRule(o.Method, o.Beta); err != nil {
		return err
	}
	return validateGuess(a.Rows, o.InitialGuess)
}

// SolveFreeRunning runs the barrier-free asynchronous iteration.
func SolveFreeRunning(a *sparse.CSR, b []float64, opt FreeRunningOptions) (FreeRunningResult, error) {
	if err := opt.validate(a, b); err != nil {
		return FreeRunningResult{}, err
	}
	plan, err := NewPlan(a, opt.BlockSize, false)
	if err != nil {
		return FreeRunningResult{}, err
	}
	return SolveFreeRunningWithPlan(plan, b, opt)
}

// SolveFreeRunningWithPlan runs the barrier-free iteration on a prepared
// plan, amortizing the per-matrix setup across solves the way SolveWithPlan
// does for the barrier engines. opt.BlockSize must be 0 or match the plan.
func SolveFreeRunningWithPlan(plan *Plan, b []float64, opt FreeRunningOptions) (FreeRunningResult, error) {
	a := plan.a
	if opt.BlockSize == 0 {
		opt.BlockSize = plan.blockSize
	}
	if opt.BlockSize != plan.blockSize {
		return FreeRunningResult{}, fmt.Errorf("core: option BlockSize %d does not match the plan's %d",
			opt.BlockSize, plan.blockSize)
	}
	if err := opt.validate(a, b); err != nil {
		return FreeRunningResult{}, err
	}
	if opt.Metrics != nil {
		defer func(start time.Time) {
			opt.Metrics.observeSolve("freerunning", time.Since(start))
		}(time.Now())
	}
	if opt.Replay != nil {
		return replayFreeRunning(plan, b, opt)
	}
	sp, part, views := plan.sp, plan.part, plan.views
	nb := part.NumBlocks()

	workers := opt.Workers
	if workers == 0 {
		workers = 14
	}
	if workers > nb {
		workers = nb
	}
	if opt.Record != nil {
		opt.Record.SetMeta(sched.Meta{
			Engine:     "freerunning",
			NumBlocks:  nb,
			Workers:    workers,
			Omega:      1,
			LocalIters: opt.LocalIters,
			Method:     opt.Method.String(),
			Beta:       opt.Beta,
		})
	}
	checkEvery := opt.CheckEvery
	if checkEvery <= 0 {
		checkEvery = int64(nb)
		if checkEvery < 64 {
			checkEvery = 64
		}
	}

	n := a.Rows
	start := make([]float64, n)
	if opt.InitialGuess != nil {
		copy(start, opt.InitialGuess)
	}
	roundIterate(opt.Precision, start)
	x := NewAtomicVector(start)
	writer := iterateWriter(opt.Precision, valueWriter(x))
	kern := plan.kernelFor(opt.referenceKernel)
	rule := newUpdateRule(opt.Method, 1, opt.Beta, opt.Precision, start, nil)
	em := opt.Metrics.engine("freerunning")

	f := &freeRun{rounds: make([]int, workers)}
	f.cond = sync.NewCond(&f.mu)
	xs := make([]float64, n)
	r := make([]float64, n)
	// check is the convergence monitor, run by the worker whose update
	// reservation lands on a multiple of checkEvery. The snapshot it copies
	// races with the other workers' writes, so a snapshot that looks
	// converged is confirmed on the quiesced iterate; only that stops the
	// run, which then ends on exactly the confirmed iterate. A shortfall
	// lets the workers resume.
	converged := func() bool {
		x.CopyInto(xs)
		nrm := residualInto(r, a, b, xs)
		opt.Metrics.pushResidual(nrm)
		return nrm <= opt.Tolerance || math.IsNaN(nrm) || math.IsInf(nrm, 0)
	}
	check := func() {
		if !f.monitor.TryLock() {
			return // a check is already running
		}
		defer f.monitor.Unlock()
		if converged() {
			f.quiesce.Lock()
			if converged() {
				f.halt()
			}
			f.quiesce.Unlock()
		}
	}

	// Context watcher: stops the workers at their next block boundary.
	watcherDone := make(chan struct{})
	if opt.Ctx != nil {
		go func() {
			select {
			case <-opt.Ctx.Done():
				f.canceled.Store(true)
				f.halt()
			case <-watcherDone:
			}
		}()
	}

	// Workers: worker w owns blocks w, w+workers, w+2·workers, ... and
	// sweeps them round-robin, satisfying fairness (condition 1). Relative
	// progress is left to the Go scheduler within the maxLead bound.
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer f.exit(w)
			scr := plan.getKernelScratch()
			defer plan.putKernelScratch(scr)
			for round := 1; f.await(w); round++ {
				for bi := w; bi < nb; bi += workers {
					f.quiesce.RLock()
					u := f.updates.Add(1)
					if f.stop.Load() || u > opt.MaxBlockUpdates {
						f.updates.Add(-1)
						f.quiesce.RUnlock()
						f.halt()
						return
					}
					opt.Chaos.delay(em, round, bi)
					kern(a, sp, b, &views[bi], opt.LocalIters, rule, x, x, writer, scr)
					em.addBlockSweep()
					if opt.Record != nil {
						opt.Record.Append(sched.Event{
							Epoch: int32(round), Block: int32(bi),
							Sweeps: int32(opt.LocalIters), Worker: int16(w),
						})
					}
					f.quiesce.RUnlock()
					if u%checkEvery == 0 {
						check()
					}
				}
				f.endRound(w)
			}
		}()
	}
	wg.Wait()
	close(watcherDone)

	res := FreeRunningResult{
		X:            x.Snapshot(),
		BlockUpdates: f.updates.Load(),
		Momentum:     rule.prev,
	}
	res.EquivalentGlobalIters = float64(res.BlockUpdates) / float64(nb)
	res.Residual = residual(a, b, res.X)
	if math.IsNaN(res.Residual) || math.IsInf(res.Residual, 0) {
		return res, fmt.Errorf("%w after %d block updates", ErrDiverged, res.BlockUpdates)
	}
	res.Converged = res.Residual <= opt.Tolerance
	if !res.Converged && f.canceled.Load() {
		return res, fmt.Errorf("%w after %d block updates: %w", ErrCanceled, res.BlockUpdates, opt.Ctx.Err())
	}
	return res, nil
}

// maxLead is how many sweep rounds a free-running worker may run ahead of
// the slowest running worker. Without a bound, on a loaded host one worker
// can spend the whole update budget while the others sit in the run queue
// of a descheduled processor; a worker that reaches the bound blocks, so
// an idle processor picks up the lagging one.
const maxLead = 2

// freeRun is the coordination state of one live free-running solve.
type freeRun struct {
	mu     sync.Mutex
	cond   *sync.Cond // signals round completions, exits and the stop
	rounds []int      // completed rounds per worker; math.MaxInt once exited

	stop     atomic.Bool // set under mu, so a waiter cannot miss it
	canceled atomic.Bool
	updates  atomic.Int64
	// quiesce is held shared across each block execution and exclusively
	// by a convergence check confirming on the quiesced iterate.
	quiesce sync.RWMutex
	monitor sync.Mutex // one convergence check at a time
}

// await blocks worker w while it is maxLead rounds ahead of the slowest
// running worker; it reports false once the run is stopped.
func (f *freeRun) await(w int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for !f.stop.Load() && f.rounds[w]-slices.Min(f.rounds) >= maxLead {
		f.cond.Wait()
	}
	return !f.stop.Load()
}

func (f *freeRun) endRound(w int) { f.update(func() { f.rounds[w]++ }) }

func (f *freeRun) exit(w int) { f.update(func() { f.rounds[w] = math.MaxInt }) }

func (f *freeRun) halt() { f.update(func() { f.stop.Store(true) }) }

// update applies change under the lock and wakes the waiting workers.
func (f *freeRun) update(change func()) {
	f.mu.Lock()
	change()
	f.mu.Unlock()
	f.cond.Broadcast()
}

// replayFreeRunning re-executes a captured schedule with the capture's
// worker topology. A sched.Gate hands out turns in recorded commit order:
// each worker blocks until the head event carries its worker index,
// executes the block exclusively, and passes the turn. Every off-block
// read therefore observes exactly the writes of the recorded
// predecessors, making the replay fully deterministic — and the gate's
// mutex gives the executions happens-before edges, so replays are clean
// under the race detector even though the live engine races by design.
func replayFreeRunning(plan *Plan, b []float64, opt FreeRunningOptions) (FreeRunningResult, error) {
	a, sp, part, views := plan.a, plan.sp, plan.part, plan.views
	nb := part.NumBlocks()
	s := opt.Replay
	if err := s.Validate(nb); err != nil {
		return FreeRunningResult{}, err
	}
	workers := s.Meta.Workers
	if workers < 1 {
		return FreeRunningResult{}, fmt.Errorf("core: replay schedule records %d workers; need at least 1", workers)
	}
	for i, e := range s.Events {
		if e.Worker < 0 || int(e.Worker) >= workers {
			return FreeRunningResult{}, fmt.Errorf("core: replay event %d: worker %d out of range [0,%d)", i, e.Worker, workers)
		}
	}

	n := a.Rows
	start := make([]float64, n)
	if opt.InitialGuess != nil {
		copy(start, opt.InitialGuess)
	}
	roundIterate(opt.Precision, start)
	x := NewAtomicVector(start)
	writer := iterateWriter(opt.Precision, valueWriter(x))
	kern := plan.kernelFor(opt.referenceKernel)
	rule := newUpdateRule(opt.Method, 1, replayBeta(s.Meta, opt.Beta), opt.Precision, start, nil)
	em := opt.Metrics.engine("freerunning")
	gate := sched.NewGate(s)
	owns := func(e sched.Event, w int) bool { return int(e.Worker) == w }
	if opt.Record != nil {
		opt.Record.SetMeta(s.Meta)
	}

	var (
		canceled atomic.Bool
		wg       sync.WaitGroup
	)
	watcherDone := make(chan struct{})
	if opt.Ctx != nil {
		go func() {
			select {
			case <-opt.Ctx.Done():
				canceled.Store(true)
			case <-watcherDone:
			}
		}()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			scr := plan.getKernelScratch()
			defer plan.putKernelScratch(scr)
			for {
				e, ok := gate.Next(w, owns)
				if !ok {
					return
				}
				if canceled.Load() {
					gate.Done()
					continue // drain the schedule without executing
				}
				sweeps := int(e.Sweeps)
				if sweeps <= 0 {
					sweeps = opt.LocalIters
				}
				kern(a, sp, b, &views[int(e.Block)], sweeps, rule, x, x, writer, scr)
				em.addBlockSweep()
				em.addReplayEvent()
				if opt.Record != nil {
					opt.Record.Append(e)
				}
				gate.Done()
			}
		}(w)
	}
	wg.Wait()
	close(watcherDone)

	xs := x.Snapshot()
	res := FreeRunningResult{
		X:            xs,
		BlockUpdates: int64(len(s.Events)),
		Momentum:     rule.prev,
	}
	res.EquivalentGlobalIters = float64(res.BlockUpdates) / float64(nb)
	res.Residual = residual(a, b, xs)
	if math.IsNaN(res.Residual) || math.IsInf(res.Residual, 0) {
		return res, fmt.Errorf("%w after %d block updates", ErrDiverged, res.BlockUpdates)
	}
	res.Converged = res.Residual <= opt.Tolerance
	if canceled.Load() {
		return res, fmt.Errorf("%w during replay: %w", ErrCanceled, opt.Ctx.Err())
	}
	return res, nil
}
