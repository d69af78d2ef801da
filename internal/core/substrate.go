package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/gpusim"
	"repro/internal/sched"
	"repro/internal/sparse"
)

// This file is the shared execution substrate of the barrier engines. Each
// of them is the same algorithm — per global iteration, run every block
// once, k local sweeps against off-block values of some age — and
// runBarrier is its one loop: the context checks, the dispatch list, the
// end-of-iteration barrier, AfterIteration, the ResidualEvery gate, the
// copy-out, the residual check with its history and the final residual.
// An engine is a (scheduler, executor) pair handed to that loop:
//
//	engine                        scheduler                       executor
//	EngineSimulated               wave: snapshots, race coins     inline
//	EngineGoroutine               chaotic: live reads             pool (blocks and residual rows)
//	SolveSharded                  chaotic: shard views            shards
//	SolveSharded, Sequential      chaotic: shard views            inline
//	Replay, EngineSimulated       replay: the capture's views     inline
//	Replay, EngineGoroutine       replay: live reads              inline
//
// The scheduler (BlockScheduler) decides which blocks run, in what order,
// and what each one reads (IterateView). The executor decides where they
// run: in order on the solve's goroutine (inline), on a pool of workers
// (pool, engine_goroutine.go), or on one goroutine per shard (shards,
// engine_shard.go). It also decides where the exact residual check's rows
// b − Ax run: the pool's workers fill them after the barrier, one plan
// block per task; the inline and shard executors fill them on the solve's
// goroutine. Either way the norm is one serial Nrm2 in row order, so the
// residual of an iterate — and the stopping decision on it — has the same
// bits whichever executor computes it. The chaos hooks, SkipBlock, the
// record tap and the metrics counters live in the substrate, not in the
// engines. The free-running engine has no global iterations and stays
// separate (engine_freerun.go).

// IterateView is how a block execution observes components of the iterate:
// the read-semantics half of the execution substrate. The simulated engine
// reads through snapshots and per-component race mixers, the concurrent
// engines through the shared atomic vector, the multi-device executor
// through per-device exchange copies, and the cluster executor through a
// bounded-delay ring — all behind this one interface, which is also what
// the block kernels consume for their off-block (and local starting-value)
// reads.
type IterateView interface {
	// Load returns component i of the iterate as this view observes it.
	Load(i int) float64
}

// BlockScheduler is the scheduling half of the execution substrate: per
// global iteration it produces the dispatch list — which blocks run, in
// which order, with how many local sweeps — and per dispatched block the
// IterateView its reads go through. runBarrier drives one; the stock
// schedulers are the chaotic (seeded order, live reads), wave (the
// simulated engine's snapshots and race coins) and replay (a captured
// schedule's epochs) schedulers.
type BlockScheduler interface {
	// BeginIteration starts global iteration iter (1-based) and returns
	// its dispatch list: one sched.Event per block execution, Sweeps 0
	// meaning an exact local solve. The slice is valid until the next call.
	BeginIteration(iter int) []sched.Event
	// View returns the IterateView for one dispatched block's reads; nil
	// selects the executor's reads (the live iterate, or a shard's view).
	// It may annotate e: a read of the iteration-start snapshot sets
	// e.Shift.
	View(iter int, e *sched.Event) IterateView
}

// chaoticScheduler is the BlockScheduler of the concurrent engines: a
// seeded chaotic dispatch order (gpusim.Scheduler), the chaos Reorder hook
// applied to it, and nil views — staleness is physical, produced by the
// races of the executing workers.
type chaoticScheduler struct {
	g          *gpusim.Scheduler
	chaos      *ChaosHooks
	em         *engineCounters
	nb, sweeps int
	order      []int
	events     []sched.Event
}

// newChaoticScheduler builds the scheduler over the pooled order and
// dispatch buffers of is.
func newChaoticScheduler(opt Options, em *engineCounters, nb int, is *iterScratch) *chaoticScheduler {
	sweeps := opt.LocalIters
	if opt.ExactLocal {
		sweeps = 0
	}
	return &chaoticScheduler{
		g:      gpusim.NewScheduler(opt.Seed, opt.Recurrence),
		chaos:  opt.Chaos,
		em:     em,
		nb:     nb,
		sweeps: sweeps,
		order:  is.order,
		events: is.events,
	}
}

func (s *chaoticScheduler) BeginIteration(iter int) []sched.Event {
	s.order = s.g.OrderInto(s.order, s.nb)
	s.chaos.reorder(s.em, iter, s.order)
	s.events = s.events[:0]
	for _, bi := range s.order {
		s.events = append(s.events, sched.Event{Epoch: int32(iter), Block: int32(bi), Sweeps: int32(s.sweeps)})
	}
	return s.events
}

func (s *chaoticScheduler) View(iter int, e *sched.Event) IterateView { return nil }

// atomicFloat accumulates float64 contributions from concurrent workers
// (the per-iteration block-update norm of the pool and shard executors).
// The summation order is whatever the interleaving produces — acceptable
// for the incremental residual estimate, which only gates when an exact
// check runs.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (f *atomicFloat) reset() { f.bits.Store(0) }

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// barrier is one barrier-engine solve in flight: the state runBarrier and
// the executors share. The engine entry points differ only in how they
// fill it.
type barrier struct {
	p        *Plan
	b        []float64
	opt      Options
	sched    BlockScheduler
	em       *engineCounters
	kern     kernelFunc
	rule     *updateRule
	maxIters int
	// replay marks a replayed schedule: SkipBlock and Chaos are not
	// consulted (their effects are baked into the events), each block
	// counts as a replay event and is recorded as captured.
	replay bool

	// x is the iterate itself under slice storage (the simulated engine
	// and its replays), or the copy-out buffer of the shared atomic
	// iterate ax.
	x      []float64
	ax     *AtomicVector
	live   IterateView
	writer valueWriter
	access VectorAccess

	// shards puts the inline executor's blocks in their shard's lane (the
	// sequential sharded executor); nil otherwise.
	shards *shardSet
	// trace collects the simulated engine's Chazan–Miranker statistics;
	// version[q] is the global iteration whose sweep last wrote block q
	// (0: the initial values).
	trace   *Trace
	version []int

	// rows is the executor's residual pass: it fills r with b − Ax
	// (residualRows over row ranges) on the executor's own workers after
	// the barrier. nil, the inline and shard executors' choice, fills the
	// rows on the solve's goroutine.
	rows func(r, x []float64)

	is  *iterScratch
	scr *kernelScratch // the inline executor's
}

// newBarrier sets up one solve: the starting iterate (rounded for the
// storage precision) in plain or shared atomic storage, the update rule,
// the kernel and the pooled scratch, which done returns.
func newBarrier(p *Plan, b []float64, opt Options, engine string, shared bool) *barrier {
	x := make([]float64, p.a.Rows)
	if opt.InitialGuess != nil {
		copy(x, opt.InitialGuess)
	}
	roundIterate(opt.Precision, x)
	r := &barrier{
		p: p, b: b, opt: opt,
		em:       opt.Metrics.engine(engine),
		kern:     p.kernelFor(opt.referenceKernel),
		rule:     newUpdateRule(opt.Method, opt.Omega, opt.Beta, opt.Precision, x, opt.MomentumGuess),
		maxIters: opt.MaxGlobalIters,
		x:        x,
		is:       p.getIterScratch(),
		scr:      p.getKernelScratch(),
	}
	// The interface conversions happen once here, not in the block loop:
	// boxing a slice allocates.
	if shared {
		r.ax = NewAtomicVector(x)
		r.live, r.writer, r.access = r.ax, r.ax, atomicAccess{r.ax}
	} else {
		r.live, r.writer, r.access = sliceReader(x), sliceWriter(x), sliceAccess(x)
	}
	// Under f32 storage every published component is rounded, the
	// AfterIteration hook's writes included.
	r.writer = iterateWriter(opt.Precision, r.writer)
	r.access = iterateAccess(opt.Precision, r.access)
	return r
}

func (r *barrier) done() {
	r.p.putIterScratch(r.is)
	r.p.putKernelScratch(r.scr)
}

// host returns the iterate as a plain slice, copying the shared atomic
// iterate out first.
func (r *barrier) host() []float64 {
	if r.ax != nil {
		r.ax.CopyInto(r.x)
	}
	return r.x
}

func (r *barrier) canceled() bool { return r.opt.Ctx != nil && r.opt.Ctx.Err() != nil }

// skipBlock consults Options.SkipBlock (never during a replay).
func (r *barrier) skipBlock(iter, block int) bool {
	if r.replay || r.opt.SkipBlock == nil || !r.opt.SkipBlock(iter, block) {
		return false
	}
	if r.trace != nil {
		r.trace.SkippedUpdates++
	}
	return true
}

// runBarrier is the global-iteration loop of every barrier engine. iterate
// is the executor: it runs one iteration's dispatch list, returns once
// every block it started has finished — the end-of-iteration barrier — or
// stops dispatching early when the context is done, and reports the
// iteration's summed squared block-update norm Σ‖Δx_J‖₂².
func runBarrier(r *barrier, iterate func(iter int, evs []sched.Event) (float64, error)) (Result, error) {
	opt, a := r.opt, r.p.a
	res := Result{NumBlocks: r.p.NumBlocks(), Trace: r.trace}
	if opt.RecordHistory {
		res.History = make([]float64, 0, r.maxIters)
	}
	rs := newResidualState(opt, r.p.factors != nil, r.is.resid, r.rows)
	for iter := 1; iter <= r.maxIters; iter++ {
		var delta2 float64
		err := ctxErr(opt.Ctx, iter-1)
		if err == nil {
			delta2, err = iterate(iter, r.sched.BeginIteration(iter))
		}
		if err == nil {
			err = ctxErr(opt.Ctx, iter-1)
		}
		if err != nil {
			res.X = r.host()
			return res, err
		}
		r.em.addIteration()
		if r.trace != nil {
			r.trace.GlobalIterations = iter
		}
		if opt.AfterIteration != nil {
			opt.AfterIteration(iter, r.access)
		}
		if rs.skip(iter, r.maxIters, delta2) {
			res.GlobalIterations = iter
			continue
		}
		stop, err := checkResidual(a, r.b, r.host(), opt, &res, iter, delta2, rs)
		if err != nil {
			res.X = r.x
			return res, err
		}
		if stop {
			break
		}
	}
	res.X = r.host()
	res.Momentum = r.rule.prev
	if !opt.RecordHistory && opt.Tolerance == 0 {
		res.Residual = rs.exact(a, r.b, res.X)
	}
	return res, nil
}

// runInline is the inline executor: the dispatch list runs in order on the
// solve's goroutine. Under the sequential sharded executor each block runs
// in its shard's lane: skipped with its shard, reading through the shard's
// view, recorded under the shard's index.
func (r *barrier) runInline(iter int, evs []sched.Event) (float64, error) {
	var delta2 float64
	sh := r.shards
	if sh != nil {
		sh.begin(iter, true)
	}
	for i := range evs {
		e := &evs[i]
		worker, read := 0, IterateView(nil)
		if sh != nil {
			s := sh.blockShard[e.Block]
			if sh.lanes[s].skip {
				continue
			}
			worker, read = s, sh.lanes[s].read
		}
		// Per-block cancellation check: a global iteration over many blocks
		// (Trefethen_2000 at small block sizes has hundreds) can take
		// arbitrarily long, so waiting for the iteration boundary would make
		// cancellation latency O(n/blockSize) sweeps.
		if r.canceled() {
			break
		}
		if r.skipBlock(iter, int(e.Block)) {
			continue
		}
		d2, err := r.exec(iter, e, worker, read, r.scr)
		if err != nil {
			return 0, err
		}
		delta2 += d2
	}
	if sh != nil {
		for s := range sh.lanes {
			sh.publish(s, iter)
		}
	}
	return delta2, nil
}

// exec runs one dispatched block: the scheduler's view (else read, else
// the live iterate), the chaos delay, the kernel or exact local solve, and
// the taps — counters, the recorded event, the trace. It returns the
// block's squared update norm (0 for an exact local solve). It is called
// concurrently by the pool and shard executors, whose solves carry no
// trace.
func (r *barrier) exec(iter int, e *sched.Event, worker int, read IterateView, scr *kernelScratch) (float64, error) {
	bi := int(e.Block)
	if v := r.sched.View(iter, e); v != nil {
		read = v
	} else if read == nil {
		read = r.live
	}
	if !r.replay {
		r.opt.Chaos.delay(r.em, iter, bi)
	}
	if r.trace != nil {
		read = &countingReader{inner: read, trace: r.trace, stale: e.Shift > 0,
			iter: iter, blockVersion: r.version, part: r.p.part}
	}
	a, v := r.p.a, &r.p.views[bi]
	var d2 float64
	if e.Sweeps == 0 {
		if err := runBlockExact(a, r.b, v, r.p.factors.lu[bi], read, r.writer, scr); err != nil {
			return 0, err
		}
	} else {
		d2 = r.kern(a, r.p.sp, r.b, v, int(e.Sweeps), r.rule, read, read, r.writer, scr)
	}
	r.em.addBlockSweep()
	if r.replay {
		r.em.addReplayEvent()
	}
	if r.opt.Record != nil {
		ev := *e
		if !r.replay {
			ev.Worker = int16(worker)
		}
		r.opt.Record.Append(ev)
	}
	if r.trace != nil {
		r.version[bi] = iter
		r.trace.UpdatesPerBlock[bi]++
	}
	return d2, nil
}

// validateSystem checks the system shape every engine entry point requires:
// a square matrix and a matching right-hand side.
func validateSystem(a *sparse.CSR, b []float64) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("core: matrix must be square, have %dx%d", a.Rows, a.Cols)
	}
	if len(b) != a.Rows {
		return fmt.Errorf("core: rhs length %d does not match dimension %d", len(b), a.Rows)
	}
	return nil
}

// validateGuess checks an optional initial guess against the dimension.
func validateGuess(n int, guess []float64) error {
	if guess != nil && len(guess) != n {
		return fmt.Errorf("core: initial guess length %d does not match dimension %d", len(guess), n)
	}
	return nil
}

// barrierMeta describes a barrier-engine capture (simulated, goroutine,
// sharded): the one metadata shape all engines with global iterations
// share, so replays can re-derive seeds and sweep counts uniformly.
func barrierMeta(engine string, nb, workers int, opt Options) sched.Meta {
	return sched.Meta{
		Engine:     engine,
		NumBlocks:  nb,
		Workers:    workers,
		Seed:       opt.Seed,
		Omega:      opt.Omega,
		LocalIters: opt.LocalIters,
		Recurrence: opt.Recurrence,
		StaleProb:  opt.StaleProb,
		Method:     opt.Method.String(),
		Beta:       opt.Beta,
	}
}
