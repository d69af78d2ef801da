package core

import (
	"math/rand"

	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/vecmath"
)

// freshProb is the probability that an off-block read observes the current
// sweep's value of a component instead of the previous sweep's. On the
// modeled hardware most blocks of a kernel are resident concurrently, so
// same-sweep values are the exception; the value is calibrated so the
// run-to-run convergence variation matches the paper's §4.1 measurements
// (Trefethen_2000 ≈ 10–20% near convergence, fv1 a few percent at most).
const freshProb = 0.2

// solveSimulated runs the deterministic engine: blocks execute sequentially
// in the chaotic order produced by the seeded gpusim.Scheduler, and their
// off-block reads model the memory visibility of a GPU kernel sweep:
//
//   - most reads observe the previous sweep's value (the blocks of a
//     kernel are dispatched nearly simultaneously, so same-sweep values
//     are rarely visible);
//   - each component read independently races with its writer: with
//     probability freshProb the reader observes the current sweep's value
//     if the source block has already executed (the "block Gauss-Seidel
//     flavor" of paper §3.3). The per-component granularity matters: the
//     coin noise averages out within a block, so the surviving run-to-run
//     variation is driven by the *scheduling order* — which recurs across
//     iterations (gpusim.Scheduler) — and scales with the off-block
//     coupling mass, reproducing the paper's §4.1 contrast between fv1
//     and Trefethen_2000;
//   - StaleProb > 0 adds extra chaos: with that probability a block reads
//     the iteration-start snapshot outright (a maximally late dispatch).
//
// Everything is driven by opt.Seed, so runs are exactly reproducible.
func solveSimulated(p *Plan, b []float64, opt Options) (Result, error) {
	if opt.Replay != nil {
		return solveReplay(p, b, opt, "simulated", 1)
	}
	nb := p.NumBlocks()
	r := newBarrier(p, b, opt, "simulated", false)
	defer r.done()
	if opt.Record != nil {
		// A single sequential executor records Worker 0 / Workers 1: a
		// free-running replay of the capture degenerates to one worker
		// executing the events in order, exactly the recorded semantics.
		opt.Record.SetMeta(barrierMeta("simulated", nb, 1, opt))
	}
	if opt.RecordTrace {
		r.trace = &Trace{UpdatesPerBlock: make([]int, nb), ShiftCounts: make(map[int]int64)}
		r.version = make([]int, nb)
	}
	r.sched = newWaveScheduler(opt, r.em, nb, r.x, r.is)
	return runBarrier(r, r.runInline)
}

// waveScheduler is the BlockScheduler of the simulated engine: the chaotic
// scheduler's seeded order, plus the modeled memory visibility of a GPU
// kernel sweep — an iteration-start snapshot, a per-block stale mask, and
// a per-component race mixer (see solveSimulated for the calibration
// story). The chaos StaleRead hook folds into the mask; the pseudo-random
// draw sequence (order, then mask, then per-read coins) is part of the
// engine's reproducibility contract and must not be reordered.
type waveScheduler struct {
	*chaoticScheduler
	staleProb float64
	x, snap   []float64
	stale     []bool
	mix       *mixReader
	snapRead  IterateView
}

func newWaveScheduler(opt Options, em *engineCounters, nb int, x []float64, is *iterScratch) *waveScheduler {
	return &waveScheduler{
		chaoticScheduler: newChaoticScheduler(opt, em, nb, is),
		staleProb:        opt.StaleProb,
		x:                x,
		snap:             is.snap,
		stale:            is.stale,
		mix:              &mixReader{live: x, snap: is.snap, rng: rand.New(rand.NewSource(raceSeed(opt.Seed)))},
		snapRead:         sliceReader(is.snap),
	}
}

func (s *waveScheduler) BeginIteration(iter int) []sched.Event {
	vecmath.Copy(s.snap, s.x)
	evs := s.chaoticScheduler.BeginIteration(iter)
	s.stale = s.g.StaleMaskInto(s.stale, s.nb, s.staleProb)
	return evs
}

func (s *waveScheduler) View(iter int, e *sched.Event) IterateView {
	bi := int(e.Block)
	if s.chaos.staleRead(s.em, iter, bi) {
		s.stale[bi] = true
	}
	if !s.stale[bi] {
		return s.mix
	}
	s.em.addStaleRead()
	e.Shift = 1
	return s.snapRead
}

// mixReader yields, per component, the current sweep's value (live) with
// probability freshProb and the previous sweep's value (snap) otherwise.
// In the sequential emulation the live vector holds a source block's new
// value only if that block has already executed this iteration, so early
// positions in the schedule naturally see less fresh data — the mechanism
// through which the (recurring) schedule shapes each run's trajectory.
type mixReader struct {
	live, snap []float64
	rng        *rand.Rand
}

func (m *mixReader) Load(j int) float64 {
	if m.fresh() {
		return m.live[j]
	}
	return m.snap[j]
}

// fresh draws one read's coin: true, with probability freshProb, when the
// read observes the live value. Kept out of Load so Load stays small
// enough to inline into the kernels' gather loop.
func (m *mixReader) fresh() bool { return m.rng.Float64() < freshProb }

// countingReader wraps a valueReader to record Chazan–Miranker shift
// statistics: for every off-block read it computes how many global
// iterations stale the observed value is.
type countingReader struct {
	inner        valueReader
	trace        *Trace
	stale        bool // read from the global-iteration-start snapshot
	iter         int
	blockVersion []int
	part         sparse.BlockPartition
}

func (c *countingReader) Load(j int) float64 {
	c.trace.TotalReads++
	src := c.part.BlockOf(j)
	ver := c.blockVersion[src]
	if c.stale {
		// Iteration-start snapshot: the value predates every write of this
		// iteration even if the source block has since been updated.
		if ver >= c.iter {
			ver = c.iter - 1
		}
		c.trace.StaleReads++
	}
	// Mixed reads may also predate a same-iteration write of the source
	// block; that is at most one global iteration of staleness, which the
	// blockVersion bookkeeping already bounds. Shift: a value written
	// during this iteration has shift 0; the previous sweep's value has
	// shift 1; the initial vector read at iteration k has shift k ≤ k,
	// satisfying the initial-step condition s(k,i) ≤ k.
	shift := c.iter - ver
	if shift > c.trace.MaxShift {
		c.trace.MaxShift = shift
	}
	if c.trace.ShiftCounts != nil {
		c.trace.ShiftCounts[shift]++
	}
	return c.inner.Load(j)
}

// residualInto computes ‖b−Ax‖₂ using r as scratch (len(b) elements).
func residualInto(r []float64, a *sparse.CSR, b, x []float64) float64 {
	residualRows(r, a, b, x, 0, len(b))
	return vecmath.Nrm2(r)
}

// residualRows fills r[lo:hi] with the residual rows b_i − (Ax)_i: the one
// residual formula of the exact checks, whichever executor runs them. Each
// row is sparse.CSR.RowDot, the row loop sparse.CSR.MulVec runs, so any
// split of the rows into ranges yields MulVec's bits.
func residualRows(r []float64, a *sparse.CSR, b, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		r[i] = b[i] - a.RowDot(i, x)
	}
}

func residual(a *sparse.CSR, b, x []float64) float64 {
	return residualInto(make([]float64, len(b)), a, b, x)
}
