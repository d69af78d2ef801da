package core

import (
	"sync"

	"repro/internal/sched"
)

// solveGoroutine runs the truly asynchronous engine: every global iteration
// dispatches all blocks (in a seeded chaotic order) to a pool of workers —
// one per simulated multiprocessor — that read and write the shared iterate
// through per-component atomics with no further coordination. Concurrent
// blocks observe each other's partial progress nondeterministically,
// reproducing the chaotic interleavings of CUDA stream execution; only the
// end of the global iteration is a barrier, so the iteration count and the
// residual history remain well defined (the paper's measurement unit).
//
// With Options.Record set, each worker appends one sched.Event per block
// it executes; the slot reservation in the recorder's ring is the commit
// order, so the captured stream is a total order of the run's block
// executions. With Options.Replay set, the engine replays such a capture
// deterministically on the inline executor: one recorded event at a time
// against the live iterate, so every block reads exactly what the recorded
// predecessors wrote and any two replays of one schedule are bit-identical.
func solveGoroutine(p *Plan, b []float64, opt Options) (Result, error) {
	nb := p.NumBlocks()
	workers := max(min(opt.Workers, nb), 1)
	if opt.Replay != nil {
		return solveReplay(p, b, opt, "goroutine", workers)
	}
	r := newBarrier(p, b, opt, "goroutine", true)
	defer r.done()
	if opt.Record != nil {
		opt.Record.SetMeta(barrierMeta("goroutine", nb, workers, opt))
	}
	r.sched = newChaoticScheduler(opt, r.em, nb, r.is)
	pool := startBlockPool(r, workers)
	defer pool.stop()
	r.rows = pool.residualRows
	return runBarrier(r, pool.iterate)
}

// blockPool is the pool executor: persistent workers fed one task at a
// time, either a block of the running iteration's dispatch list or, after
// the barrier, the residual rows of one plan block; the WaitGroup is the
// barrier of each round.
type blockPool struct {
	r *barrier
	// iter and evs, or resid and x, are written before the first send of a
	// round and read by the workers after their receive (the send orders
	// them).
	iter     int
	evs      []sched.Event
	resid, x []float64
	work     chan int    // an index into evs, or ^bi: plan block bi's residual rows
	delta    atomicFloat // Σ‖Δx_J‖₂² of the running iteration
	wg       sync.WaitGroup
	done     sync.WaitGroup
}

func startBlockPool(r *barrier, workers int) *blockPool {
	pl := &blockPool{r: r, work: make(chan int)}
	pl.done.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer pl.done.Done()
			scr := r.p.getKernelScratch()
			defer r.p.putKernelScratch(scr)
			for i := range pl.work {
				// Once canceled, drain blocks without computing, so a chaos
				// Delay or a large kernel cannot stretch the cancellation
				// latency past the in-flight block. An exact local solve only
				// fails on a dimension mismatch, which the plan's construction
				// rules out. Residual rows always run: the check reads them all.
				switch {
				case i < 0:
					v := &r.p.views[^i]
					residualRows(pl.resid, r.p.a, r.b, pl.x, v.lo, v.hi)
				case !r.canceled():
					d2, _ := r.exec(pl.iter, &pl.evs[i], w, nil, scr)
					pl.delta.add(d2)
				}
				pl.wg.Done()
			}
		}()
	}
	return pl
}

func (pl *blockPool) iterate(iter int, evs []sched.Event) (float64, error) {
	pl.iter, pl.evs = iter, evs
	pl.delta.reset()
	for i := range evs {
		// Stop dispatching as soon as the context is done, so at most the
		// in-flight blocks (≤ workers) run to completion.
		if pl.r.canceled() {
			break
		}
		if pl.r.skipBlock(iter, int(evs[i].Block)) {
			continue
		}
		pl.wg.Add(1)
		pl.work <- i
	}
	pl.wg.Wait()
	return pl.delta.load(), nil
}

// residualRows is the pool's residual pass (barrier.rows): one task per
// plan block fills that block's rows of r with b − Ax.
func (pl *blockPool) residualRows(r, x []float64) {
	pl.resid, pl.x = r, x
	for bi := range pl.r.p.views {
		pl.wg.Add(1)
		pl.work <- ^bi
	}
	pl.wg.Wait()
}

func (pl *blockPool) stop() {
	close(pl.work)
	pl.done.Wait()
}
