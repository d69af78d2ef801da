package core

import (
	"fmt"
	"math/rand"

	"repro/internal/sched"
	"repro/internal/vecmath"
)

// raceSeed derives the per-component race RNG stream from the engine seed.
// Replay re-derives it from the schedule's recorded effective seed, which
// is what makes a simulated-engine replay reproduce the original coin
// flips exactly.
func raceSeed(seed int64) int64 { return seed ^ 0x5DEECE66D }

// solveReplay drives a barrier engine along a captured schedule: the replay
// scheduler on the inline executor, one global iteration per recorded epoch.
//
// The simulated engine reads through the capture's own views: a
// simulated-engine capture restores its stale masks and race-RNG stream,
// so the replay is bit-identical to the original run (same x, same
// residual history). A free-running capture has no global iterations — its
// epochs are worker-local sweep rounds — so its events replay as flat
// chunks of numBlocks events against the live iterate: each block reads
// everything its predecessors wrote, the sequential canonical execution of
// that schedule. The goroutine engine replays barrier captures against the
// live shared iterate, one event at a time, and rejects free-running ones.
func solveReplay(p *Plan, b []float64, opt Options, engine string, workers int) (Result, error) {
	s := opt.Replay
	nb := p.NumBlocks()
	if err := s.Validate(nb); err != nil {
		return Result{}, err
	}
	sim, flat := engine == "simulated", s.Meta.Engine == "freerunning"
	if flat && !sim {
		return Result{}, errReplayEngine(s.Meta.Engine, engine)
	}
	if err := checkReplaySweeps(s, p); err != nil {
		return Result{}, err
	}
	if opt.Record != nil {
		meta := s.Meta
		if !sim {
			meta = barrierMeta(engine, nb, workers, opt)
		}
		opt.Record.SetMeta(meta)
	}
	if s.Meta.Omega != 0 {
		opt.Omega = s.Meta.Omega
	}
	opt.Beta = replayBeta(s.Meta, opt.Beta)
	if sim {
		// A replayed simulated history must be bit-faithful, so it keeps
		// the exact per-iteration residual (ResidualEvery is a live-solve
		// optimization).
		opt.ResidualEvery = 0
	}
	r := newBarrier(p, b, opt, engine, !sim)
	defer r.done()
	rs := &replayScheduler{em: r.em}
	for ev := s.Events; len(ev) > 0; {
		k := min(nb, len(ev))
		if !flat {
			for k = 1; k < len(ev) && ev[k].Epoch == ev[0].Epoch; k++ {
			}
		}
		rs.epochs = append(rs.epochs, ev[:k])
		ev = ev[k:]
	}
	if sim && !flat {
		rs.x, rs.snap = r.x, r.is.snap
		rs.mix = &mixReader{live: r.x, snap: r.is.snap, rng: rand.New(rand.NewSource(raceSeed(s.Meta.Seed)))}
		rs.snapRead = sliceReader(r.is.snap)
	}
	r.sched, r.replay, r.maxIters = rs, true, len(rs.epochs)
	return runBarrier(r, r.runInline)
}

// replayScheduler is the BlockScheduler of a replay: the captured events
// grouped into one dispatch list per global iteration. With x set (the
// simulated engine replaying a barrier capture) each event reads as
// recorded: the iteration-start snapshot when its Shift is set, the race
// mixer reseeded from the capture otherwise; without x every event reads
// the live iterate.
type replayScheduler struct {
	epochs   [][]sched.Event
	em       *engineCounters
	x, snap  []float64
	mix      *mixReader
	snapRead IterateView
}

func (s *replayScheduler) BeginIteration(iter int) []sched.Event {
	if s.x != nil {
		vecmath.Copy(s.snap, s.x)
	}
	return s.epochs[iter-1]
}

func (s *replayScheduler) View(iter int, e *sched.Event) IterateView {
	switch {
	case s.x == nil:
		return nil
	case e.Shift > 0:
		s.em.addStaleRead()
		return s.snapRead
	}
	return s.mix
}

// errReplayEngine reports a schedule handed to an engine that cannot
// honor its structure.
func errReplayEngine(captured, replaying string) error {
	return fmt.Errorf("core: cannot replay a %q capture through the %s engine (no global iterations to group by); use the simulated engine or ReplayFreeRunning", captured, replaying)
}

// checkReplaySweeps verifies that the schedule's local-solve kinds match
// the plan: Sweeps == 0 events are exact local solves and need the plan's
// LU factors; Sweeps > 0 events need the Jacobi path.
func checkReplaySweeps(s *sched.Schedule, p *Plan) error {
	for i, e := range s.Events {
		if e.Sweeps == 0 && p.factors == nil {
			return fmt.Errorf("core: replay event %d is an exact local solve but the plan has no LU factors (build the plan with exactLocal)", i)
		}
		if e.Sweeps < 0 {
			return fmt.Errorf("core: replay event %d has negative sweep count %d", i, e.Sweeps)
		}
	}
	return nil
}
