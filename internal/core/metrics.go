package core

import (
	"time"

	"repro/internal/metrics"
)

// EngineNames lists the engine labels SolveMetrics pre-registers, in the
// order the engines are documented: the three stock execution engines of
// the package plus the sharded executor behind the multi-device and
// cluster layers. One counter-name scheme covers them all (the core_*
// families below), keyed by this engine label.
var EngineNames = []string{"simulated", "goroutine", "freerunning", "sharded"}

// SolveMetrics is the solver-level observability sink behind
// Options.Metrics (and FreeRunningOptions.Metrics): per-engine counters
// registered in a metrics.Registry, a per-engine solve-duration histogram,
// and a bounded ring of the residuals of the exact checks. One SolveMetrics
// is meant to be shared across many solves (internal/service attaches a
// single instance to every job), so all methods are safe for concurrent use
// and nil-safe — a nil *SolveMetrics records nothing.
//
// The counters are pre-registered for every engine at construction, so a
// scrape of a freshly started daemon already exposes the full series set
// (at zero) rather than a schema that mutates as traffic arrives.
type SolveMetrics struct {
	ring    *metrics.Ring
	engines map[string]*engineCounters
}

// engineCounters is one engine's counter set. All methods are nil-safe so
// the engines can call them unconditionally.
type engineCounters struct {
	iterations      *metrics.Counter
	blockSweeps     *metrics.Counter
	staleReads      *metrics.Counter
	chaosInjections *metrics.Counter
	replayEvents    *metrics.Counter
	solveSeconds    *metrics.Histogram
}

// NewSolveMetrics registers the solver metric families in reg and returns
// the sink. residualRingCap bounds the retained residual history (≤ 0
// selects 256).
func NewSolveMetrics(reg *metrics.Registry, residualRingCap int) *SolveMetrics {
	if residualRingCap <= 0 {
		residualRingCap = 256
	}
	m := &SolveMetrics{
		ring:    metrics.NewRing(residualRingCap),
		engines: make(map[string]*engineCounters, len(EngineNames)),
	}
	for _, e := range EngineNames {
		m.engines[e] = &engineCounters{
			iterations: reg.Counter("core_global_iterations_total",
				"Completed global iterations (all blocks swept once).", "engine", e),
			blockSweeps: reg.Counter("core_block_sweeps_total",
				"Block kernel executions (one subdomain, k local sweeps).", "engine", e),
			staleReads: reg.Counter("core_stale_block_reads_total",
				"Blocks that read the iteration-start snapshot instead of live off-block values.", "engine", e),
			chaosInjections: reg.Counter("core_chaos_injections_total",
				"Chaos hook firings that perturbed the schedule (delay, reorder, forced-stale).", "engine", e),
			replayEvents: reg.Counter("core_replay_events_total",
				"Recorded schedule events re-executed during replay.", "engine", e),
			solveSeconds: reg.Histogram("core_solve_seconds",
				"Wall time per solve call.", nil, "engine", e),
		}
	}
	return m
}

// ResidualHistory returns the retained residuals of the exact checks,
// oldest-first: one per iteration unless Options.ResidualEvery spaces the
// checks. The ring spans solves: a sequence of short solves leaves their
// trailing residuals concatenated, which is exactly the "recent
// convergence behaviour" view a dashboard wants.
func (m *SolveMetrics) ResidualHistory() []float64 {
	if m == nil {
		return nil
	}
	return m.ring.Snapshot()
}

// LastResidual returns the most recent residual pushed by any solve.
func (m *SolveMetrics) LastResidual() (float64, bool) {
	if m == nil {
		return 0, false
	}
	return m.ring.Last()
}

// ResidualsObserved returns the total number of residuals ever pushed.
func (m *SolveMetrics) ResidualsObserved() uint64 {
	if m == nil {
		return 0
	}
	return m.ring.Total()
}

// engine returns the counter set for the named engine (nil on a nil sink).
func (m *SolveMetrics) engine(name string) *engineCounters {
	if m == nil {
		return nil
	}
	return m.engines[name]
}

// pushResidual appends one exact check's residual to the ring.
func (m *SolveMetrics) pushResidual(r float64) {
	if m != nil {
		m.ring.Push(r)
	}
}

// observeSolve records one solve call's wall time under the engine label.
func (m *SolveMetrics) observeSolve(engine string, d time.Duration) {
	if e := m.engine(engine); e != nil {
		e.solveSeconds.Observe(d.Seconds())
	}
}

func (e *engineCounters) addIteration() {
	if e != nil {
		e.iterations.Inc()
	}
}

func (e *engineCounters) addBlockSweep() {
	if e != nil {
		e.blockSweeps.Inc()
	}
}

func (e *engineCounters) addStaleRead() {
	if e != nil {
		e.staleReads.Inc()
	}
}

func (e *engineCounters) addChaos() {
	if e != nil {
		e.chaosInjections.Inc()
	}
}

func (e *engineCounters) addReplayEvent() {
	if e != nil {
		e.replayEvents.Inc()
	}
}
