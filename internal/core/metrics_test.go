package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/mats"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// TestSolveMetricsSimulated checks the deterministic engine's counter
// arithmetic: with MaxGlobalIters fixed and no stopping test, iterations,
// block sweeps and the residual ring are exact functions of the
// configuration.
func TestSolveMetricsSimulated(t *testing.T) {
	a := mats.Poisson2D(16, 16)
	b := onesRHS(a)
	reg := metrics.NewRegistry()
	sm := NewSolveMetrics(reg, 8)
	const iters = 3
	res, err := Solve(a, b, Options{
		BlockSize: 32, LocalIters: 2, MaxGlobalIters: iters,
		Seed: 7, Metrics: sm,
	})
	if err != nil {
		t.Fatal(err)
	}
	nb := res.NumBlocks
	em := sm.engine("simulated")
	if got := em.iterations.Value(); got != iters {
		t.Errorf("iterations counter = %d, want %d", got, iters)
	}
	if got := em.blockSweeps.Value(); got != uint64(iters*nb) {
		t.Errorf("block sweeps = %d, want %d", got, iters*nb)
	}
	if got := sm.ResidualsObserved(); got != iters {
		t.Errorf("residuals observed = %d, want %d (one per global iteration)", got, iters)
	}
	hist := sm.ResidualHistory()
	if len(hist) != iters {
		t.Fatalf("residual history length = %d, want %d", len(hist), iters)
	}
	for i := 1; i < len(hist); i++ {
		if hist[i] >= hist[i-1] {
			t.Errorf("residual did not decrease: history = %v", hist)
		}
	}
	if last, ok := sm.LastResidual(); !ok || last != hist[len(hist)-1] {
		t.Errorf("LastResidual = %g,%v, want %g,true", last, ok, hist[len(hist)-1])
	}
}

// TestSolveMetricsDoNotChangeResults pins the "observation is passive"
// contract: an instrumented solve must produce bit-identical iterates to an
// uninstrumented one with the same seed, even though Metrics and
// OnResidual force residual computation every iteration.
func TestSolveMetricsDoNotChangeResults(t *testing.T) {
	a := mats.Trefethen(600)
	b := onesRHS(a)
	base := Options{BlockSize: 64, LocalIters: 5, MaxGlobalIters: 10, Seed: 42}

	plain, err := Solve(a, b, base)
	if err != nil {
		t.Fatal(err)
	}
	withMetrics, withCallback := base, base
	withMetrics.Metrics = NewSolveMetrics(metrics.NewRegistry(), 16)
	withCallback.OnResidual = func(int, float64) {}
	for name, instrumented := range map[string]Options{"Metrics": withMetrics, "OnResidual": withCallback} {
		obs, err := Solve(a, b, instrumented)
		if err != nil {
			t.Fatal(err)
		}
		for i := range plain.X {
			if plain.X[i] != obs.X[i] {
				t.Fatalf("%s: x[%d] differs: %g (plain) vs %g (instrumented)", name, i, plain.X[i], obs.X[i])
			}
		}
		if plain.GlobalIterations != obs.GlobalIterations {
			t.Fatalf("%s: iteration counts differ: %d vs %d", name, plain.GlobalIterations, obs.GlobalIterations)
		}
	}
}

// TestSolveMetricsStaleAndChaos checks the stale-read and chaos-injection
// counters: StaleProb 1 makes every block execution a stale read, and a
// firing StaleRead hook is counted as an injection.
func TestSolveMetricsStaleAndChaos(t *testing.T) {
	a := mats.Poisson2D(12, 12)
	b := onesRHS(a)
	reg := metrics.NewRegistry()
	sm := NewSolveMetrics(reg, 8)
	const iters = 2
	var delays int
	res, err := Solve(a, b, Options{
		BlockSize: 24, LocalIters: 1, MaxGlobalIters: iters,
		Seed: 3, StaleProb: 1, Metrics: sm,
		Chaos: &ChaosHooks{
			Delay:     func(iter, block int) { delays++ },
			StaleRead: func(iter, block int) bool { return block == 0 },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	em := sm.engine("simulated")
	wantSweeps := uint64(iters * res.NumBlocks)
	if got := em.staleReads.Value(); got != wantSweeps {
		t.Errorf("stale reads = %d, want %d (StaleProb=1)", got, wantSweeps)
	}
	// One delay per block execution plus one forced stale read per
	// iteration (block 0).
	wantChaos := wantSweeps + iters
	if got := em.chaosInjections.Value(); got != wantChaos {
		t.Errorf("chaos injections = %d, want %d", got, wantChaos)
	}
	if delays != int(wantSweeps) {
		t.Errorf("delay hook fired %d times, want %d", delays, wantSweeps)
	}
}

// TestSolveMetricsGoroutineAndReplay covers the concurrent engine's
// counters and the replay-event counter.
func TestSolveMetricsGoroutineAndReplay(t *testing.T) {
	a := mats.Poisson2D(12, 12)
	b := onesRHS(a)
	reg := metrics.NewRegistry()
	sm := NewSolveMetrics(reg, 8)
	rec := sched.NewRecorder(0)
	const iters = 2
	res, err := Solve(a, b, Options{
		BlockSize: 24, LocalIters: 1, MaxGlobalIters: iters,
		Seed: 5, Engine: EngineGoroutine, Workers: 4,
		Metrics: sm, Record: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	em := sm.engine("goroutine")
	wantSweeps := uint64(iters * res.NumBlocks)
	if got := em.iterations.Value(); got != iters {
		t.Errorf("goroutine iterations = %d, want %d", got, iters)
	}
	if got := em.blockSweeps.Value(); got != wantSweeps {
		t.Errorf("goroutine block sweeps = %d, want %d", got, wantSweeps)
	}
	if got := em.replayEvents.Value(); got != 0 {
		t.Errorf("live run recorded %d replay events, want 0", got)
	}

	// Replay the capture through the simulated engine: every event must be
	// counted under the simulated label.
	s := rec.Schedule()
	reg2 := metrics.NewRegistry()
	sm2 := NewSolveMetrics(reg2, 8)
	if _, err := Solve(a, b, Options{
		BlockSize: 24, LocalIters: 1, MaxGlobalIters: iters,
		Replay: s, Metrics: sm2,
	}); err != nil {
		t.Fatal(err)
	}
	em2 := sm2.engine("simulated")
	if got := em2.replayEvents.Value(); got != uint64(len(s.Events)) {
		t.Errorf("replay events = %d, want %d", got, len(s.Events))
	}
	if got := em2.blockSweeps.Value(); got != uint64(len(s.Events)) {
		t.Errorf("replayed block sweeps = %d, want %d", got, len(s.Events))
	}
}

// TestSolveMetricsFreeRunning checks the free-running engine's counters
// and monitor residual tracing.
func TestSolveMetricsFreeRunning(t *testing.T) {
	a := mats.Poisson2D(12, 12)
	b := onesRHS(a)
	reg := metrics.NewRegistry()
	sm := NewSolveMetrics(reg, 32)
	res, err := SolveFreeRunning(a, b, FreeRunningOptions{
		BlockSize: 24, LocalIters: 2, MaxBlockUpdates: 5000,
		Tolerance: 1e-8, Workers: 4, CheckEvery: 8, Metrics: sm,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("free-running solve did not converge (residual %g)", res.Residual)
	}
	em := sm.engine("freerunning")
	if got := em.blockSweeps.Value(); got != uint64(res.BlockUpdates) {
		t.Errorf("free-running block sweeps = %d, want %d", got, res.BlockUpdates)
	}
	if sm.ResidualsObserved() == 0 {
		t.Error("monitor pushed no residuals to the ring")
	}
	if em.solveSeconds.Count() != 1 {
		t.Errorf("solve duration observations = %d, want 1", em.solveSeconds.Count())
	}
}

// TestSolveMetricsExposition asserts the instrumented families render in
// the registry's text exposition — the series the /metricsz acceptance
// criterion requires.
func TestSolveMetricsExposition(t *testing.T) {
	a := mats.Poisson2D(8, 8)
	b := onesRHS(a)
	reg := metrics.NewRegistry()
	sm := NewSolveMetrics(reg, 8)
	if _, err := Solve(a, b, Options{
		BlockSize: 16, LocalIters: 1, MaxGlobalIters: 1, Seed: 1, Metrics: sm,
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`core_global_iterations_total{engine="simulated"} 1`,
		`core_global_iterations_total{engine="goroutine"} 0`,
		`core_global_iterations_total{engine="freerunning"} 0`,
		`# TYPE core_solve_seconds histogram`,
		`core_block_sweeps_total{engine="simulated"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

// TestCancelWithinOneSweep is the satellite fix's proof: a solve on
// Trefethen_2000 with k=5 whose context is canceled mid-sweep must return
// before the first global iteration completes — i.e. cancellation latency
// is one block sweep, not one global iteration. The chaos Delay hook
// (which runs before each block execution) cancels after the third block
// and counts subsequent executions; replays ignore chaos hooks, so the
// replay row cancels through a context that turns done once the schedule
// recorder holds the third event.
func TestCancelWithinOneSweep(t *testing.T) {
	a := mats.MustGenerate("Trefethen_2000").A
	b := onesRHS(a)
	p, err := NewPlan(a, 32, false)
	if err != nil {
		t.Fatal(err)
	}
	capture := sched.NewRecorder(0)
	if _, err := SolveWithPlan(p, b, Options{LocalIters: 5, MaxGlobalIters: 2, Seed: 11, Record: capture}); err != nil {
		t.Fatal(err)
	}
	const cancelAfter = 3

	for _, tc := range []struct {
		name  string
		slack int // extra in-flight blocks allowed after cancel
		solve func(opt Options) (Result, error)
	}{
		// The simulated engine is sequential: the block after the
		// canceling one must never execute.
		{"simulated", 0, func(opt Options) (Result, error) {
			return SolveWithPlan(p, b, opt)
		}},
		// The goroutine engine stops dispatching once canceled; only the
		// blocks already in flight (≤ workers) may still run.
		{"goroutine", 4, func(opt Options) (Result, error) {
			opt.Engine, opt.Workers = EngineGoroutine, 4
			return SolveWithPlan(p, b, opt)
		}},
		{"sharded-sequential", 0, func(opt Options) (Result, error) {
			return SolveSharded(p, b, opt, ShardOptions{Shards: 4, Sequential: true})
		}},
		// Every shard checks the context before each of its blocks: at
		// most one block per shard is in flight.
		{"sharded-concurrent", 4, func(opt Options) (Result, error) {
			return SolveSharded(p, b, opt, ShardOptions{Shards: 4})
		}},
		// A replay executes the recorded events one at a time.
		{"goroutine-replay", 0, func(opt Options) (Result, error) {
			opt.Engine, opt.Workers, opt.Replay = EngineGoroutine, 4, capture.Schedule()
			opt.Ctx = recordedCtx{opt.Ctx, opt.Record, cancelAfter}
			return SolveWithPlan(p, b, opt)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var started atomic.Int64
			rec := sched.NewRecorder(0)
			res, err := tc.solve(Options{
				LocalIters: 5, MaxGlobalIters: 50, Seed: 11, Ctx: ctx, Record: rec,
				Chaos: &ChaosHooks{Delay: func(iter, block int) {
					if started.Add(1) == cancelAfter {
						cancel()
					}
				}},
			})
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want wrapped context.Canceled", err)
			}
			if res.GlobalIterations != 0 {
				t.Errorf("GlobalIterations = %d, want 0 (canceled inside the first sweep)",
					res.GlobalIterations)
			}
			if len(res.X) != a.Rows {
				t.Errorf("partial iterate has %d components, want %d", len(res.X), a.Rows)
			}
			executed := max(started.Load(), int64(rec.Len()))
			nb := int64(p.NumBlocks())
			if executed > cancelAfter+int64(tc.slack) {
				t.Errorf("%d blocks executed after cancel (total %d of %d), want ≤ %d",
					executed-cancelAfter, executed, nb, cancelAfter+tc.slack)
			}
			if executed >= nb {
				t.Errorf("all %d blocks of the sweep executed; cancellation waited for the iteration boundary", nb)
			}
		})
	}
}

// recordedCtx is a context that turns done once rec holds n events: a
// cancel trigger for replays, which run no chaos hooks.
type recordedCtx struct {
	context.Context
	rec *sched.Recorder
	n   int
}

func (c recordedCtx) Err() error {
	if err := c.Context.Err(); err != nil {
		return err
	}
	if c.rec.Len() >= c.n {
		return context.Canceled
	}
	return nil
}

// TestCancelWithinOneSweepReplay proves the same granularity for the
// replayed simulated engine.
func TestCancelWithinOneSweepReplay(t *testing.T) {
	a := mats.Trefethen(600)
	b := onesRHS(a)
	rec := sched.NewRecorder(0)
	if _, err := Solve(a, b, Options{
		BlockSize: 32, LocalIters: 5, MaxGlobalIters: 2, Seed: 9, Record: rec,
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the first event
	res, err := Solve(a, b, Options{
		BlockSize: 32, LocalIters: 5, MaxGlobalIters: 2,
		Replay: rec.Schedule(), Ctx: ctx,
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res.GlobalIterations != 0 {
		t.Errorf("GlobalIterations = %d, want 0", res.GlobalIterations)
	}
}
