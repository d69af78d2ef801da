package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/mats"
	"repro/internal/metrics"
	"repro/internal/sparse"
)

// poolWorkers is the goroutine engine's worker count in the allocation
// test.
const poolWorkers = 2

// mallocsForSolve runs one solve on the warm plan and returns the number of
// heap objects it allocated. The goroutine engine runs poolWorkers workers,
// which also compute the exact check's residual rows, and reports every
// check to an OnResidual callback. A non-nil sink selects a service job's
// setup on either engine: the residual gate at a gap of 8, with OnResidual
// and the sink observing the checks that run; the iterations in between
// skip their check.
func mallocsForSolve(t *testing.T, p *Plan, b []float64, iters int, engine EngineKind, sink *SolveMetrics) uint64 {
	t.Helper()
	opt := Options{
		BlockSize:      p.BlockSize(),
		LocalIters:     3,
		MaxGlobalIters: iters,
		Tolerance:      1e-300, // unreachable: no check ever stops the solve
		Seed:           5,
		Engine:         engine,
	}
	if engine == EngineGoroutine {
		opt.Workers = poolWorkers
		opt.OnResidual = func(int, float64) {}
	}
	if sink != nil {
		opt.ResidualEvery, opt.Metrics = 8, sink
		opt.OnResidual = func(int, float64) {}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := SolveWithPlan(p, b, opt)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.GlobalIterations != iters {
		t.Fatalf("expected %d iterations, got %d", iters, res.GlobalIterations)
	}
	return after.Mallocs - before.Mallocs
}

// TestSteadyStateZeroAllocsPerIteration pins the zero-allocation property
// of warm-plan solves: with the kernel and iteration scratch pooled in the
// Plan, a global iteration — schedule order, stale mask, block sweeps, the
// exact residual check (on the pool's workers for the goroutine engine)
// and its OnResidual callback, or under the residual gate the skipped
// check's estimate — performs no heap allocation. The test
// compares the total allocations of a 2-iteration and a 202-iteration
// solve on the same warm plan: any per-iteration allocation would separate
// them by at least 200. A goroutine-engine solve starts poolWorkers
// goroutines, and a go statement allocates a goroutine descriptor only when
// the runtime's free lists have none to reuse, so its per-solve count may
// differ by up to poolWorkers between any two solves.
func TestSteadyStateZeroAllocsPerIteration(t *testing.T) {
	a := mats.Trefethen(300)
	p, err := NewPlan(a, 64, false)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	// GC off so the scratch pools cannot be drained mid-measurement. The
	// minimum over runs filters mallocs that are not per-iteration: the
	// background runtime's and, under the race detector, those after
	// sync.Pool's random drops of a Put (a quarter of them), which hit the
	// goroutine engine's four pooled scratches in most solves.
	const runs = 15
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	sink := NewSolveMetrics(metrics.NewRegistry(), 16)
	for engine, slack := range map[EngineKind]int64{EngineSimulated: 0, EngineGoroutine: poolWorkers} {
		for _, gate := range []*SolveMetrics{nil, sink} {
			mallocsForSolve(t, p, b, 2, engine, gate) // warm the pools
			minOf := func(iters int) uint64 {
				m := mallocsForSolve(t, p, b, iters, engine, gate)
				for i := 1; i < runs; i++ {
					if v := mallocsForSolve(t, p, b, iters, engine, gate); v < m {
						m = v
					}
				}
				return m
			}
			short := minOf(2)
			long := minOf(202)
			if d := int64(long) - int64(short); d > slack || d < -slack {
				t.Fatalf("%v engine (gated %v): steady-state iterations allocate: %d mallocs at 2 iters vs %d at 202 iters (%+d over 200 iterations)",
					engine, gate != nil, short, long, d)
			}
		}
	}
}

// TestKernelZeroAllocs pins the block kernels themselves: with scratch
// provided, neither implementation allocates.
func TestKernelZeroAllocs(t *testing.T) {
	a := mats.Trefethen(128)
	sp, err := sparse.NewSplitting(a)
	if err != nil {
		t.Fatal(err)
	}
	part := sparse.NewBlockPartition(a.Rows, 32)
	views, _ := buildBlockViews(a, part)
	b := make([]float64, a.Rows)
	x := make([]float64, a.Rows)
	scr := newKernelScratch(32)
	var (
		read  valueReader = sliceReader(x)
		write valueWriter = sliceWriter(x)
	)
	rule := &updateRule{omega: 1}
	for name, kern := range map[string]kernelFunc{
		"fused":     runBlockKernel,
		"reference": runBlockKernelReference,
	} {
		if n := testing.AllocsPerRun(100, func() {
			kern(a, sp, b, &views[1], 5, rule, read, read, write, scr)
		}); n != 0 {
			t.Errorf("%s kernel allocates %v objects per run", name, n)
		}
	}
}
