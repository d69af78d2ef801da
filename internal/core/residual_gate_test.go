package core

import (
	"testing"

	"repro/internal/mats"
)

// TestResidualEveryConverges pins the semantics of the incremental residual
// gate: a gated solve must still converge (convergence is only declared
// from exact checks), its reported residual must be exact (≤ tolerance),
// and the deferral can cost at most ResidualEvery−1 extra iterations over
// the per-iteration checking baseline.
func TestResidualEveryConverges(t *testing.T) {
	a := mats.Trefethen(400)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	base := Options{
		BlockSize: 64, LocalIters: 3, MaxGlobalIters: 500,
		Tolerance: 1e-8, Seed: 21,
	}
	exact, err := Solve(a, b, base)
	if err != nil {
		t.Fatal(err)
	}
	if !exact.Converged {
		t.Fatalf("baseline did not converge (residual %g)", exact.Residual)
	}
	for _, every := range []int{2, 5, 10} {
		opt := base
		opt.ResidualEvery = every
		res, err := Solve(a, b, opt)
		if err != nil {
			t.Fatalf("ResidualEvery=%d: %v", every, err)
		}
		if !res.Converged {
			t.Fatalf("ResidualEvery=%d: did not converge (residual %g)", every, res.Residual)
		}
		if res.Residual > base.Tolerance {
			t.Fatalf("ResidualEvery=%d: reported residual %g above tolerance %g (must be an exact value)",
				every, res.Residual, base.Tolerance)
		}
		if res.GlobalIterations < exact.GlobalIterations {
			t.Fatalf("ResidualEvery=%d: converged in %d iterations, baseline %d — the gate can only defer checks",
				every, res.GlobalIterations, exact.GlobalIterations)
		}
		if res.GlobalIterations >= exact.GlobalIterations+every {
			t.Fatalf("ResidualEvery=%d: %d iterations vs baseline %d exceeds the ≤%d-iteration deferral bound",
				every, res.GlobalIterations, exact.GlobalIterations, every-1)
		}
	}
}

// TestResidualEveryDisabledByHistory pins the self-disabling rule: when the
// per-iteration residual is itself an output (RecordHistory, OnResidual),
// the gate must keep exact checks every iteration.
func TestResidualEveryDisabledByHistory(t *testing.T) {
	a := mats.Trefethen(200)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	opt := Options{
		BlockSize: 64, LocalIters: 2, MaxGlobalIters: 40,
		Tolerance: 1e-10, ResidualEvery: 7, RecordHistory: true, Seed: 3,
	}
	res, err := Solve(a, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != res.GlobalIterations {
		t.Fatalf("history has %d entries for %d iterations; RecordHistory must disable the residual gate",
			len(res.History), res.GlobalIterations)
	}
	calls := 0
	opt.RecordHistory = false
	opt.OnResidual = func(int, float64) { calls++ }
	if res, err = Solve(a, b, opt); err != nil {
		t.Fatal(err)
	}
	if calls != res.GlobalIterations {
		t.Fatalf("OnResidual ran %d times in %d iterations; it must disable the residual gate",
			calls, res.GlobalIterations)
	}
}

// TestResidualEveryGoroutineEngine runs the gate through the concurrent
// engine: the estimate's anchors come from racing block updates there, so
// this exercises the atomic accumulation path end to end.
func TestResidualEveryGoroutineEngine(t *testing.T) {
	a := mats.Trefethen(400)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	res, err := Solve(a, b, Options{
		BlockSize: 64, LocalIters: 3, MaxGlobalIters: 500,
		Tolerance: 1e-8, ResidualEvery: 5, Engine: EngineGoroutine, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Residual > 1e-8 {
		t.Fatalf("goroutine engine with gate: converged=%v residual=%g", res.Converged, res.Residual)
	}
}
