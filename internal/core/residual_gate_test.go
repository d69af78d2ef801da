package core

import (
	"math"
	"testing"

	"repro/internal/mats"
	"repro/internal/metrics"
)

// check is one OnResidual call.
type check struct {
	iter     int
	residual float64
}

// observe sets the residual observers a queued service job runs with: a
// metrics sink and a progress hook. It returns the sink and the hook's
// calls, in order.
func observe(opt *Options) (*SolveMetrics, *[]check) {
	sink := NewSolveMetrics(metrics.NewRegistry(), 16)
	var calls []check
	opt.Metrics = sink
	opt.OnResidual = func(iter int, r float64) { calls = append(calls, check{iter, r}) }
	return sink, &calls
}

// TestResidualEveryConverges pins the semantics of the incremental residual
// gate: a gated solve must still converge (convergence is only declared
// from exact checks), its reported residual must be exact (≤ tolerance),
// and the deferral can cost at most ResidualEvery−1 extra iterations over
// the per-iteration checking baseline — with and without the observers a
// service job sets.
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
	for _, observed := range []bool{false, true} {
		for _, every := range []int{2, 5, 10} {
			opt := base
			opt.ResidualEvery = every
			if observed {
				observe(&opt)
			}
			res, err := Solve(a, b, opt)
			if err != nil {
				t.Fatalf("ResidualEvery=%d observed=%v: %v", every, observed, err)
			}
			if !res.Converged {
				t.Fatalf("ResidualEvery=%d observed=%v: did not converge (residual %g)", every, observed, res.Residual)
			}
			if res.Residual > base.Tolerance {
				t.Fatalf("ResidualEvery=%d observed=%v: reported residual %g above tolerance %g (must be an exact value)",
					every, observed, res.Residual, base.Tolerance)
			}
			if res.GlobalIterations < exact.GlobalIterations {
				t.Fatalf("ResidualEvery=%d observed=%v: converged in %d iterations, baseline %d — the gate can only defer checks",
					every, observed, res.GlobalIterations, exact.GlobalIterations)
			}
			if res.GlobalIterations >= exact.GlobalIterations+every {
				t.Fatalf("ResidualEvery=%d observed=%v: %d iterations vs baseline %d exceeds the ≤%d-iteration deferral bound",
					every, observed, res.GlobalIterations, exact.GlobalIterations, every-1)
			}
		}
	}
}

// TestResidualGateObserversChangeNothing pins the observer contract of
// Options: for the same ResidualEvery, setting Metrics and OnResidual never
// changes the iterate, the stop iteration or the residual, and the
// observers see exactly the exact checks that run — OnResidual in
// increasing iteration order, ending at the stop with the result's
// residual, and one ring sample per call. With a gap above 1 that is fewer
// checks than iterations.
func TestResidualGateObserversChangeNothing(t *testing.T) {
	for _, tc := range []struct {
		matrix string
		k      int
		method RuleKind
		beta   float64
	}{
		{"Trefethen_2000", 5, RuleJacobi, 0},
		{"fv1", 5, RuleRichardson2, 0.5},
	} {
		tm, err := mats.Generate(tc.matrix)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPlan(tm.A, 448, false)
		if err != nil {
			t.Fatal(err)
		}
		b := onesRHS(tm.A)
		for _, every := range []int{0, 5, 8} {
			opt := Options{
				BlockSize: 448, LocalIters: tc.k, Method: tc.method, Beta: tc.beta,
				MaxGlobalIters: 500, Tolerance: 1e-8, ResidualEvery: every, Seed: 17,
			}
			plain, err := SolveWithPlan(p, b, opt)
			if err != nil || !plain.Converged {
				t.Fatalf("%s every=%d: unobserved solve: converged=%v err=%v", tc.matrix, every, plain.Converged, err)
			}
			sink, calls := observe(&opt)
			seen, err := SolveWithPlan(p, b, opt)
			if err != nil {
				t.Fatalf("%s every=%d: observed solve: %v", tc.matrix, every, err)
			}
			if seen.GlobalIterations != plain.GlobalIterations ||
				math.Float64bits(seen.Residual) != math.Float64bits(plain.Residual) {
				t.Fatalf("%s every=%d: observed solve stopped at %d with residual %v, unobserved at %d with %v",
					tc.matrix, every, seen.GlobalIterations, seen.Residual, plain.GlobalIterations, plain.Residual)
			}
			for i := range plain.X {
				if math.Float64bits(seen.X[i]) != math.Float64bits(plain.X[i]) {
					t.Fatalf("%s every=%d: x[%d] = %v observed, %v unobserved", tc.matrix, every, i, seen.X[i], plain.X[i])
				}
			}
			n := len(*calls)
			if n == 0 {
				t.Fatalf("%s every=%d: OnResidual never ran", tc.matrix, every)
			}
			for i := 1; i < n; i++ {
				if (*calls)[i].iter <= (*calls)[i-1].iter {
					t.Fatalf("%s every=%d: OnResidual iterations %v are not increasing", tc.matrix, every, *calls)
				}
			}
			if last := (*calls)[n-1]; last.iter != seen.GlobalIterations ||
				math.Float64bits(last.residual) != math.Float64bits(seen.Residual) {
				t.Fatalf("%s every=%d: last OnResidual (%d, %v), result (%d, %v)",
					tc.matrix, every, last.iter, last.residual, seen.GlobalIterations, seen.Residual)
			}
			if got := sink.ResidualsObserved(); got != uint64(n) {
				t.Fatalf("%s every=%d: ring gained %d samples for %d OnResidual calls", tc.matrix, every, got, n)
			}
			if every > 1 && n >= seen.GlobalIterations {
				t.Fatalf("%s every=%d: %d exact checks in %d iterations; observers must not switch the gate off",
					tc.matrix, every, n, seen.GlobalIterations)
			}
			if every <= 1 && n != seen.GlobalIterations {
				t.Fatalf("%s every=%d: %d exact checks in %d iterations, want one per iteration",
					tc.matrix, every, n, seen.GlobalIterations)
			}
		}
	}
}

// TestResidualGateStopsWhereExactStops: at a gap of 8, the service's, the
// estimate places the check that decides the stop, so fixed deterministic
// solves stop at the iteration a check every iteration finds — not at the
// next multiple of the gap — while running fewer exact checks.
func TestResidualGateStopsWhereExactStops(t *testing.T) {
	for _, name := range []string{"Trefethen_2000", "fv2"} {
		tm, err := mats.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPlan(tm.A, 448, false)
		if err != nil {
			t.Fatal(err)
		}
		b := onesRHS(tm.A)
		for _, k := range []int{1, 5} {
			for seed := int64(1); seed <= 3; seed++ {
				opt := Options{
					BlockSize: 448, LocalIters: k, MaxGlobalIters: 1000, Tolerance: 1e-8, Seed: seed,
				}
				exact, err := SolveWithPlan(p, b, opt)
				if err != nil || !exact.Converged {
					t.Fatalf("%s k=%d seed %d: exact checks: converged=%v err=%v", name, k, seed, exact.Converged, err)
				}
				opt.ResidualEvery = 8
				_, calls := observe(&opt)
				gated, err := SolveWithPlan(p, b, opt)
				if err != nil || !gated.Converged {
					t.Fatalf("%s k=%d seed %d: gated: converged=%v err=%v", name, k, seed, gated.Converged, err)
				}
				if gated.GlobalIterations != exact.GlobalIterations {
					t.Fatalf("%s k=%d seed %d: gated solve stopped at %d, exact checks at %d",
						name, k, seed, gated.GlobalIterations, exact.GlobalIterations)
				}
				if len(*calls) >= gated.GlobalIterations {
					t.Fatalf("%s k=%d seed %d: %d exact checks in %d iterations", name, k, seed, len(*calls), gated.GlobalIterations)
				}
			}
		}
	}
}

// TestResidualEveryDisabledByRecordHistory pins the self-disabling rule:
// when the per-iteration residual is itself the output (RecordHistory), the
// gate must keep exact checks every iteration.
func TestResidualEveryDisabledByRecordHistory(t *testing.T) {
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
