package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mats"
	"repro/internal/sparse"
	"repro/internal/vecmath"
)

// TestPooledResidualBitIdentical pins the pool executor's residual pass to
// the serial residualInto, and both to a full SpMV, bit for bit: the pass
// fills the rows one plan block per task and the norm is one serial Nrm2 in
// row order. The check's scratch starts as NaN, so a row range the pass
// skips — or covers twice at another's expense — turns the norm and the
// row comparison red.
func TestPooledResidualBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name           string
		a              *sparse.CSR
		block, workers int
		precision      string
	}{
		{"ragged last block", mats.Trefethen(300), 64, 2, ""},
		{"single block", mats.Trefethen(100), 128, 2, ""},
		{"more workers than blocks", mats.Trefethen(200), 64, 8, ""},
		{"f32 storage", mats.Poisson2D(13, 11), 32, 3, PrecF32},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewPlan(tc.a, tc.block, false)
			if err != nil {
				t.Fatal(err)
			}
			n := tc.a.Rows
			rng := rand.New(rand.NewSource(int64(n)))
			b, x := make([]float64, n), make([]float64, n)
			for i := range x {
				b[i], x[i] = rng.NormFloat64(), rng.NormFloat64()
			}
			// The iterate as the check reads it: rounded for the storage.
			roundIterate(tc.precision, x)
			opt := Options{BlockSize: tc.block, LocalIters: 1, MaxGlobalIters: 1, Precision: tc.precision}
			r := newBarrier(p, b, opt, "goroutine", true)
			defer r.done()
			pool := startBlockPool(r, tc.workers)
			defer pool.stop()
			rs := newResidualState(opt, false, r.is.resid, pool.residualRows)
			for i := range rs.scratch {
				rs.scratch[i] = math.NaN()
			}
			got := rs.exact(tc.a, b, x)
			serial := make([]float64, n)
			want := residualInto(serial, tc.a, b, x)
			// The formula itself: b − A·x by a full SpMV, then the norm.
			ref := make([]float64, n)
			tc.a.MulVec(ref, x)
			vecmath.Sub(ref, b, ref)
			if bits := math.Float64bits(want); math.Float64bits(got) != bits || math.Float64bits(vecmath.Nrm2(ref)) != bits {
				t.Fatalf("pooled residual %v, residualInto %v, SpMV %v: want identical bits", got, want, vecmath.Nrm2(ref))
			}
			for i := range serial {
				if math.Float64bits(rs.scratch[i]) != math.Float64bits(serial[i]) || math.Float64bits(ref[i]) != math.Float64bits(serial[i]) {
					t.Fatalf("row %d: pooled %v, residualInto %v, SpMV %v", i, rs.scratch[i], serial[i], ref[i])
				}
			}
		})
	}
}

// TestOnResidualMatchesResult runs goroutine-engine solves, whose checks
// run on the pool: the callback fires once per global iteration in order,
// and its last value, Result.Residual and residualInto(Result.X) have the
// same bits — with a tolerance (the last check stops the solve) and
// without one (the final residual is computed after the loop).
func TestOnResidualMatchesResult(t *testing.T) {
	a := mats.Trefethen(300)
	p, err := NewPlan(a, 64, false)
	if err != nil {
		t.Fatal(err)
	}
	b := onesRHS(a)
	for _, tol := range []float64{1e-8, 0} {
		var calls, lastIter int
		var last float64
		opt := Options{
			BlockSize: 64, LocalIters: 3, MaxGlobalIters: 400, Tolerance: tol,
			Engine: EngineGoroutine, Workers: 2, Seed: 11,
			OnResidual: func(iter int, residual float64) {
				calls++
				if iter != calls {
					t.Errorf("tolerance %g: callback %d reports iteration %d", tol, calls, iter)
				}
				lastIter, last = iter, residual
			},
		}
		if tol == 0 {
			opt.MaxGlobalIters = 30
		}
		res, err := SolveWithPlan(p, b, opt)
		if err != nil {
			t.Fatal(err)
		}
		if tol > 0 && !res.Converged {
			t.Fatalf("tolerance %g: not converged (residual %g)", tol, res.Residual)
		}
		if lastIter != res.GlobalIterations {
			t.Fatalf("tolerance %g: last callback at iteration %d, result at %d", tol, lastIter, res.GlobalIterations)
		}
		serial := residualInto(make([]float64, a.Rows), a, b, res.X)
		if math.Float64bits(last) != math.Float64bits(res.Residual) || math.Float64bits(serial) != math.Float64bits(res.Residual) {
			t.Fatalf("tolerance %g: callback %v, Result.Residual %v, residualInto %v: want identical bits",
				tol, last, res.Residual, serial)
		}
	}
}
