package tune

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/mats"
	"repro/internal/sparse"
	"repro/internal/vecmath"
)

func onesRHS(a *sparse.CSR) []float64 {
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	return b
}

func TestTuneFindsContractingConfig(t *testing.T) {
	a := mats.FV(30, 30, 1.368)
	b := onesRHS(a)
	res, err := Tune(a, b, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.BlockSize <= 0 || res.LocalIters <= 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if !(res.Rate > 0 && res.Rate < 1) {
		t.Errorf("winning rate %g not contracting", res.Rate)
	}
	if res.Probed == 0 {
		t.Error("no configurations probed")
	}
	if res.SecondsPerDigit <= 0 {
		t.Errorf("SecondsPerDigit = %g", res.SecondsPerDigit)
	}
	if !(res.Omega > 0 && res.Omega < 2) {
		t.Errorf("Omega = %g outside the valid relaxation range", res.Omega)
	}
	if res.ProbeSolves < res.Probed {
		t.Errorf("ProbeSolves = %d < Probed = %d; every grid probe is a solve", res.ProbeSolves, res.Probed)
	}
}

func TestTunePrefersLocalSweepsOnLocalProblem(t *testing.T) {
	// On fv-type systems local sweeps pay; the tuner must not pick k = 1.
	a := mats.FV(30, 30, 1.368)
	b := onesRHS(a)
	res, err := Tune(a, b, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.LocalIters < 2 {
		t.Errorf("tuner picked k=%d on a block-local problem; local sweeps are nearly free", res.LocalIters)
	}
}

func TestTuneChem97AvoidsWastedSweeps(t *testing.T) {
	// Chem97's local blocks are diagonal at full size (every coupling sits
	// ≥ n/3 = 847 away, beyond any candidate block): extra sweeps buy
	// nothing but cost ~4% each, so the tuner must pick k = 1. (At smaller
	// n large blocks *do* capture the couplings and more sweeps win —
	// exactly the problem-dependence the paper's §5 points out.)
	a := mats.Chem97ZtZ(2541)
	b := onesRHS(a)
	res, err := Tune(a, b, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.LocalIters > 1 {
		t.Errorf("tuner picked k=%d on diagonal local blocks; sweeps are wasted there", res.LocalIters)
	}
}

func TestTuneFailsOnDivergentSystem(t *testing.T) {
	a := mats.S1RMT3M1(200)
	b := onesRHS(a)
	if _, err := Tune(a, b, Config{Seed: 1, ProbeIters: 10}); err == nil {
		t.Error("expected error: no configuration can contract on ρ(B)>1")
	}
}

// TestTuneOmegaStageNeverRegresses pins the ω-stage contract: the refined
// result can only improve the modeled score, never lose to the plain
// ω = 1 grid winner, and its ω must sit inside the reported bracket (or be
// exactly 1 when no refinement won).
func TestTuneOmegaStageNeverRegresses(t *testing.T) {
	a := mats.FV(30, 30, 1.368)
	b := onesRHS(a)
	plain, err := Tune(a, b, Config{Seed: 1, OmegaProbes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Omega != 1 {
		t.Fatalf("OmegaProbes<0 must keep ω=1, got %g", plain.Omega)
	}
	tuned, err := Tune(a, b, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tuned.SecondsPerDigit > plain.SecondsPerDigit {
		t.Errorf("ω stage regressed the score: %g > %g", tuned.SecondsPerDigit, plain.SecondsPerDigit)
	}
	if tuned.Omega != 1 {
		lo, hi := tuned.OmegaBracket[0], tuned.OmegaBracket[1]
		if tuned.Omega < lo || tuned.Omega > hi {
			t.Errorf("winning ω=%g outside searched bracket [%g, %g]", tuned.Omega, lo, hi)
		}
	}
	// The ω stage is budgeted: at most OmegaProbes extra solves.
	if extra := tuned.ProbeSolves - plain.ProbeSolves; extra > 8 {
		t.Errorf("ω stage ran %d probe solves, budget is 8", extra)
	}
}

// TestGoldenSectionFindsRichardsonOptimum checks the search against the
// one case with a closed form: for Richardson iteration on an SPD matrix
// with extreme eigenvalues λ₁ < λ_n, the contraction factor
// ρ(ω) = max(|1−ωλ₁|, |1−ωλ_n|) is minimized at ω* = 2/(λ₁+λ_n).
func TestGoldenSectionFindsRichardsonOptimum(t *testing.T) {
	for _, tc := range []struct{ lmin, lmax float64 }{
		{0.1, 1.9},
		{0.5, 1.2},
		{0.02, 3.5},
	} {
		rho := func(w float64) float64 {
			return math.Max(math.Abs(1-w*tc.lmin), math.Abs(1-w*tc.lmax))
		}
		want := 2 / (tc.lmin + tc.lmax)
		got := GoldenSection(rho, 0.01, 2/tc.lmax*1.5, 1e-8, 0)
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("λ∈[%g,%g]: golden section found ω=%.8f, analytic optimum %.8f",
				tc.lmin, tc.lmax, got, want)
		}
	}
}

// TestGoldenSectionBudget pins the evaluation cap.
func TestGoldenSectionBudget(t *testing.T) {
	calls := 0
	f := func(w float64) float64 { calls++; return (w - 0.3) * (w - 0.3) }
	GoldenSection(f, 0, 1, 0, 6) // tol 0: only the budget can stop it
	if calls > 6 {
		t.Errorf("GoldenSection made %d evaluations, budget was 6", calls)
	}
	calls = 0
	x := GoldenSection(f, 0, 1, 1e-10, 0)
	if math.Abs(x-0.3) > 1e-8 {
		t.Errorf("unbudgeted search found %g, want 0.3", x)
	}
}

// TestTuneProbeUsesWarmPlan guards the plan-reuse contract indirectly: a
// default grid on a small matrix must not exceed the plan count implied by
// its block-size candidates (probe solves share plans, they don't rebuild
// them). This is a behavioural proxy — the real assertion is the zero
// per-iteration allocation property tested in core.
func TestTuneProbeUsesWarmPlan(t *testing.T) {
	a := mats.Trefethen(200)
	b := onesRHS(a)
	res, err := Tune(a, b, Config{Seed: 3, BlockSizes: []int{32, 64}, LocalIters: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Probed != 4 {
		t.Fatalf("probed %d grid points, want 4", res.Probed)
	}
	// Sanity: the winner must actually solve the system.
	sol, err := core.Solve(a, b, core.Options{
		BlockSize: res.BlockSize, LocalIters: res.LocalIters, Omega: res.Omega,
		MaxGlobalIters: 500, Tolerance: 1e-9, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Converged {
		t.Errorf("tuned configuration (bs=%d k=%d ω=%g) failed to converge", res.BlockSize, res.LocalIters, res.Omega)
	}
}

// TestTuneKernelStagePicksStencilOnFV: the fv grid operator detects as a
// 9-point stencil, whose matrix-free sweep is modeled strictly cheaper per
// nonzero, so the default kernel stage must select it — without any extra
// probe solves, since kernel dispatch is bit-transparent in f64.
func TestTuneKernelStagePicksStencilOnFV(t *testing.T) {
	a := mats.FV(30, 30, 1.368)
	b := onesRHS(a)
	csrOnly, err := Tune(a, b, Config{Seed: 1, Kernels: []core.KernelKind{core.KernelCSR}})
	if err != nil {
		t.Fatal(err)
	}
	if csrOnly.Kernel != core.KernelCSR || csrOnly.KernelTraffic != 1 {
		t.Fatalf("CSR-only stage: kernel %v traffic %g", csrOnly.Kernel, csrOnly.KernelTraffic)
	}
	res, err := Tune(a, b, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kernel != core.KernelStencil {
		t.Errorf("kernel stage picked %v on a stencil operator, want stencil", res.Kernel)
	}
	if res.Precision != core.PrecF64 {
		t.Errorf("default precision grid produced %q, want f64", res.Precision)
	}
	if !(res.KernelTraffic > 0 && res.KernelTraffic < 1) {
		t.Errorf("stencil traffic factor %g, want in (0,1)", res.KernelTraffic)
	}
	if res.SecondsPerDigit >= csrOnly.SecondsPerDigit {
		t.Errorf("stencil kernel did not improve the modeled score: %g >= %g",
			res.SecondsPerDigit, csrOnly.SecondsPerDigit)
	}
	if res.ProbeSolves != csrOnly.ProbeSolves {
		t.Errorf("f64 kernel stage ran extra probes: %d vs %d", res.ProbeSolves, csrOnly.ProbeSolves)
	}
}

// TestTuneKernelStageF32 checks the precision half of the join: adding f32
// to the grid costs exactly one extra probe solve (the rate re-measure on
// the winning plan) and yields a well-formed winner either way.
func TestTuneKernelStageF32(t *testing.T) {
	a := mats.FV(30, 30, 1.368)
	b := onesRHS(a)
	f64only, err := Tune(a, b, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Tune(a, b, Config{Seed: 1, Precisions: []string{core.PrecF64, core.PrecF32}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.ProbeSolves - f64only.ProbeSolves; got != 1 {
		t.Errorf("f32 candidate cost %d extra probe solves, want exactly 1", got)
	}
	if res.Precision != core.PrecF64 && res.Precision != core.PrecF32 {
		t.Errorf("winner precision %q", res.Precision)
	}
	if res.SecondsPerDigit > f64only.SecondsPerDigit {
		t.Errorf("wider grid regressed the score: %g > %g", res.SecondsPerDigit, f64only.SecondsPerDigit)
	}
	if !(res.Rate > 0 && res.Rate < 1) {
		t.Errorf("winner rate %g not contracting", res.Rate)
	}
}

// TestTuneKernelStageTrefethen: no stencil structure, so the stage decides
// between CSR and SELL purely on the slice padding ratio.
func TestTuneKernelStageTrefethen(t *testing.T) {
	a := mats.Trefethen(300)
	b := onesRHS(a)
	res, err := Tune(a, b, Config{Seed: 3, BlockSizes: []int{64}, LocalIters: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kernel == core.KernelStencil {
		t.Error("kernel stage picked stencil on a matrix with row-varying coefficients")
	}
	if res.KernelTraffic <= 0 {
		t.Errorf("traffic factor %g", res.KernelTraffic)
	}
}

// goldenKey renders every field of a Result, floats by their bits.
func goldenKey(r Result) string {
	f := math.Float64bits
	return fmt.Sprintf("bs=%d k=%d omega=%x rate=%x spd=%x probed=%d skipped=%d solves=%d bracket=%x,%x spectral=%v method=%v beta=%x kernel=%v prec=%q traffic=%x",
		r.BlockSize, r.LocalIters, f(r.Omega), f(r.Rate), f(r.SecondsPerDigit), r.Probed, r.Skipped, r.ProbeSolves,
		f(r.OmegaBracket[0]), f(r.OmegaBracket[1]), r.OmegaFromSpectral, r.Method, f(r.Beta), r.Kernel, r.Precision, f(r.KernelTraffic))
}

// TestTuneGolden pins the whole Result of the default search, floats by
// their bits, on the paper matrices and a Poisson grid with b = A·1, and
// the error of the divergent s1rmt3m1. The search must give the same
// Result at every GOMAXPROCS (run it with -cpu 1,2,4): probes that run
// side by side are folded in grid order.
func TestTuneGolden(t *testing.T) {
	for _, tc := range []struct {
		matrix     string
		precisions []string
		want       string
		err        string
	}{
		{matrix: "fv1", want: `bs=896 k=8 omega=3ff4cc35b8cfbe01 rate=3fdfc8af9ab7e620 spd=3fa9782631fef957 probed=25 skipped=0 solves=36 bracket=3fe8b4284e5f2140,3ffc5a14272f90a0 spectral=true method=richardson2 beta=3fe0000000000000 kernel=stencil prec="f64" traffic=3fe6ee8907e94f90`},
		{matrix: "Trefethen_2000", want: `bs=64 k=8 omega=3ff0000000000000 rate=3fce4eea7ec4bc36 spd=3f634f8cc1a06539 probed=25 skipped=0 solves=36 bracket=3fd83272c210cf02,3ff60c9cb08433c0 spectral=true method=richardson2 beta=3fe0000000000000 kernel=sell prec="f64" traffic=3fed71f36262cba7`},
		{matrix: "Trefethen_2000", precisions: []string{core.PrecF64, core.PrecF32}, want: `bs=64 k=8 omega=3ff0000000000000 rate=3fce4eea7ec4bc36 spd=3f634f8cc1a06539 probed=25 skipped=0 solves=37 bracket=3fd83272c210cf02,3ff60c9cb08433c0 spectral=true method=richardson2 beta=3fe0000000000000 kernel=sell prec="f64" traffic=3fed71f36262cba7`},
		{matrix: "Chem97ZtZ", want: `bs=64 k=1 omega=3feaf03b8224a73e rate=3fd6392f9b67ec90 spd=3f69f63cd666573b probed=25 skipped=0 solves=36 bracket=3fd574b1afec51ec,3ff55d2c6bfb147b spectral=true method=richardson2 beta=3fb999999999999a kernel=sell prec="f64" traffic=3feccccccccccccd`},
		{matrix: "poisson2d_31", want: `bs=64 k=2 omega=3ff163c78a20e980 rate=3fecd74447a87f68 spd=3f92714c122c9757 probed=25 skipped=0 solves=36 bracket=3fe01ac5aa80c2ba,3ff80d62d540615d spectral=true method=richardson2 beta=3fe0000000000000 kernel=stencil prec="f64" traffic=3fe365eba5da9956`},
		{matrix: "s1rmt3m1", want: `bs=0 k=0 omega=3ff0000000000000 rate=0 spd=7ff0000000000000 probed=25 skipped=25 solves=25 bracket=0,0 spectral=false method=jacobi beta=0 kernel=auto prec="" traffic=0`,
			err: "tune: no candidate configuration contracted (ρ(|B|) ≥ 1?)"},
	} {
		tm, err := mats.Generate(tc.matrix)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, tm.A.Rows)
		tm.A.MulVec(b, vecmath.Ones(tm.A.Cols))
		res, err := Tune(tm.A, b, Config{Seed: 1, Precisions: tc.precisions})
		var errText string
		if err != nil {
			errText = err.Error()
		}
		if errText != tc.err {
			t.Errorf("%s %v: error %q, want %q", tc.matrix, tc.precisions, errText, tc.err)
		}
		if got := goldenKey(res); got != tc.want {
			t.Errorf("%s %v:\n got %s\nwant %s", tc.matrix, tc.precisions, got, tc.want)
		}
	}
}
