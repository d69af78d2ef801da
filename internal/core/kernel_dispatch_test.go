package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/mats"
	"repro/internal/sched"
	"repro/internal/sparse"
)

// dispatchKernels are the two explicit kernel choices every consistency
// test compares; KernelCSR is the anchor.
var dispatchKernels = []KernelKind{KernelCSR, KernelStencil}

// dispatchCases are stencil-family matrices with block sizes chosen so
// blocks contain all three row classes: full-in-block fast rows, interior
// rows straddling a block boundary, and domain-boundary rows.
func dispatchCases() []struct {
	name      string
	a         *sparse.CSR
	blockSize int
} {
	return []struct {
		name      string
		a         *sparse.CSR
		blockSize int
	}{
		{"fv_30x20", mats.FV(30, 20, 1.368), 64},
		{"fv_17x11_ragged", mats.FV(17, 11, 0.5), 48}, // 187 = 3·48 + 43
		{"poisson_24x25", mats.Poisson2D(24, 25), 96},
		{"s1rmt3m1_300", mats.S1RMT3M1(300), 64},
		{"poisson_1x1", mats.Poisson2D(1, 1), 4}, // width-1 stencil, single row
	}
}

func planForKernel(t *testing.T, a *sparse.CSR, bs int, k KernelKind) *Plan {
	t.Helper()
	p, err := NewPlanWithConfig(a, bs, false, PlanConfig{Kernel: k})
	if err != nil {
		t.Fatalf("plan (%v): %v", k, err)
	}
	if p.Kernel() != k {
		t.Fatalf("plan resolved kernel %v, want %v", p.Kernel(), k)
	}
	return p
}

func TestKernelAutoDispatch(t *testing.T) {
	fv := mats.FV(20, 16, 1.368)
	p, err := NewPlan(fv, 64, false)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kernel() != KernelStencil {
		t.Fatalf("auto plan on fv: kernel %v, want stencil", p.Kernel())
	}
	si := p.StencilInfo()
	if si == nil || si.InteriorRows != 18*14 {
		t.Fatalf("auto plan on fv: stencil info %+v", si)
	}

	tref := mats.Trefethen(120)
	p, err = NewPlan(tref, 32, false)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kernel() != KernelCSR {
		t.Fatalf("auto plan on trefethen: kernel %v, want csr", p.Kernel())
	}
	if p.StencilInfo() != nil {
		t.Fatal("csr plan should carry no stencil info")
	}

	// Exact-local plans never run the sweep kernel; auto resolves to CSR.
	p, err = NewPlan(fv, 64, true)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kernel() != KernelCSR {
		t.Fatalf("auto exact-local plan: kernel %v, want csr", p.Kernel())
	}

	// Explicit stencil on a non-stencil matrix fails plan construction.
	if _, err := NewPlanWithConfig(tref, 32, false, PlanConfig{Kernel: KernelStencil}); err == nil {
		t.Fatal("explicit stencil on trefethen: want error")
	}

	// A declared spec drives the stencil without detection.
	poisson := mats.Poisson2D(12, 12)
	spec := &sparse.StencilSpec{Offsets: []int{-12, -1, 0, 1, 12}, Coeffs: []float64{-1, -1, 4, -1, -1}}
	p, err = NewPlanWithConfig(poisson, 36, false, PlanConfig{Stencil: spec})
	if err != nil {
		t.Fatal(err)
	}
	if p.Kernel() != KernelStencil || p.StencilInfo().InteriorRows != 10*10 {
		t.Fatalf("declared spec: kernel %v, info %+v", p.Kernel(), p.StencilInfo())
	}

	// A declared spec that matches no row is a construction error.
	bad := &sparse.StencilSpec{Offsets: []int{-1, 0, 1}, Coeffs: []float64{-9, 4, -9}}
	if _, err := NewPlanWithConfig(poisson, 36, false, PlanConfig{Stencil: bad}); err == nil ||
		!strings.Contains(err.Error(), "matches no row") {
		t.Fatalf("mismatched declared spec: err = %v", err)
	}
}

func TestParseKernel(t *testing.T) {
	for s, want := range map[string]KernelKind{
		"": KernelAuto, "auto": KernelAuto, "csr": KernelCSR,
		"stencil": KernelStencil, "CSR": KernelCSR,
	} {
		k, err := ParseKernel(s)
		if err != nil || k != want {
			t.Errorf("ParseKernel(%q) = %v, %v; want %v", s, k, err, want)
		}
		if s != "" && k.String() != strings.ToLower(s) {
			t.Errorf("%v.String() = %q", k, k.String())
		}
	}
	for _, s := range []string{"ellpack", "sell"} {
		_, err := ParseKernel(s)
		if err == nil || !strings.Contains(err.Error(), `(want "auto", "csr" or "stencil")`) {
			t.Errorf("ParseKernel(%q) error = %v, want one listing auto, csr and stencil", s, err)
		}
	}
}

// TestKernelConsistencyShortFV is the CI -short consistency gate: on the
// fv stencil family, solves dispatched through the stencil kernel and
// under KernelAuto must be bit-identical to the packed-CSR baseline under
// the seeded simulated engine, whose racing reader makes Load-order
// divergence impossible to miss. FVTiled rides along under KernelAuto:
// whatever the detector decides for the permuted operator must not change
// the result.
func TestKernelConsistencyShortFV(t *testing.T) {
	for _, tc := range []struct {
		name string
		a    *sparse.CSR
		bs   int
	}{
		{"fv_30x20", mats.FV(30, 20, 1.368), 64},
		{"fv_12x9", mats.FV(12, 9, 1.368), 32},
		{"fvtiled_20x16_auto", mats.FVTiled(20, 16, 1.368), 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := make([]float64, tc.a.Rows)
			for i := range b {
				b[i] = 1 + float64(i%5)/3
			}
			opt := Options{
				BlockSize: tc.bs, LocalIters: 3, Omega: 0.9,
				MaxGlobalIters: 30, RecordHistory: true,
				Seed: 23, StaleProb: 0.25,
			}
			base, err := SolveWithPlan(planForKernel(t, tc.a, tc.bs, KernelCSR), b, opt)
			if err != nil {
				t.Fatal(err)
			}
			kernels := []KernelKind{KernelAuto}
			if _, ok := sparse.DetectStencil(tc.a); ok {
				kernels = append(kernels, KernelStencil)
			}
			for _, k := range kernels {
				p, err := NewPlanWithConfig(tc.a, tc.bs, false, PlanConfig{Kernel: k})
				if err != nil {
					t.Fatalf("plan (%v): %v", k, err)
				}
				res, err := SolveWithPlan(p, b, opt)
				if err != nil {
					t.Fatalf("solve (%v): %v", k, err)
				}
				requireBitIdentical(t, res, base)
			}
		})
	}
}

// TestKernelConsistencySimulated extends the bitwise check to the other
// stencil-family operators and the explicit three-kernel matrix.
func TestKernelConsistencySimulated(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by TestKernelConsistencyShortFV in -short mode")
	}
	for _, tc := range dispatchCases() {
		t.Run(tc.name, func(t *testing.T) {
			b := make([]float64, tc.a.Rows)
			for i := range b {
				b[i] = 1 + float64(i%7)/7
			}
			opt := Options{
				BlockSize: tc.blockSize, LocalIters: 3, Omega: 1.1,
				MaxGlobalIters: 40, RecordHistory: true,
				Seed: 7, StaleProb: 0.3,
			}
			var base Result
			for i, k := range dispatchKernels {
				res, err := SolveWithPlan(planForKernel(t, tc.a, tc.blockSize, k), b, opt)
				if err != nil {
					t.Fatalf("solve (%v): %v", k, err)
				}
				if i == 0 {
					base = res
					continue
				}
				requireBitIdentical(t, res, base)
			}
		})
	}
}

// TestKernelConsistencyGoroutineReplay replays one recorded concurrent
// schedule through both kernels: bit-identical iterates mean the
// stencil sweep preserves the CSR kernel's operation order under
// a real interleaving, not just the sequential emulation.
func TestKernelConsistencyGoroutineReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("replay consistency is not part of the -short gate")
	}
	for _, tc := range dispatchCases() {
		t.Run(tc.name, func(t *testing.T) {
			b := make([]float64, tc.a.Rows)
			for i := range b {
				b[i] = 1
			}
			rec := sched.NewRecorder(0)
			recOpt := Options{
				BlockSize: tc.blockSize, LocalIters: 2, MaxGlobalIters: 12,
				Engine: EngineGoroutine, Seed: 11, Workers: 4, Record: rec,
			}
			if _, err := SolveWithPlan(planForKernel(t, tc.a, tc.blockSize, KernelCSR), b, recOpt); err != nil {
				t.Fatalf("record: %v", err)
			}
			s := rec.Schedule()
			var base Result
			for i, k := range dispatchKernels {
				opt := Options{
					BlockSize: tc.blockSize, LocalIters: 2, MaxGlobalIters: 12,
					Engine: EngineGoroutine, Replay: s, RecordHistory: true,
				}
				res, err := SolveWithPlan(planForKernel(t, tc.a, tc.blockSize, k), b, opt)
				if err != nil {
					t.Fatalf("replay (%v): %v", k, err)
				}
				if i == 0 {
					base = res
					continue
				}
				requireBitIdentical(t, res, base)
			}
		})
	}
}

// TestKernelConsistencyFreeRunningReplay does the same for the
// barrier-free engine.
func TestKernelConsistencyFreeRunningReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("replay consistency is not part of the -short gate")
	}
	for _, tc := range dispatchCases() {
		t.Run(tc.name, func(t *testing.T) {
			b := make([]float64, tc.a.Rows)
			for i := range b {
				b[i] = 1
			}
			rec := sched.NewRecorder(0)
			recOpt := FreeRunningOptions{
				BlockSize: tc.blockSize, LocalIters: 2,
				MaxBlockUpdates: 500, Tolerance: 1e-12, Workers: 3, Record: rec,
			}
			if _, err := SolveFreeRunning(tc.a, b, recOpt); err != nil {
				t.Fatalf("record: %v", err)
			}
			s := rec.Schedule()
			var base FreeRunningResult
			for i, k := range dispatchKernels {
				p := planForKernel(t, tc.a, tc.blockSize, k)
				res, err := SolveFreeRunningWithPlan(p, b, FreeRunningOptions{
					BlockSize: tc.blockSize, LocalIters: 2, Tolerance: 1e-12, Replay: s,
				})
				if err != nil {
					t.Fatalf("replay (%v): %v", k, err)
				}
				if i == 0 {
					base = res
					continue
				}
				for j := range res.X {
					if math.Float64bits(res.X[j]) != math.Float64bits(base.X[j]) {
						t.Fatalf("kernel %v: x[%d] = %v, csr %v", k, j, res.X[j], base.X[j])
					}
				}
				if math.Float64bits(res.Residual) != math.Float64bits(base.Residual) {
					t.Fatalf("kernel %v: residual %v, csr %v", k, res.Residual, base.Residual)
				}
			}
		})
	}
}

// TestKernelConsistencySharded runs the sharded executor (sequential mode
// is deterministic per seed) across the kernel dispatches.
func TestKernelConsistencySharded(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded consistency is not part of the -short gate")
	}
	a := mats.FV(20, 20, 1.368)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	opt := Options{
		BlockSize: 50, LocalIters: 2, MaxGlobalIters: 20,
		RecordHistory: true, Seed: 31,
	}
	so := ShardOptions{Shards: 3, Sequential: true}
	var base Result
	for i, k := range dispatchKernels {
		res, err := SolveSharded(planForKernel(t, a, 50, k), b, opt, so)
		if err != nil {
			t.Fatalf("sharded (%v): %v", k, err)
		}
		if i == 0 {
			base = res
			continue
		}
		requireBitIdentical(t, res, base)
	}
}

// TestStencilPerturbedRowSolveMatchesCSR is the end-to-end half of the
// almost-a-stencil property: perturbing one interior coefficient demotes
// that row to the CSR fallback, and the whole solve must stay bit-identical
// to the pure-CSR plan — the demotion is provably lossless.
func TestStencilPerturbedRowSolveMatchesCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	trials := 12
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		w := 8 + rng.Intn(10)
		h := 8 + rng.Intn(10)
		a := mats.Poisson2D(w, h)
		row := (1+rng.Intn(h-2))*w + 1 + rng.Intn(w-2) // an interior row
		p := a.RowPtr[row] + rng.Intn(a.RowPtr[row+1]-a.RowPtr[row])
		a.Val[p] += 0.5 + rng.Float64()

		sp, err := NewPlanWithConfig(a, 64, false, PlanConfig{Kernel: KernelStencil})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sp.StencilInfo().Interior[row] {
			t.Fatalf("trial %d: perturbed row %d not demoted", trial, row)
		}
		b := make([]float64, a.Rows)
		for i := range b {
			b[i] = 1
		}
		opt := Options{
			BlockSize: 64, LocalIters: 3, MaxGlobalIters: 25,
			RecordHistory: true, Seed: int64(100 + trial), StaleProb: 0.2,
		}
		sres, err := SolveWithPlan(sp, b, opt)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		cres, err := SolveWithPlan(planForKernel(t, a, 64, KernelCSR), b, opt)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		requireBitIdentical(t, sres, cres)
	}
}
