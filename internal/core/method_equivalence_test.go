package core

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/certify"
	"repro/internal/mats"
	"repro/internal/sched"
	"repro/internal/sparse"
)

// methodCases are the systems the method-equivalence suite sweeps: one
// matrix per kernel family (9-point fv stencil, 5-point Poisson stencil,
// banded Trefethen — no stencil, so CSR only).
func methodCases() []struct {
	name string
	a    *sparse.CSR
	bs   int
} {
	return []struct {
		name string
		a    *sparse.CSR
		bs   int
	}{
		{"fv_20x16", mats.FV(20, 16, 1.368), 64},
		{"poisson_15", mats.Poisson2D(15, 15), 45},
		{"trefethen_500", mats.Trefethen(500), 96},
	}
}

func methodKernels(a *sparse.CSR) []KernelKind {
	ks := []KernelKind{KernelCSR}
	if _, ok := sparse.DetectStencil(a); ok {
		ks = append(ks, KernelStencil)
	}
	return ks
}

func methodRHS(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + float64(i%5)/3
	}
	return b
}

// hashIterate folds the iterate bits and residual into one comparable
// word — the golden-fixture format of the pre-refactor pinning below.
func hashIterate(x []float64, residual float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(residual))
	h.Write(buf[:])
	return h.Sum64()
}

// TestJacobiGoldenPreRefactor pins the deterministic engines to iterate
// hashes recorded on the tree immediately before the update-rule seam was
// extracted (commit "Add sweep-kernel dispatch ..."): the refactored
// jacobi path must stay bit-identical to the monolithic kernels it
// replaced, per kernel and per engine. The racy live engines (goroutine,
// free-running) are pinned by the replay-based checks below instead.
func TestJacobiGoldenPreRefactor(t *testing.T) {
	golden := map[string]uint64{
		"fv_20x16/simulated":      0xd916d8cad0e3a3f5,
		"fv_20x16/sharded":        0x5965fbfceb04f4a7,
		"poisson_15/simulated":    0x0b09e4ab027efe09,
		"poisson_15/sharded":      0xfb01042e639469c5,
		"trefethen_500/simulated": 0xac07e213543234bb,
		"trefethen_500/sharded":   0xe4e1ea97186b84f5,
	}
	for _, tc := range methodCases() {
		b := methodRHS(tc.a.Rows)
		opt := Options{
			BlockSize: tc.bs, LocalIters: 3, Omega: 0.9,
			MaxGlobalIters: 25, Seed: 5, StaleProb: 0.2,
		}
		for _, k := range methodKernels(tc.a) {
			res, err := SolveWithPlan(planForKernel(t, tc.a, tc.bs, k), b, opt)
			if err != nil {
				t.Fatalf("%s/%v simulated: %v", tc.name, k, err)
			}
			if got := hashIterate(res.X, res.Residual); got != golden[tc.name+"/simulated"] {
				t.Errorf("%s/%v simulated: hash %#x, pre-refactor golden %#x", tc.name, k, got, golden[tc.name+"/simulated"])
			}
			sres, err := SolveSharded(planForKernel(t, tc.a, tc.bs, k), b, opt, ShardOptions{Shards: 3, Sequential: true})
			if err != nil {
				t.Fatalf("%s/%v sharded: %v", tc.name, k, err)
			}
			if got := hashIterate(sres.X, sres.Residual); got != golden[tc.name+"/sharded"] {
				t.Errorf("%s/%v sharded: hash %#x, pre-refactor golden %#x", tc.name, k, got, golden[tc.name+"/sharded"])
			}
		}
	}
}

// hashEvents folds the replay-relevant fields of a captured event stream
// (epoch, block, sweeps, shift) into one comparable word.
func hashEvents(evs []sched.Event) uint64 {
	h := fnv.New64a()
	var buf [14]byte
	for _, e := range evs {
		binary.LittleEndian.PutUint32(buf[0:], uint32(e.Epoch))
		binary.LittleEndian.PutUint32(buf[4:], uint32(e.Block))
		binary.LittleEndian.PutUint32(buf[8:], uint32(e.Sweeps))
		binary.LittleEndian.PutUint16(buf[12:], uint16(e.Shift))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// hashTrace folds every statistic of a Chazan–Miranker trace into one word.
func hashTrace(tr *Trace) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, c := range tr.UpdatesPerBlock {
		put(int64(c))
	}
	put(int64(tr.GlobalIterations))
	put(int64(tr.MaxShift))
	put(tr.TotalReads)
	put(tr.StaleReads)
	put(int64(tr.SkippedUpdates))
	for s := 0; s <= tr.MaxShift; s++ {
		put(tr.ShiftCounts[s])
	}
	return h.Sum64()
}

// TestBarrierGoldenPreRefactor pins, with hashes recorded on the tree
// before the barrier engines were folded into one loop, what
// TestJacobiGoldenPreRefactor does not reach: the event stream and trace
// statistics a simulated solve records (with skipped blocks and stale
// reads), the goroutine engine replaying that capture, and the simulated
// engine replaying the same capture as a flat free-running one.
func TestBarrierGoldenPreRefactor(t *testing.T) {
	golden := map[string]uint64{
		"fv_20x16/live":                  0xe05c31e6079873e5,
		"fv_20x16/events":                0x19c67d77faba103a,
		"fv_20x16/trace":                 0xa594ef7c80594739,
		"fv_20x16/goroutine-replay":      0xc6aaec813618a0d6,
		"fv_20x16/flat-replay":           0xc6aaec813618a0d6,
		"poisson_15/live":                0x3b60dfdbed144b4d,
		"poisson_15/events":              0x19c67d77faba103a,
		"poisson_15/trace":               0xa4dae973d858f07f,
		"poisson_15/goroutine-replay":    0x567868ad69463545,
		"poisson_15/flat-replay":         0x567868ad69463545,
		"trefethen_500/live":             0x0a3d264c128164c3,
		"trefethen_500/events":           0xc1a2e81dc66219c5,
		"trefethen_500/trace":            0x4a27cd9f121f1956,
		"trefethen_500/goroutine-replay": 0x8cc0197b9c345c7e,
		"trefethen_500/flat-replay":      0x8cc0197b9c345c7e,
	}
	check := func(key string, got uint64) {
		t.Helper()
		if got != golden[key] {
			t.Errorf("%s: hash %#x, pre-refactor golden %#x", key, got, golden[key])
		}
	}
	for _, tc := range methodCases() {
		b := methodRHS(tc.a.Rows)
		rec := sched.NewRecorder(0)
		live, err := Solve(tc.a, b, Options{
			BlockSize: tc.bs, LocalIters: 3, Omega: 0.9, MaxGlobalIters: 25,
			Seed: 5, StaleProb: 0.2, RecordTrace: true, Record: rec,
			SkipBlock: func(iter, block int) bool { return iter == 2 && block == 1 },
		})
		if err != nil {
			t.Fatalf("%s live: %v", tc.name, err)
		}
		s := rec.Schedule()
		check(tc.name+"/live", hashIterate(live.X, live.Residual))
		check(tc.name+"/events", hashEvents(s.Events))
		check(tc.name+"/trace", hashTrace(live.Trace))

		rep, err := Solve(tc.a, b, Options{
			BlockSize: tc.bs, LocalIters: 3, MaxGlobalIters: 25,
			Engine: EngineGoroutine, Workers: 4, Replay: s,
		})
		if err != nil {
			t.Fatalf("%s goroutine replay: %v", tc.name, err)
		}
		check(tc.name+"/goroutine-replay", hashIterate(rep.X, rep.Residual))

		flat := *s
		flat.Meta.Engine = "freerunning"
		frep, err := Solve(tc.a, b, Options{
			BlockSize: tc.bs, LocalIters: 3, MaxGlobalIters: 25, Replay: &flat,
		})
		if err != nil {
			t.Fatalf("%s flat replay: %v", tc.name, err)
		}
		check(tc.name+"/flat-replay", hashIterate(frep.X, frep.Residual))
	}
}

// TestMethodEquivalenceBetaZeroDeterministic is the seam's defining
// property on the deterministic engines: richardson2 with β = 0 must be
// bit-identical to jacobi — the momentum branch is gated on β ≠ 0, not on
// the rule kind, so a zero coefficient takes the literal jacobi code path
// (no fused-add rounding drift, no −0.0 artifacts) on every kernel.
func TestMethodEquivalenceBetaZeroDeterministic(t *testing.T) {
	for _, tc := range methodCases() {
		t.Run(tc.name, func(t *testing.T) {
			b := methodRHS(tc.a.Rows)
			base := Options{
				BlockSize: tc.bs, LocalIters: 3, Omega: 0.9,
				MaxGlobalIters: 25, RecordHistory: true, Seed: 5, StaleProb: 0.2,
			}
			mom := base
			mom.Method, mom.Beta = RuleRichardson2, 0
			for _, k := range methodKernels(tc.a) {
				jac, err := SolveWithPlan(planForKernel(t, tc.a, tc.bs, k), b, base)
				if err != nil {
					t.Fatalf("jacobi (%v): %v", k, err)
				}
				r2, err := SolveWithPlan(planForKernel(t, tc.a, tc.bs, k), b, mom)
				if err != nil {
					t.Fatalf("richardson2 β=0 (%v): %v", k, err)
				}
				requireBitIdentical(t, r2, jac)

				sj, err := SolveSharded(planForKernel(t, tc.a, tc.bs, k), b, base, ShardOptions{Shards: 3, Sequential: true})
				if err != nil {
					t.Fatalf("sharded jacobi (%v): %v", k, err)
				}
				sr, err := SolveSharded(planForKernel(t, tc.a, tc.bs, k), b, mom, ShardOptions{Shards: 3, Sequential: true})
				if err != nil {
					t.Fatalf("sharded richardson2 β=0 (%v): %v", k, err)
				}
				requireBitIdentical(t, sr, sj)
			}
		})
	}
}

// TestMethodEquivalenceBetaZeroReplay extends the β = 0 identity to the
// live engines through their replay paths: one schedule recorded from a
// concurrent jacobi run (goroutine; free-running) is replayed under both
// rules, so the comparison sees a real interleaving rather than the
// sequential emulation.
func TestMethodEquivalenceBetaZeroReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("replay equivalence is not part of the -short gate")
	}
	for _, tc := range methodCases() {
		t.Run(tc.name, func(t *testing.T) {
			b := methodRHS(tc.a.Rows)

			rec := sched.NewRecorder(0)
			recOpt := Options{
				BlockSize: tc.bs, LocalIters: 2, MaxGlobalIters: 12,
				Engine: EngineGoroutine, Seed: 11, Workers: 4, Record: rec,
			}
			if _, err := Solve(tc.a, b, recOpt); err != nil {
				t.Fatalf("record goroutine: %v", err)
			}
			gs := rec.Schedule()
			for _, k := range methodKernels(tc.a) {
				opt := Options{
					BlockSize: tc.bs, LocalIters: 2, MaxGlobalIters: 12,
					Engine: EngineGoroutine, Replay: gs, RecordHistory: true,
				}
				jac, err := SolveWithPlan(planForKernel(t, tc.a, tc.bs, k), b, opt)
				if err != nil {
					t.Fatalf("replay jacobi (%v): %v", k, err)
				}
				opt.Method, opt.Beta = RuleRichardson2, 0
				r2, err := SolveWithPlan(planForKernel(t, tc.a, tc.bs, k), b, opt)
				if err != nil {
					t.Fatalf("replay richardson2 β=0 (%v): %v", k, err)
				}
				requireBitIdentical(t, r2, jac)
			}

			rec = sched.NewRecorder(0)
			if _, err := SolveFreeRunning(tc.a, b, FreeRunningOptions{
				BlockSize: tc.bs, LocalIters: 2, MaxBlockUpdates: 300,
				Tolerance: 1e-12, Workers: 3, Record: rec,
			}); err != nil {
				t.Fatalf("record free-running: %v", err)
			}
			fs := rec.Schedule()
			for _, k := range methodKernels(tc.a) {
				fopt := FreeRunningOptions{
					BlockSize: tc.bs, LocalIters: 2, Tolerance: 1e-12, Replay: fs,
				}
				jac, err := SolveFreeRunningWithPlan(planForKernel(t, tc.a, tc.bs, k), b, fopt)
				if err != nil {
					t.Fatalf("freerun replay jacobi (%v): %v", k, err)
				}
				fopt.Method, fopt.Beta = RuleRichardson2, 0
				r2, err := SolveFreeRunningWithPlan(planForKernel(t, tc.a, tc.bs, k), b, fopt)
				if err != nil {
					t.Fatalf("freerun replay richardson2 β=0 (%v): %v", k, err)
				}
				for j := range r2.X {
					if math.Float64bits(r2.X[j]) != math.Float64bits(jac.X[j]) {
						t.Fatalf("freerun (%v): x[%d] = %v, jacobi %v", k, j, r2.X[j], jac.X[j])
					}
				}
				if math.Float64bits(r2.Residual) != math.Float64bits(jac.Residual) {
					t.Fatalf("freerun (%v): residual %v, jacobi %v", k, r2.Residual, jac.Residual)
				}
			}
		})
	}
}

// TestMomentumConvergesWhereCertified is the momentum safety property the
// docs promise: on any system the admission certifier classifies as
// Converges, the second-order rule must not diverge under chaotic
// replayed schedules for any admissible β — momentum may trade iterations
// but never turns a certified system divergent.
func TestMomentumConvergesWhereCertified(t *testing.T) {
	betas := []float64{0.1, 0.3, 0.5, 0.8}
	if testing.Short() {
		betas = []float64{0.3}
	}
	for _, tc := range methodCases() {
		t.Run(tc.name, func(t *testing.T) {
			cert, err := certify.Certify(tc.a, certify.Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if cert.Verdict != certify.VerdictConverges {
				t.Skipf("certifier verdict %v; property only binds certified systems", cert.Verdict)
			}
			b := methodRHS(tc.a.Rows)

			// One recorded concurrent schedule per system: every β replays
			// the same chaotic interleaving, so a divergence would be
			// attributable to momentum alone.
			rec := sched.NewRecorder(0)
			if _, err := Solve(tc.a, b, Options{
				BlockSize: tc.bs, LocalIters: 3, MaxGlobalIters: 60,
				Engine: EngineGoroutine, Seed: 17, Workers: 4, Record: rec,
			}); err != nil {
				t.Fatalf("record: %v", err)
			}
			s := rec.Schedule()

			base, err := Solve(tc.a, b, Options{
				BlockSize: tc.bs, LocalIters: 3, MaxGlobalIters: 60,
				Engine: EngineGoroutine, Replay: s,
			})
			if err != nil {
				t.Fatalf("replay jacobi: %v", err)
			}
			for _, beta := range betas {
				res, err := Solve(tc.a, b, Options{
					BlockSize: tc.bs, LocalIters: 3, MaxGlobalIters: 60,
					Engine: EngineGoroutine, Replay: s,
					Method: RuleRichardson2, Beta: beta,
				})
				if err != nil && errors.Is(err, ErrDiverged) {
					t.Fatalf("β=%.2f: momentum diverged on a certified system: %v", beta, err)
				}
				if err != nil {
					t.Fatalf("β=%.2f: %v", beta, err)
				}
				if math.IsNaN(res.Residual) || math.IsInf(res.Residual, 0) {
					t.Fatalf("β=%.2f: non-finite residual %v", beta, res.Residual)
				}
				if res.Residual > 10*base.Residual && res.Residual > 1e-6 {
					t.Errorf("β=%.2f: residual %.3e far above jacobi's %.3e on a certified system",
						beta, res.Residual, base.Residual)
				}
			}
		})
	}
}
