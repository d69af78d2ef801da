package core

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// BatchOptions configures SolveBatch on top of Options.
type BatchOptions struct {
	// Workers is the number of systems solved concurrently. Default 1,
	// which runs the systems strictly in order 0..N-1 on the calling
	// goroutine — by construction exactly the loop a caller would write
	// around per-system solves, which the batch-equivalence conformance
	// test pins down bitwise.
	Workers int
}

func (bo BatchOptions) withDefaults() BatchOptions {
	if bo.Workers == 0 {
		bo.Workers = 1
	}
	return bo
}

// SystemResult reports one system of a batched solve.
type SystemResult struct {
	// Index is the system's position in the request, [0, N).
	Index int
	// X is the system's final iterate — a view into the batch's contiguous
	// backing array (BatchResult.Iterates), not a private copy.
	X                []float64
	GlobalIterations int
	Residual         float64
	Converged        bool
	// Err is the system's solve error (divergence, cancellation), nil for
	// a clean run. A system that merely exhausted its budget has Err nil
	// and Converged false, matching the SolveWithPlan contract.
	Err error
}

// BatchResult reports a batched solve over N systems sharing one plan.
type BatchResult struct {
	// Systems holds one entry per input system, in input order, including
	// the ones that failed — partial failure is per-system, never
	// all-or-nothing.
	Systems []SystemResult
	// Iterates is the contiguous N×n backing array of all the systems'
	// final iterates; Systems[j].X is the row view Iterates[j*n:(j+1)*n].
	// Batch consumers stream this as one buffer instead of N allocations.
	Iterates []float64
	// Converged counts systems that reached tolerance; Failed counts
	// systems with a non-nil Err.
	Converged, Failed int
	// TotalIterations sums the systems' global iteration counts.
	TotalIterations int
}

// BatchSeed derives the scheduler seed of system j of a batch whose
// resolved Options.Seed is base: a splitmix64-style scramble, never zero,
// so every system of a batch runs a distinct deterministic stream. It is
// exported so a batched system's solve can be reproduced standalone —
// SolveWithPlan with Seed: BatchSeed(base, j) — which the batch-equivalence
// conformance test exploits.
func BatchSeed(base int64, j int) int64 {
	z := uint64(base) ^ (uint64(j)+1)*0x9E3779B97F4A7C15
	z ^= z >> 31
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	return int64(z | 1)
}

// SolveBatch solves N small systems that share one structure — one plan,
// N right-hand sides — as a single run: the multi-user analogue of GPU
// batched kernels (thousands of tiny independent subdomain problems
// resident at once), applied across requests instead of within one.
//
// Each system j runs on the sharded executor's sequential one-shard path
// (SolveSharded; deterministic for a fixed seed and bit-identical to the
// goroutine engine at Workers=1) with its own derived seed
// BatchSeed(seed, j); systems are distributed over
// BatchOptions.Workers. Convergence is tracked per system and failures are
// per-system too: one diverging RHS marks its SystemResult.Err and the
// rest of the batch completes normally. The batch-level error is reserved
// for structural problems (mismatched RHS lengths, zero systems, invalid
// options) and cancellation.
//
// opt follows the SolveWithPlan contract. InitialGuess must be nil (the
// systems share structure, not state), and Record/Replay are not supported
// — record or replay a single system's solve through SolveWithPlan with
// its BatchSeed instead.
func SolveBatch(p *Plan, rhs [][]float64, opt Options, bo BatchOptions) (BatchResult, error) {
	if len(rhs) == 0 {
		return BatchResult{}, fmt.Errorf("core: SolveBatch needs at least one system, have 0")
	}
	if opt.InitialGuess != nil {
		return BatchResult{}, fmt.Errorf("core: SolveBatch does not accept InitialGuess (systems share structure, not state)")
	}
	if opt.MomentumGuess != nil {
		return BatchResult{}, fmt.Errorf("core: SolveBatch does not accept MomentumGuess (systems share structure, not state)")
	}
	if opt.Record != nil || opt.Replay != nil {
		return BatchResult{}, fmt.Errorf("core: SolveBatch does not record or replay schedules; use SolveWithPlan with the system's BatchSeed")
	}
	n := p.a.Rows
	for j, b := range rhs {
		if len(b) != n {
			return BatchResult{}, fmt.Errorf("core: batch system %d: rhs length %d does not match matrix dimension %d", j, len(b), n)
		}
	}
	bo = bo.withDefaults()
	if bo.Workers < 1 {
		return BatchResult{}, fmt.Errorf("core: BatchOptions.Workers must be positive, have %d", bo.Workers)
	}
	// Resolve the seed once at the batch level so the per-system streams
	// are fixed before any system runs, regardless of worker interleaving.
	opt = opt.withDefaults()
	base := opt.Seed

	N := len(rhs)
	res := BatchResult{
		Systems:  make([]SystemResult, N),
		Iterates: make([]float64, N*n),
	}

	runSystem := func(j int) {
		sr := &res.Systems[j]
		sr.Index = j
		sr.X = res.Iterates[j*n : (j+1)*n : (j+1)*n]
		if err := ctxErr(opt.Ctx, 0); err != nil {
			sr.Err = err
			return
		}
		optj := opt
		optj.Seed = BatchSeed(base, j)
		r, err := SolveSharded(p, rhs[j], optj, ShardOptions{Shards: 1, Sequential: true})
		if r.X != nil {
			copy(sr.X, r.X)
		}
		sr.GlobalIterations = r.GlobalIterations
		sr.Residual = r.Residual
		sr.Converged = r.Converged
		sr.Err = err
	}

	if bo.Workers == 1 {
		// Strictly sequential in input order on the calling goroutine —
		// the bitwise anchor of the batch-equivalence conformance test.
		for j := 0; j < N; j++ {
			runSystem(j)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		workers := bo.Workers
		if workers > N {
			workers = N
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					j := int(next.Add(1)) - 1
					if j >= N {
						return
					}
					runSystem(j)
				}
			}()
		}
		wg.Wait()
	}

	for j := range res.Systems {
		sr := &res.Systems[j]
		if sr.Converged {
			res.Converged++
		}
		if sr.Err != nil {
			res.Failed++
		}
		res.TotalIterations += sr.GlobalIterations
	}
	if err := ctxErr(opt.Ctx, 0); err != nil {
		return res, err
	}
	return res, nil
}
