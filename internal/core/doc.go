// Package core implements the paper's primary contribution: the
// block-asynchronous relaxation method async-(k) for GPUs (Algorithm 1,
// Eq. 4).
//
// The linear system is decomposed into contiguous blocks of rows
// ("subdomains"); each block corresponds to one GPU thread block. Blocks
// iterate asynchronously with respect to each other — they read whatever
// values of the off-block components happen to be in global memory — while
// inside a block k synchronous Jacobi-like sweeps are performed with the
// off-block contribution frozen. One *global iteration* sweeps every block
// exactly once (in chaotic order), so every component is updated k times
// per global iteration.
//
// Every engine with global iterations runs the same loop, runBarrier
// (substrate.go), and differs only in the (scheduler, executor) pair it
// hands that loop. The scheduler (BlockScheduler) decides which blocks run
// in what order and what they read (IterateView); the executor decides
// where they run, and where the exact residual check's rows run — the pool
// fills them on its workers after the barrier, the others on the solve's
// goroutine, with one serial norm either way, so the residual's bits do
// not depend on the executor:
//
//	engine                      scheduler                      executor
//	EngineSimulated             wave: snapshots, race coins    inline
//	EngineGoroutine             chaotic: live reads            pool (blocks and residual rows)
//	SolveSharded                chaotic: shard views           shards
//	SolveSharded, Sequential    chaotic: shard views           inline
//	Options.Replay              replay: a capture's epochs     inline
//
// The engines:
//
//   - EngineSimulated: a deterministic, seeded reproduction of the GPU's
//     chaotic block scheduling (gpusim.Scheduler). Blocks execute
//     sequentially in scheduler order against the live iterate, giving the
//     "block Gauss-Seidel flavor" the paper notes; a configurable fraction
//     of blocks instead reads the snapshot from the start of the global
//     iteration, modeling overlapping execution. Fully reproducible; can
//     record a Chazan–Miranker update/shift trace.
//
//   - EngineGoroutine: real asynchrony. Blocks are dispatched to a pool of
//     workers (default 14, the Fermi C2070's multiprocessor count) and
//     read/write the shared iterate through per-component atomics with no
//     further synchronization. Interleavings — and therefore results —
//     genuinely vary between runs, like the paper's 1000-run study (§4.1).
//
//   - SolveSharded: the substrate of the multi-device and cluster
//     executors — one goroutine per shard, off-shard reads through a
//     ShardViewProvider (or, Sequential, the shards' blocks in one
//     dispatch order on the solve's goroutine).
//
//   - Replays (Options.Replay) re-execute a captured schedule one recorded
//     epoch per global iteration: the simulated engine through the
//     capture's own views, the goroutine engine against the live iterate.
//
//   - EngineFreeRunning: an extension with no global barrier, only a
//     bounded lead between workers; see SolveFreeRunning.
//
// All engines run their inner sweeps through a fused block-row kernel
// staged once in NewPlan — the host-side analogue of the paper's
// shared-memory blocking — and Plan carries reusable per-solve scratch so
// a warm solve allocates nothing in steady state (enforced by
// alloc_test.go). The kernel itself is dispatched per matrix structure
// (kernel_dispatch.go, docs/KERNELS.md) by one rule: a matrix-free
// constant-coefficient stencil kernel for matrices that declare or detect
// stencil structure (interior rows load no column indices; boundary rows
// fall back to packed CSR), packed per-block CSR views otherwise. Both
// kernels preserve the reference floating-point operation order and
// IterateView.Load order, so float64 iterates are bit-identical across
// kernels and the dispatch is purely a performance decision. The update
// rule is a third, orthogonal axis (update_rule.go, docs/METHODS.md):
// Options.Method selects the paper's first-order Jacobi sweep or the
// second-order momentum Richardson recurrence x⁺ = x + ωD⁻¹r + β(x − x⁻)
// (Options.Beta), threaded through every engine and kernel; a β = 0 rule
// of either kind takes the literal first-order code path, so richardson2
// with β = 0 is bit-identical to jacobi by construction.
// Options.Precision selects float32 iterate storage with float64
// accumulation and float64 residual checks (precision.go). DESIGN.md §2
// records the layout rationale.
package core
