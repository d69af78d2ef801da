// Package tune is the per-matrix auto-tuner for the async-(k) solver's
// free parameters: the subdomain (block) size, the local iteration count k
// and the relaxation weight ω.
//
// The paper sets these "through empirically based tuning" (§3.2: block
// size 448 on Fermi, 128 for the non-determinism study; k = 5 from the
// §4.3 trade-off) and names the optimal choice of local iterations,
// subdomain sizes and scaling parameters an open problem (§5). Related
// work (Chow, Frommer & Szyld, "Asynchronous Richardson iterations")
// likewise finds the damping weight must be tuned per problem before an
// asynchronous method beats its synchronous counterpart. Tune automates
// the process the paper did by hand:
//
//   - a small grid over (block size, k) — paper-representative block
//     sizes × k ∈ {1..8} — evaluated by short seeded probe solves that
//     reuse one core.Plan per block size. A block size's k probes do
//     not depend on each other, so they run side by side on up to
//     GOMAXPROCS goroutines and are folded in grid order: the Result is
//     the same, bit for bit, at any GOMAXPROCS. Block sizes run one
//     after another, so at most two plans are alive at once: the one
//     being probed and the best so far;
//   - a golden-section refinement of ω at the winning (block size, k),
//     bracketing around the spectral estimate τ = 2/(λ₁+λ_n) from
//     internal/spectral (the paper's §4.2 scaled-Jacobi weight). This
//     stage is serial: each point follows from the previous comparison;
//   - a method stage that probes the second-order Richardson rule at
//     β ∈ {0.1, 0.3, 0.5}, its probes side by side like the grid's;
//   - every candidate scored by modeled seconds per decimal digit of
//     residual reduction: the probe's measured contraction rate combined
//     with the calibrated per-iteration hardware cost from
//     internal/gpusim, so a configuration that iterates faster but
//     converges slower is priced honestly (the paper's Figure 8 trade-off).
//
// The tuner picks no sweep kernel and no precision. Every plan it builds
// dispatches by internal/core's one kernel rule (the matrix-free stencil
// kernel when the matrix detects stencil structure, packed CSR
// otherwise), and every probe runs in float64. Kernel dispatch is
// bit-transparent, so it changes no probe's rate; the score prices every
// probe at the model's packed-CSR per-iteration cost (see
// docs/KERNELS.md).
//
// A Result is a plain value; internal/service caches one per matrix
// fingerprint so repeated solves of a known matrix skip the search
// entirely. See docs/TUNING.md for a worked walkthrough.
package tune
