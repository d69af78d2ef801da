// Package service turns the block-asynchronous relaxation library into a
// long-running solver service: a concurrency-safe per-matrix plan cache, a
// bounded job queue with a worker pool and per-job cancellation, and an
// HTTP JSON API (served by cmd/solverd).
//
// The paper's economics motivate the cache: once a subdomain's state is
// resident, additional local iterations "almost come for free" (§4.3). The
// host-side analogue is the per-matrix setup — block partition, block CSR
// views, inverse diagonal, dense LU factors for exact local solves — which
// a one-shot call rebuilds on every solve. A daemon serving repeated
// solves of the same operators (time stepping, parameter sweeps,
// preconditioner applications) pays it once per plan shape, whatever the
// local iterations, ω, method or β of each solve.
//
// The same fingerprint key also caches auto-tuner results (tune.go):
// a job with "tune": "auto" runs the internal/tune parameter search the
// first time a matrix is seen and every later solve of that operator
// reuses the tuned (block size, k, ω) with zero probe solves. Searches,
// cache hits and probe counts surface at /statsz and /metricsz.
package service
