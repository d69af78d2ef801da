package service

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/mats"
	"repro/internal/multigrid"
	"repro/internal/sparse"
	"repro/internal/tune"
)

// runMultigridAttempt executes a method=multigrid job: geometric V-cycles
// on the five-point Poisson operator with an auto-tuned asynchronous
// smoother — the paper's method graduated from standalone solver to the
// smoothing role where its cheap chaotic sweeps pay off per cycle.
//
// The route is solve-only and restricted to operators the hierarchy can
// rediscretize: the matrix must be exactly mats.Poisson2D(W, W) for an odd
// W ≥ 5 (checked by fingerprint, so a bit-for-bit equal uploaded Matrix
// Market operator qualifies too). The smoother's block size, sweep count,
// ω and update rule come from the tuning cache — one search per matrix
// fingerprint, method/β stage included — with explicitly set request
// fields overriding the tuned value, mirroring tune=auto. MaxGlobalIters
// bounds V-cycles here, and the result's GlobalIterations reports cycles.
func (s *Service) runMultigridAttempt(ctx context.Context, j *Job, a *sparse.CSR, fp string, b []float64) (*JobResult, error) {
	req := j.req

	w := int(math.Round(math.Sqrt(float64(a.Rows))))
	if w*w != a.Rows || w < 5 || w%2 == 0 {
		return nil, fmt.Errorf("service: method=multigrid needs an odd square grid (n = W×W, odd W ≥ 5), have n=%d", a.Rows)
	}
	if Fingerprint(mats.Poisson2D(w, w)) != fp {
		return nil, fmt.Errorf("service: method=multigrid supports the five-point Poisson operator on the %dx%d grid; the submitted matrix differs", w, w)
	}

	tr, tuneHit, err := s.cache.GetOrTune(a, fp, b, tune.Config{Seed: analysisSeed})
	if err != nil {
		return nil, fmt.Errorf("service: multigrid smoother tune: %w", err)
	}
	sm := &multigrid.AsyncSmoother{
		BlockSize:   tr.BlockSize,
		LocalIters:  tr.LocalIters,
		GlobalIters: 2,
		Omega:       tr.Omega,
		Method:      tr.Method,
		Beta:        tr.Beta,
		Ctx:         ctx,
	}
	if req.BlockSize > 0 {
		sm.BlockSize = req.BlockSize
	}
	if req.LocalIters > 0 {
		sm.LocalIters = req.LocalIters
	}
	if req.Omega != 0 {
		sm.Omega = req.Omega
	}

	mg, err := multigrid.New(multigrid.Options{
		Width:  w,
		Height: w,
		// Level 0 is the admitted matrix itself; coarser levels rediscretize
		// the same operator family (the pure h²-Laplacian is self-consistent
		// under 2:1 vertex coarsening).
		Operator: func(level, lw, lh int) *sparse.CSR {
			if level == 0 {
				return a
			}
			return mats.Poisson2D(lw, lh)
		},
		Smoother: sm,
	})
	if err != nil {
		return nil, fmt.Errorf("service: building multigrid hierarchy: %w", err)
	}

	s.methodSolves[methodIdxMultigrid].Add(1)
	j.setProgress(Progress{NumBlocks: (a.Rows + sm.BlockSize - 1) / sm.BlockSize})

	res, mgErr := mg.Solve(b, req.Tolerance, req.MaxGlobalIters)
	result := &JobResult{
		Converged:        res.Converged,
		GlobalIterations: res.Cycles,
		Residual:         res.Residual,
		Fingerprint:      fp,
		Method:           methodMultigrid,
		Tuned: &TunedParams{
			BlockSize:       sm.BlockSize,
			LocalIters:      sm.LocalIters,
			Omega:           sm.Omega,
			Method:          tr.Method.String(),
			Beta:            tr.Beta,
			SecondsPerDigit: tr.SecondsPerDigit,
			CacheHit:        tuneHit,
		},
	}
	if req.RecordHistory {
		result.History = res.History
	}
	if req.IncludeSolution {
		result.X = res.X
	}
	if j.cert != nil {
		result.Certificate = j.cert
	}
	if mgErr != nil {
		return result, mgErr
	}
	if req.Tolerance > 0 && !res.Converged {
		return result, fmt.Errorf("service: %w after %d V-cycles (residual %.3e, tolerance %.3e)",
			core.ErrNotConverged, res.Cycles, res.Residual, req.Tolerance)
	}
	return result, nil
}
