package service

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
)

// BatchRequest is the POST /v1/batch body: N small systems sharing one
// structure — the shared SolverSpec's matrix, N right-hand sides — solved
// as a single batched run. The batch occupies one job-queue slot
// regardless of N (that is its queue-accounting contract: admission
// control prices batches as one unit of work, and the per-system fan-out
// happens inside the worker), and convergence is tracked per system with
// partial-failure reporting. Every system runs with the spec's
// configuration; method "multigrid" is solve-only, one certificate covers
// the whole batch, and system j derives its seed as
// core.BatchSeed(seed, j).
type BatchRequest struct {
	SolverSpec
	// RHS carries one right-hand side per system; at least one, at most
	// Config.MaxBatchSystems.
	RHS [][]float64 `json:"rhs"`
	// Workers is the cross-system solver parallelism (default 1 —
	// deterministic input order; clamped to Config.MaxBatchWorkers).
	Workers int `json:"workers,omitempty"`
	// TimeoutSeconds bounds the whole batch's wall time (0: service
	// default).
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
	// IncludeSolutions returns each system's iterate X in the result.
	IncludeSolutions bool `json:"include_solutions,omitempty"`
}

// BatchStats is the batch slice of /statsz.
type BatchStats struct {
	// Submitted counts accepted batch jobs (each one queue slot).
	Submitted uint64 `json:"submitted"`
	// Systems counts the systems those batches carried.
	Systems uint64 `json:"systems"`
	// SystemFailures counts per-system errors inside finished batches.
	SystemFailures uint64 `json:"system_failures"`
}

// SystemView reports one system of a finished batch job.
type SystemView struct {
	Index            int       `json:"index"`
	Converged        bool      `json:"converged"`
	GlobalIterations int       `json:"global_iterations"`
	Residual         float64   `json:"residual"`
	Error            string    `json:"error,omitempty"`
	X                []float64 `json:"x,omitempty"`
}

// BatchSummary is the batch slice of a JobResult: per-system outcomes in
// input order plus the aggregate counts.
type BatchSummary struct {
	Systems         []SystemView `json:"systems"`
	Converged       int          `json:"converged"`
	Failed          int          `json:"failed"`
	TotalIterations int          `json:"total_iterations"`
	// Workers is the cross-system parallelism the batch actually ran with
	// (after the Config.MaxBatchWorkers clamp).
	Workers int `json:"workers"`
}

// SubmitBatch validates a batch request and enqueues it as one job. Like
// Submit it runs the admission pre-flight synchronously: with
// certify=enforce a divergent matrix refuses the whole batch with the
// structured 422 before any of its systems queue.
func (s *Service) SubmitBatch(req BatchRequest) (*Job, error) {
	sreq := SolveRequest{SolverSpec: req.SolverSpec, TimeoutSeconds: req.TimeoutSeconds}
	if err := s.validate(sreq); err != nil {
		s.rejected.Add(1)
		return nil, err
	}
	if _, mgrid, _ := req.methodKind(); mgrid {
		s.rejected.Add(1)
		return nil, errors.New("service: batch solves run the core engines; method=multigrid is solve-only")
	}
	if len(req.RHS) == 0 {
		s.rejected.Add(1)
		return nil, errors.New("service: batch must carry at least one system (rhs is empty)")
	}
	if max := s.cfg.MaxBatchSystems; max > 0 && len(req.RHS) > max {
		s.rejected.Add(1)
		return nil, fmt.Errorf("service: batch carries %d systems, limit %d", len(req.RHS), max)
	}
	if req.Workers < 0 {
		s.rejected.Add(1)
		return nil, fmt.Errorf("service: workers must be nonnegative, have %d", req.Workers)
	}
	a, fp, err := s.resolveMatrix(req.SolverSpec)
	if err != nil {
		s.rejected.Add(1)
		return nil, err
	}
	for j, b := range req.RHS {
		if len(b) != a.Rows {
			s.rejected.Add(1)
			return nil, fmt.Errorf("service: batch system %d: rhs length %d does not match dimension %d", j, len(b), a.Rows)
		}
	}
	cert, _, err := s.admitCertified(req.SolverSpec, false, a, fp)
	if err != nil {
		s.rejected.Add(1)
		return nil, err
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.rejected.Add(1)
		return nil, ErrShuttingDown
	}
	id := fmt.Sprintf("job-%06d", s.nextID.Add(1))
	j := newJob(id, sreq, a, fp, s.countOutcome)
	j.cert = cert
	req.MatrixMarket = ""
	j.batch = &req
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()

	if err := s.queue.Submit(j); err != nil {
		s.mu.Lock()
		delete(s.jobs, id)
		s.order = s.order[:len(s.order)-1]
		s.mu.Unlock()
		s.rejected.Add(1)
		return nil, err
	}
	s.submits.Add(1)
	s.batchSubmits.Add(1)
	s.batchSystems.Add(uint64(len(req.RHS)))
	return j, nil
}

// runBatchAttempt executes a dequeued batch job: one shared plan (and
// tuning) lookup, then a core.SolveBatch fan-out across the systems. A
// per-system failure is reported in its SystemView, not as a job failure;
// the job itself fails only on batch-level errors (cancellation, plan
// problems) or when every single system failed — a fully doomed batch
// should look failed, not quietly "done with zero converged".
func (s *Service) runBatchAttempt(ctx context.Context, j *Job) (*JobResult, error) {
	req, fp := *j.batch, j.fp
	rs, err := s.resolve(req.SolverSpec, j.a, fp, req.RHS[0], core.Options{Ctx: ctx})
	if err != nil {
		return nil, err
	}
	nb := rs.plan.Prepared.NumBlocks()
	j.setProgress(Progress{NumBlocks: nb, PlanHit: rs.hit})

	workers := req.Workers
	if workers == 0 {
		workers = 1
	}
	if max := s.cfg.MaxBatchWorkers; max > 0 && workers > max {
		workers = max
	}
	rs.opt.ResidualEvery = jobResidualEvery
	res, batchErr := core.SolveBatch(rs.plan.Prepared, req.RHS, rs.opt, core.BatchOptions{Workers: workers})

	summary := &BatchSummary{
		Systems:         make([]SystemView, len(res.Systems)),
		Converged:       res.Converged,
		Failed:          res.Failed,
		TotalIterations: res.TotalIterations,
		Workers:         workers,
	}
	notConverged := 0
	for i, sys := range res.Systems {
		v := SystemView{
			Index:            sys.Index,
			Converged:        sys.Converged,
			GlobalIterations: sys.GlobalIterations,
			Residual:         sys.Residual,
		}
		switch {
		case sys.Err != nil:
			v.Error = sys.Err.Error()
		case req.Tolerance > 0 && !sys.Converged:
			v.Error = fmt.Sprintf("%v after %d global iterations (residual %.3e, tolerance %.3e)",
				core.ErrNotConverged, sys.GlobalIterations, sys.Residual, req.Tolerance)
			notConverged++
		}
		if req.IncludeSolutions {
			v.X = sys.X
		}
		summary.Systems[i] = v
	}
	s.batchSystemFails.Add(uint64(res.Failed + notConverged))

	result := rs.result(fp, j.cert)
	result.Converged = res.Failed == 0 && res.Converged == len(res.Systems)
	result.GlobalIterations = res.TotalIterations
	result.NumBlocks = nb
	result.Batch = summary
	if batchErr != nil {
		return result, batchErr
	}
	if res.Failed+notConverged == len(res.Systems) && len(res.Systems) > 0 && (req.Tolerance > 0 || res.Failed > 0) {
		return result, fmt.Errorf("service: all %d batch systems failed: %w", len(res.Systems), firstSystemErr(res, req.Tolerance))
	}
	return result, nil
}

// firstSystemErr picks the representative error of a fully failed batch.
func firstSystemErr(res core.BatchResult, tol float64) error {
	for _, sys := range res.Systems {
		if sys.Err != nil {
			return sys.Err
		}
	}
	if tol > 0 {
		return core.ErrNotConverged
	}
	return errors.New("service: batch failed")
}
