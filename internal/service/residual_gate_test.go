package service

import (
	"context"
	"math"
	"testing"

	"repro/internal/mats"
	"repro/internal/solver"
)

// gateSpec is a solve the job residual gate shortens: Trefethen_2000 at
// bs 448, k 5 converges to 1e-8 in about 30 iterations on the simulated
// engine.
func gateSpec() SolverSpec {
	return SolverSpec{
		Matrix: "Trefethen_2000", BlockSize: 448, LocalIters: 5,
		MaxGlobalIters: 500, Tolerance: 1e-8, Seed: 11,
	}
}

// runJob submits one job on an idle single-worker service and returns it
// finished, with the number of exact residual checks it ran (the residual
// ring's growth: the sink and the progress hook observe the same checks).
func runJob(t *testing.T, s *Service, submit func() (*Job, error)) (*Job, int) {
	t.Helper()
	before := s.SolveMetrics().ResidualsObserved()
	j, err := submit()
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if st := j.State(); st != JobDone {
		t.Fatalf("job %s: state %v (%v), want done", j.ID(), st, j.Err())
	}
	return j, int(s.SolveMetrics().ResidualsObserved() - before)
}

// TestJobResidualGate: a queued solve and a queued batch run under the
// job residual gate. Each runs fewer exact checks than iterations, yet
// every reported residual is the exact ‖b − Ax‖₂ of the returned iterate,
// at or below the tolerance, and the solve's last progress is its result.
func TestJobResidualGate(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Shutdown(context.Background())
	tm, err := mats.Generate("Trefethen_2000")
	if err != nil {
		t.Fatal(err)
	}
	a := tm.A
	tol := gateSpec().Tolerance

	j, checks := runJob(t, s, func() (*Job, error) {
		return s.Submit(SolveRequest{SolverSpec: gateSpec(), IncludeSolution: true})
	})
	res := j.Result()
	if checks < 1 || checks >= res.GlobalIterations {
		t.Fatalf("solve ran %d exact checks in %d iterations, want at least 1 and fewer than the iterations",
			checks, res.GlobalIterations)
	}
	if r := solver.Residual(a, onesRHS(a), res.X); !res.Converged || r != res.Residual || r > tol {
		t.Fatalf("solve: converged=%v residual %v, recomputed %v (tolerance %g)", res.Converged, res.Residual, r, tol)
	}
	if p := j.Snapshot().Progress; p.GlobalIteration != res.GlobalIterations || p.Residual != res.Residual {
		t.Fatalf("last progress (%d, %v), result (%d, %v)", p.GlobalIteration, p.Residual, res.GlobalIterations, res.Residual)
	}

	rhs := [][]float64{sessionRHS(a.Rows, 1), sessionRHS(a.Rows, 2)}
	j, checks = runJob(t, s, func() (*Job, error) {
		return s.SubmitBatch(BatchRequest{SolverSpec: gateSpec(), RHS: rhs, IncludeSolutions: true})
	})
	batch := j.Result().Batch
	if checks < len(rhs) || checks >= batch.TotalIterations {
		t.Fatalf("batch ran %d exact checks in %d iterations over %d systems, want fewer checks than iterations",
			checks, batch.TotalIterations, len(rhs))
	}
	for i, sys := range batch.Systems {
		if r := solver.Residual(a, rhs[i], sys.X); !sys.Converged || r != sys.Residual || r > tol {
			t.Fatalf("batch system %d: converged=%v residual %v, recomputed %v (tolerance %g)",
				i, sys.Converged, sys.Residual, r, tol)
		}
	}
}

// TestRecordHistoryJobChecksEveryIteration: a record_history job's history
// is its output, so the gate stays off: one history entry and one exact
// check — one progress update and one ring sample — per iteration.
func TestRecordHistoryJobChecksEveryIteration(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Shutdown(context.Background())
	j, checks := runJob(t, s, func() (*Job, error) {
		return s.Submit(SolveRequest{SolverSpec: gateSpec(), RecordHistory: true})
	})
	res := j.Result()
	if len(res.History) != res.GlobalIterations || checks != res.GlobalIterations {
		t.Fatalf("%d history entries and %d exact checks in %d iterations, want one of each per iteration",
			len(res.History), checks, res.GlobalIterations)
	}
	if last := res.History[len(res.History)-1]; math.Float64bits(last) != math.Float64bits(res.Residual) {
		t.Fatalf("last history entry %v, result residual %v", last, res.Residual)
	}
	if p := j.Snapshot().Progress; p.GlobalIteration != res.GlobalIterations || p.Residual != res.Residual {
		t.Fatalf("last progress (%d, %v), result (%d, %v)", p.GlobalIteration, p.Residual, res.GlobalIterations, res.Residual)
	}
}
