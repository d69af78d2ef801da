package service

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"repro/internal/mats"
)

// quickBatchRequest is a small batch of fast-converging systems sharing one
// structural plan.
func quickBatchRequest(t *testing.T, systems int) BatchRequest {
	rhs := make([][]float64, systems)
	for j := range rhs {
		rhs[j] = sessionRHS(256, j+1)
	}
	return BatchRequest{
		SolverSpec: SolverSpec{
			MatrixMarket:   mmPayload(t, mats.Poisson2D(16, 16)),
			BlockSize:      32,
			LocalIters:     5,
			MaxGlobalIters: 800,
			Tolerance:      1e-10,
			Seed:           42,
		},
		RHS: rhs,
	}
}

// TestBatchJobLifecycle runs a batch end to end: one 202 job, per-system
// outcomes in input order, queue accounting of one slot per batch.
func TestBatchJobLifecycle(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 4})
	defer s.Shutdown(context.Background())

	req := quickBatchRequest(t, 4)
	req.IncludeSolutions = true
	j, err := s.SubmitBatch(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if st := j.State(); st != JobDone {
		t.Fatalf("state = %v (%v), want done", st, j.Err())
	}
	res := j.Result()
	if res == nil || res.Batch == nil {
		t.Fatalf("result = %+v, want a batch summary", res)
	}
	b := res.Batch
	if len(b.Systems) != 4 || b.Converged != 4 || b.Failed != 0 {
		t.Fatalf("summary = %+v, want 4 converged", b)
	}
	if !res.Converged {
		t.Fatal("job with every system converged must report converged")
	}
	for i, sys := range b.Systems {
		if sys.Index != i || !sys.Converged || sys.Error != "" {
			t.Fatalf("system %d = %+v", i, sys)
		}
		if len(sys.X) != 256 {
			t.Fatalf("system %d: len(x) = %d", i, len(sys.X))
		}
		if sys.GlobalIterations == 0 || sys.Residual > req.Tolerance {
			t.Fatalf("system %d: iters=%d residual=%g", i, sys.GlobalIterations, sys.Residual)
		}
	}
	if b.TotalIterations == 0 || res.GlobalIterations != b.TotalIterations {
		t.Fatalf("iterations: job=%d batch=%d", res.GlobalIterations, b.TotalIterations)
	}

	st := s.Stats()
	if st.Batch.Submitted != 1 || st.Batch.Systems != 4 || st.Batch.SystemFailures != 0 {
		t.Fatalf("batch stats = %+v", st.Batch)
	}
	// Queue accounting: four systems consumed ONE submission slot.
	if st.Submitted != 1 {
		t.Fatalf("jobs submitted = %d, want 1 (one slot per batch)", st.Submitted)
	}
}

// TestBatchPartialFailure poisons one system: the batch finishes, the
// poisoned system carries its own error, the rest converge, and the
// per-system failure shows up in the stats without failing the job.
func TestBatchPartialFailure(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	defer s.Shutdown(context.Background())

	req := quickBatchRequest(t, 3)
	req.RHS[1][0] = math.NaN()
	j, err := s.SubmitBatch(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if st := j.State(); st != JobDone {
		t.Fatalf("state = %v (%v), want done with partial failure", st, j.Err())
	}
	res := j.Result()
	b := res.Batch
	if b.Failed != 1 || b.Converged != 2 {
		t.Fatalf("summary = %+v, want 1 failed / 2 converged", b)
	}
	if res.Converged {
		t.Fatal("job with a failed system must not report converged")
	}
	if b.Systems[1].Error == "" || b.Systems[1].Converged {
		t.Fatalf("poisoned system = %+v, want an error", b.Systems[1])
	}
	for _, i := range []int{0, 2} {
		if !b.Systems[i].Converged || b.Systems[i].Error != "" {
			t.Fatalf("healthy system %d = %+v", i, b.Systems[i])
		}
	}
	if got := s.Stats().Batch.SystemFailures; got != 1 {
		t.Fatalf("system failures = %d, want 1", got)
	}
}

// TestBatchAllSystemsFailed checks a fully doomed batch fails the job (not
// a quiet "done with zero converged") while still reporting every system.
func TestBatchAllSystemsFailed(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	defer s.Shutdown(context.Background())

	req := quickBatchRequest(t, 2)
	for j := range req.RHS {
		req.RHS[j][0] = math.NaN()
	}
	j, err := s.SubmitBatch(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if st := j.State(); st != JobFailed {
		t.Fatalf("state = %v, want failed", st)
	}
	if j.Result() == nil || j.Result().Batch == nil || len(j.Result().Batch.Systems) != 2 {
		t.Fatalf("failed batch must still carry the per-system report, have %+v", j.Result())
	}
}

// TestBatchValidation checks the submit-time rejections.
func TestBatchValidation(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2, MaxBatchSystems: 2})
	defer s.Shutdown(context.Background())

	cases := []struct {
		name   string
		mutate func(*BatchRequest)
	}{
		{"zero systems", func(r *BatchRequest) { r.RHS = nil }},
		{"over the system limit", func(r *BatchRequest) { r.RHS = append(r.RHS, sessionRHS(256, 9)) }},
		{"rhs length mismatch", func(r *BatchRequest) { r.RHS[1] = r.RHS[1][:100] }},
		{"negative workers", func(r *BatchRequest) { r.Workers = -1 }},
		{"no block size without tune", func(r *BatchRequest) { r.BlockSize = 0 }},
	}
	for _, tc := range cases {
		req := quickBatchRequest(t, 2)
		tc.mutate(&req)
		if _, err := s.SubmitBatch(req); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if got := s.Stats().Batch.Submitted; got != 0 {
		t.Fatalf("rejected batches counted as submitted: %d", got)
	}
	if got := s.Stats().Rejected; got != uint64(len(cases)) {
		t.Fatalf("rejected = %d, want %d", got, len(cases))
	}
}

// TestBatchWorkersClampedAndReported checks the MaxBatchWorkers clamp is
// applied and the effective parallelism is reported in the summary.
func TestBatchWorkersClampedAndReported(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2, MaxBatchWorkers: 2})
	defer s.Shutdown(context.Background())

	req := quickBatchRequest(t, 3)
	req.Workers = 64
	j, err := s.SubmitBatch(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if got := j.Result().Batch.Workers; got != 2 {
		t.Fatalf("workers = %d, want clamp to 2", got)
	}
	if j.Result().Batch.Converged != 3 {
		t.Fatalf("summary = %+v", j.Result().Batch)
	}
}

// TestBatchHTTP exercises POST /v1/batch end to end: 202 + job URL, then
// the finished job's batch summary through GET /v1/jobs/{id}.
func TestBatchHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 4})

	req := quickBatchRequest(t, 3)
	resp := postJSON(t, ts.URL+"/v1/batch", req)
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sub submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.HasPrefix(sub.JobID, "job-") {
		t.Fatalf("job id = %q", sub.JobID)
	}

	v := waitJobState(t, ts, sub.JobID, "done")
	if v.Result == nil || v.Result.Batch == nil {
		t.Fatalf("job view = %+v, want a batch result", v)
	}
	if v.Result.Batch.Converged != 3 {
		t.Fatalf("batch = %+v", v.Result.Batch)
	}

	// Rejections over HTTP: zero systems is a 400.
	bad := quickBatchRequest(t, 1)
	bad.RHS = nil
	resp = postJSON(t, ts.URL+"/v1/batch", bad)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("zero systems: status %d, want 400", resp.StatusCode)
	}
}

// TestBatchDeterministicAcrossRuns re-submits the same seeded batch and
// expects identical per-system iteration counts and residuals — the service
// surface of the core batch-equivalence property.
func TestBatchDeterministicAcrossRuns(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 4})
	defer s.Shutdown(context.Background())

	run := func(workers int) *BatchSummary {
		req := quickBatchRequest(t, 4)
		req.Workers = workers
		j, err := s.SubmitBatch(req)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		if j.State() != JobDone {
			t.Fatalf("state = %v (%v)", j.State(), j.Err())
		}
		return j.Result().Batch
	}
	seq := run(1)
	par := run(4)
	for i := range seq.Systems {
		a, b := seq.Systems[i], par.Systems[i]
		if a.GlobalIterations != b.GlobalIterations || a.Residual != b.Residual {
			t.Fatalf("system %d: sequential %+v vs parallel %+v", i, a, b)
		}
	}
}
