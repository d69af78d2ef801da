package service

import (
	"context"
	"strings"
	"testing"

	"repro/internal/mats"
)

// TestServiceMethodRichardson2 runs a momentum solve end to end: the
// request method flows through validation into core, the default β fills
// in, and the result echoes both.
func TestServiceMethodRichardson2(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Shutdown(context.Background())

	req := quickRequest(t)
	req.Method = "richardson2"
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if st := j.State(); st != JobDone {
		t.Fatalf("state = %v (%v), want done", st, j.Err())
	}
	res := j.Result()
	if !res.Converged {
		t.Fatalf("result = %+v, want converged", res)
	}
	if res.Method != "richardson2" || res.Beta != defaultBeta {
		t.Fatalf("echo method=%q beta=%g, want richardson2/%g", res.Method, res.Beta, defaultBeta)
	}
	st := s.Stats()
	if st.MethodSolves["richardson2"] != 1 || st.MethodSolves["jacobi"] != 0 {
		t.Fatalf("method counters = %v", st.MethodSolves)
	}

	// An explicit β overrides the default and rides the echo.
	req2 := quickRequest(t)
	req2.Method = "richardson2"
	req2.Beta = 0.15
	j2, err := s.Submit(req2)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2)
	if r := j2.Result(); r == nil || r.Beta != 0.15 {
		t.Fatalf("result = %+v, want beta 0.15", j2.Result())
	}
}

// TestServiceMethodValidation exercises the request-level method checks:
// unknown names, β outside [0,1), β without the second-order rule, and
// the multigrid route's solve-only restrictions.
func TestServiceMethodValidation(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Shutdown(context.Background())

	for _, tc := range []struct {
		name string
		mut  func(*SolveRequest)
		want string
	}{
		{"unknown method", func(r *SolveRequest) { r.Method = "sor2" }, "method"},
		{"beta out of range", func(r *SolveRequest) { r.Method = "richardson2"; r.Beta = 1.5 }, "beta"},
		{"beta without richardson2", func(r *SolveRequest) { r.Beta = 0.3 }, "richardson2"},
		{"multigrid with engine", func(r *SolveRequest) { r.Method = "multigrid"; r.Engine = "goroutine" }, "multigrid"},
		{"multigrid with kernel", func(r *SolveRequest) { r.Method = "multigrid"; r.Kernel = "sell" }, "multigrid"},
		{"multigrid with tune", func(r *SolveRequest) { r.Method = "multigrid"; r.Tune = "auto" }, "multigrid"},
	} {
		req := quickRequest(t)
		tc.mut(&req)
		if _, err := s.Submit(req); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}

	// Batch and session front doors reject multigrid outright.
	breq := quickBatchRequest(t, 2)
	breq.Method = "multigrid"
	if _, err := s.SubmitBatch(breq); err == nil || !strings.Contains(err.Error(), "solve-only") {
		t.Errorf("batch multigrid: err = %v, want solve-only rejection", err)
	}
	if _, err := s.CreateSession(SessionRequest{
		SolverSpec: SolverSpec{
			Matrix: "poisson2d_15", BlockSize: 32, LocalIters: 3, MaxGlobalIters: 100, Method: "multigrid",
		},
	}); err == nil || !strings.Contains(err.Error(), "solve-only") {
		t.Errorf("session multigrid: err = %v, want solve-only rejection", err)
	}
}

// TestServiceMultigridRoute admits the five-point Poisson operator by its
// parametric name and solves it with auto-tuned async-smoothed V-cycles.
func TestServiceMultigridRoute(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Shutdown(context.Background())

	j, err := s.Submit(SolveRequest{
		SolverSpec: SolverSpec{
			Matrix:         "poisson2d_15",
			Method:         "multigrid",
			MaxGlobalIters: 60,
			Tolerance:      1e-8,
		},
		RecordHistory: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if st := j.State(); st != JobDone {
		t.Fatalf("state = %v (%v), want done", st, j.Err())
	}
	res := j.Result()
	if !res.Converged || res.Method != "multigrid" {
		t.Fatalf("result = %+v, want converged multigrid", res)
	}
	if res.GlobalIterations == 0 || res.GlobalIterations > 60 {
		t.Fatalf("cycles = %d, want within the V-cycle bound", res.GlobalIterations)
	}
	if res.Tuned == nil {
		t.Fatal("multigrid result must echo the tuned smoother parameters")
	}
	if len(res.History) == 0 {
		t.Fatal("requested history missing")
	}
	if st := s.Stats(); st.MethodSolves["multigrid"] != 1 {
		t.Fatalf("method counters = %v", st.MethodSolves)
	}

	// A non-Poisson operator of square dimension is refused by fingerprint.
	j2, err := s.Submit(SolveRequest{
		SolverSpec: SolverSpec{
			MatrixMarket:   mmPayload(t, mats.FV(15, 15, 1.368)),
			Method:         "multigrid",
			MaxGlobalIters: 10,
			Tolerance:      1e-6,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2)
	if st := j2.State(); st != JobFailed {
		t.Fatalf("state = %v, want failed (non-Poisson operator)", st)
	}
	if err := j2.Err(); err == nil || !strings.Contains(err.Error(), "Poisson") {
		t.Fatalf("err = %v, want Poisson admission refusal", err)
	}
}

// TestServiceStencilDeclaration declares the five-point structure for an
// uploaded Matrix Market operator: the declared spec drives the stencil
// kernel, and the plan-cache key carries it so declared and undeclared
// solves of one matrix never share a plan.
func TestServiceStencilDeclaration(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Shutdown(context.Background())

	req := quickRequest(t) // Poisson2D(16,16) uploaded inline
	req.Kernel = "csr"
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.Result().Kernel != "csr" {
		t.Fatalf("kernel = %q, want csr", j.Result().Kernel)
	}

	decl := quickRequest(t)
	decl.Kernel = "stencil"
	decl.Stencil = &StencilDecl{
		Offsets: []int{-16, -1, 0, 1, 16},
		Coeffs:  []float64{-1, -1, 4, -1, -1},
	}
	j2, err := s.Submit(decl)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2)
	if st := j2.State(); st != JobDone {
		t.Fatalf("state = %v (%v), want done", st, j2.Err())
	}
	res := j2.Result()
	if res.Kernel != "stencil" || !res.Converged {
		t.Fatalf("result = %+v, want converged stencil solve", res)
	}
	if res.PlanHit {
		t.Fatal("declared-stencil solve must build its own plan (distinct cache key)")
	}

	// Declaration shape errors are rejected at submission.
	bad := quickRequest(t)
	bad.Stencil = &StencilDecl{Offsets: []int{-1, 0}, Coeffs: []float64{1}}
	if _, err := s.Submit(bad); err == nil {
		t.Error("mismatched offsets/coeffs lengths must be rejected")
	}

	// A declaration matching no row of the operator fails the build.
	wrong := quickRequest(t)
	wrong.Kernel = "stencil"
	wrong.Stencil = &StencilDecl{Offsets: []int{-1, 0, 1}, Coeffs: []float64{-9, 4, -9}}
	j3, err := s.Submit(wrong)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j3)
	if st := j3.State(); st != JobFailed {
		t.Fatalf("state = %v, want failed (spec matches no row)", st)
	}
}

// TestServiceSessionMethodEcho threads the update rule through a session:
// the view echoes the resolved method and β, and steps run under it.
func TestServiceSessionMethodEcho(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Shutdown(context.Background())

	v, err := s.CreateSession(SessionRequest{
		SolverSpec: SolverSpec{
			Matrix: "poisson2d_15", BlockSize: 45, LocalIters: 3,
			MaxGlobalIters: 400, Tolerance: 1e-8, Method: "richardson2", Seed: 3,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Method != "richardson2" || v.Beta != defaultBeta {
		t.Fatalf("view method=%q beta=%g, want richardson2/%g", v.Method, v.Beta, defaultBeta)
	}
	res, err := s.StepSession(v.ID, StepRequest{RHS: sessionRHS(225, 1)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("step = %+v, want converged", res)
	}
	if st := s.Stats(); st.MethodSolves["richardson2"] != 1 {
		t.Fatalf("method counters = %v", st.MethodSolves)
	}
}

// TestServiceBatchMethodEcho runs a momentum batch: every system solves
// under the requested rule and the job result echoes it.
func TestServiceBatchMethodEcho(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Shutdown(context.Background())

	req := quickBatchRequest(t, 3)
	req.Method = "richardson2"
	req.Beta = 0.2
	j, err := s.SubmitBatch(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if st := j.State(); st != JobDone {
		t.Fatalf("state = %v (%v), want done", st, j.Err())
	}
	res := j.Result()
	if res.Method != "richardson2" || res.Beta != 0.2 {
		t.Fatalf("echo method=%q beta=%g, want richardson2/0.2", res.Method, res.Beta)
	}
	if res.Batch == nil || res.Batch.Converged != 3 {
		t.Fatalf("batch = %+v, want 3 converged", res.Batch)
	}
	if st := s.Stats(); st.MethodSolves["richardson2"] != 1 {
		t.Fatalf("method counters = %v (one batch attempt = one method solve)", st.MethodSolves)
	}
}
