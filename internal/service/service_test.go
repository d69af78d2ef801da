package service

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mats"
	"repro/internal/sparse"
)

// mmPayload renders a matrix as an inline Matrix Market payload.
func mmPayload(t *testing.T, a *sparse.CSR) string {
	t.Helper()
	var sb strings.Builder
	if err := sparse.WriteMatrixMarket(&sb, a); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// quickRequest is a small, fast-converging solve.
func quickRequest(t *testing.T) SolveRequest {
	return SolveRequest{
		SolverSpec: SolverSpec{
			MatrixMarket:   mmPayload(t, mats.Poisson2D(16, 16)),
			BlockSize:      32,
			LocalIters:     5,
			MaxGlobalIters: 800,
			Tolerance:      1e-10,
			Seed:           7, // pinned: Seed 0 derives a fresh stream per run
		},
		RecordHistory: true,
	}
}

// slowRequest runs effectively forever until canceled.
func slowRequest(t *testing.T) SolveRequest {
	return SolveRequest{
		SolverSpec: SolverSpec{
			MatrixMarket:   mmPayload(t, mats.Poisson2D(40, 40)),
			BlockSize:      64,
			LocalIters:     5,
			MaxGlobalIters: 1 << 30,
			Tolerance:      0, // no stopping test: only cancellation ends it
		},
	}
}

func waitDone(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not finish (state %v)", j.ID(), j.State())
	}
}

func TestServiceSolveLifecycle(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 4})
	defer s.Shutdown(context.Background())

	j, err := s.Submit(quickRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if st := j.State(); st != JobDone {
		t.Fatalf("state = %v (%v), want done", st, j.Err())
	}
	res := j.Result()
	if res == nil || !res.Converged {
		t.Fatalf("result = %+v, want converged", res)
	}
	if res.PlanHit {
		t.Fatal("first solve of a matrix cannot be a plan hit")
	}
	if len(res.History) == 0 {
		t.Fatal("requested history missing")
	}
	v := j.Snapshot()
	if v.State != "done" || v.Progress.GlobalIteration == 0 {
		t.Fatalf("snapshot = %+v, want done with progress", v)
	}
	// Progress reports the engine's own residual check, so the finished
	// job's last sample is its result.
	if v.Progress.GlobalIteration != res.GlobalIterations || v.Progress.Residual != res.Residual {
		t.Fatalf("progress at iteration %d residual %v, result at %d residual %v: want the same",
			v.Progress.GlobalIteration, v.Progress.Residual, res.GlobalIterations, res.Residual)
	}
}

func TestServiceWarmSolveHitsPlanCache(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Shutdown(context.Background())

	req := quickRequest(t)
	j1, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)
	j2, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2)

	if j1.Result().PlanHit {
		t.Fatal("cold solve must miss")
	}
	if !j2.Result().PlanHit {
		t.Fatal("warm solve must hit the plan cache")
	}
	st := s.Stats()
	if st.PlanCache.Hits != 1 || st.PlanCache.Misses != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit / 1 miss", st.PlanCache)
	}
	// Warm and cold solves of the same deterministic config agree exactly.
	if j1.Result().Residual != j2.Result().Residual ||
		j1.Result().GlobalIterations != j2.Result().GlobalIterations {
		t.Fatalf("warm result %+v differs from cold %+v", j2.Result(), j1.Result())
	}
}

func TestServiceCancelRunningJob(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	defer s.Shutdown(context.Background())

	j, err := s.Submit(slowRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until it is demonstrably iterating.
	deadline := time.Now().Add(30 * time.Second)
	for j.Snapshot().Progress.GlobalIteration < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("job never progressed (state %v, err %v)", j.State(), j.Err())
		}
		time.Sleep(time.Millisecond)
	}

	if err := s.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	atCancel := j.Snapshot().Progress.GlobalIteration
	waitDone(t, j)

	if st := j.State(); st != JobCanceled {
		t.Fatalf("state = %v, want canceled", st)
	}
	if err := j.Err(); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("err = %v, want core.ErrCanceled", err)
	}
	// The engine observes cancellation at the next global-iteration
	// boundary: at most one more iteration may complete after Cancel.
	final := j.Snapshot().Progress.GlobalIteration
	if final > atCancel+1 {
		t.Fatalf("ran %d iterations past cancellation (at %d, final %d)",
			final-atCancel, atCancel, final)
	}
	if s.Stats().Canceled != 1 {
		t.Fatalf("canceled counter = %d, want 1", s.Stats().Canceled)
	}
}

func TestServiceCancelQueuedJob(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Shutdown(context.Background())

	blocker, err := s.Submit(slowRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(quickRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(queued.ID()); err != nil {
		t.Fatal(err)
	}
	waitDone(t, queued)
	if st := queued.State(); st != JobCanceled {
		t.Fatalf("queued job state = %v, want canceled", st)
	}
	// Counted when it went terminal, not when a worker dequeues it: the
	// blocker still holds the only worker.
	if c := s.Stats().Canceled; c != 1 {
		t.Errorf("canceled counter = %d after the queued job's Done, want 1", c)
	}
	if err := s.Cancel(blocker.ID()); err != nil {
		t.Fatal(err)
	}
	waitDone(t, blocker)
}

// TestUploadJobReleasesOperator: an upload is parsed once, at admission.
// The job keeps the operator in place of the Matrix Market text, every
// attempt solves it, and every terminal path drops it. The retried row
// finishes two attempts with no text left to parse, so retries reuse the
// operator.
func TestUploadJobReleasesOperator(t *testing.T) {
	notConverging := func(t *testing.T) SolveRequest {
		req := quickRequest(t)
		req.MaxGlobalIters = 3 // far too few for 1e-10
		return req
	}
	submit := func(t *testing.T, s *Service, req SolveRequest) *Job {
		t.Helper()
		j, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	for _, tc := range []struct {
		name     string
		cfg      Config
		run      func(t *testing.T, s *Service) *Job
		state    JobState
		attempts int
	}{
		{"done", Config{}, func(t *testing.T, s *Service) *Job {
			return submit(t, s, quickRequest(t))
		}, JobDone, 1},
		{"failed", Config{}, func(t *testing.T, s *Service) *Job {
			return submit(t, s, notConverging(t))
		}, JobFailed, 1},
		{"retried", Config{MaxAttempts: 2, RetryBaseDelay: time.Millisecond}, func(t *testing.T, s *Service) *Job {
			return submit(t, s, notConverging(t))
		}, JobFailed, 2},
		{"canceled-queued", Config{}, func(t *testing.T, s *Service) *Job {
			submit(t, s, slowRequest(t)) // holds the only worker until shutdown
			j := submit(t, s, quickRequest(t))
			if err := s.Cancel(j.ID()); err != nil {
				t.Fatal(err)
			}
			return j
		}, JobCanceled, 0},
		{"canceled-by-shutdown", Config{}, func(t *testing.T, s *Service) *Job {
			j := submit(t, s, slowRequest(t))
			deadline := time.Now().Add(30 * time.Second)
			for j.Snapshot().Progress.GlobalIteration < 1 {
				if time.Now().After(deadline) {
					t.Fatalf("job never progressed (state %v, err %v)", j.State(), j.Err())
				}
				time.Sleep(time.Millisecond)
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := s.Shutdown(ctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("Shutdown = %v, want context.Canceled", err)
			}
			return j
		}, JobCanceled, 1},
		{"batch", Config{}, func(t *testing.T, s *Service) *Job {
			j, err := s.SubmitBatch(quickBatchRequest(t, 2))
			if err != nil {
				t.Fatal(err)
			}
			return j
		}, JobDone, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Workers, tc.cfg.QueueDepth = 1, 4
			s := New(tc.cfg)
			defer func() {
				// A canceled context cancels whatever still runs (the
				// canceled-queued row's blocker).
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				s.Shutdown(ctx)
			}()
			j := tc.run(t, s)
			waitDone(t, j)
			if st := j.State(); st != tc.state {
				t.Fatalf("state = %v (%v), want %v", st, j.Err(), tc.state)
			}
			if n := j.Snapshot().Attempts; n != tc.attempts {
				t.Errorf("attempts = %d, want %d", n, tc.attempts)
			}
			j.mu.Lock()
			a, text := j.a, j.req.MatrixMarket
			if j.batch != nil {
				text += j.batch.MatrixMarket
			}
			j.mu.Unlock()
			if text != "" {
				t.Errorf("the stored request keeps %d bytes of Matrix Market text", len(text))
			}
			if a != nil {
				t.Error("the finished job still holds its operator")
			}
		})
	}
}

func TestServiceQueueFull(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Shutdown(context.Background())

	// One running + one queued fill the service.
	j1, err := s.Submit(slowRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to pick up j1 so the queue slot frees.
	deadline := time.Now().Add(10 * time.Second)
	for j1.State() != JobRunning {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	j2, err := s.Submit(slowRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Submit(slowRequest(t))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	for _, j := range []*Job{j1, j2} {
		j.Cancel(core.ErrCanceled)
		waitDone(t, j)
	}
}

func TestServiceNotConvergedWrapsSentinel(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	defer s.Shutdown(context.Background())

	req := quickRequest(t)
	req.MaxGlobalIters = 2 // far too few for 1e-10
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if st := j.State(); st != JobFailed {
		t.Fatalf("state = %v, want failed", st)
	}
	if err := j.Err(); !errors.Is(err, core.ErrNotConverged) {
		t.Fatalf("err = %v, want core.ErrNotConverged", err)
	}
	if j.Result() == nil {
		t.Fatal("partial result should accompany non-convergence")
	}
}

func TestServiceJobTimeout(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	defer s.Shutdown(context.Background())

	req := slowRequest(t)
	req.TimeoutSeconds = 0.05
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if st := j.State(); st != JobCanceled {
		t.Fatalf("state = %v (err %v), want canceled on deadline", st, j.Err())
	}
	if err := j.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded in chain", err)
	}
}

// TestSubmitRowLimitBeforeSizing: an upload or a named matrix over
// MaxMatrixRows is refused from its size line or its name, before anything
// is sized from it.
func TestSubmitRowLimitBeforeSizing(t *testing.T) {
	const header = "%%MatrixMarket matrix coordinate real general\n"
	for _, tc := range []struct {
		name    string
		limit   int
		matrix  string
		payload string
		want    string // "": admitted
	}{
		// 72 bytes declaring 2^24 rows under the default limit: sizing it
		// before the limit applies would allocate 128 MiB of row pointers.
		{"declared-2^24-rows", 0, "", header + "16777216 16777216 1\n1 1 1\n",
			"service: inline matrix has 16777216 rows, limit 1048576"},
		{"configured-limit", 512, "", header + "513 513 1\n1 1 1\n",
			"service: inline matrix has 513 rows, limit 512"},
		{"named-over-limit", 1024, "poisson2d_33", "",
			`service: matrix "poisson2d_33" has 1089 rows, limit 1024`},
		{"named-under-limit", 1024, "poisson2d_31", "", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{Workers: 1, QueueDepth: 1, MaxMatrixRows: tc.limit})
			defer s.Shutdown(context.Background())
			req := SolveRequest{SolverSpec: SolverSpec{
				Matrix: tc.matrix, MatrixMarket: tc.payload, BlockSize: 8, LocalIters: 1, MaxGlobalIters: 1,
			}}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := s.Submit(req)
			runtime.ReadMemStats(&after)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Submit error = %v, want admitted", err)
				}
				return
			}
			if err == nil || err.Error() != tc.want {
				t.Fatalf("Submit error = %v, want %q", err, tc.want)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
				t.Errorf("Submit allocated %d KiB before refusing", grew>>10)
			}
		})
	}
}

// TestPerMatrixCachesBounded: named matrices and tunings obey
// CacheConfig.MaxEntries like plans and certificates do, so a stream of
// distinct matrices cannot grow them without bound.
func TestPerMatrixCachesBounded(t *testing.T) {
	s := New(Config{Workers: 1, Cache: CacheConfig{MaxEntries: 2}})
	defer s.Shutdown(context.Background())
	for _, name := range []string{"poisson2d_5", "poisson2d_7", "poisson2d_9"} {
		a, fp, err := s.resolveMatrix(SolverSpec{Matrix: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, _, err := s.Cache().GetOrTune(a, fp, onesRHS(a), quickTune()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if n := s.mats.Stats().Entries; n != 2 {
		t.Errorf("named matrices resident = %d, want 2", n)
	}
	if st := s.Cache().TuneStats(); st.Entries != 2 || st.Evictions != 1 || st.Searches != 3 {
		t.Errorf("tune stats = %+v, want 2 entries / 1 eviction / 3 searches", st)
	}
}

func TestServiceValidation(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	cases := []SolveRequest{
		{}, // no matrix
		{SolverSpec: SolverSpec{Matrix: "fv1", MatrixMarket: "x"}}, // both sources
		{SolverSpec: SolverSpec{Matrix: "no-such-matrix", BlockSize: 8, LocalIters: 1, MaxGlobalIters: 1}},
		{SolverSpec: SolverSpec{Matrix: "fv1", LocalIters: 1, MaxGlobalIters: 1}}, // no block size
		{SolverSpec: SolverSpec{Matrix: "fv1", BlockSize: 8, MaxGlobalIters: 1}},  // no local iters
		{SolverSpec: SolverSpec{Matrix: "fv1", BlockSize: 8, LocalIters: 1}},      // no budget
		{SolverSpec: SolverSpec{Matrix: "fv1", BlockSize: 8, LocalIters: 1, MaxGlobalIters: 1}, Engine: "cuda"},
		{SolverSpec: SolverSpec{MatrixMarket: "not a matrix", BlockSize: 8, LocalIters: 1, MaxGlobalIters: 1}},
	}
	for i, req := range cases {
		if _, err := s.Submit(req); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

func TestServiceShutdownDrains(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	var jobs []*Job
	for i := 0; i < 4; i++ {
		j, err := s.Submit(quickRequest(t))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if st := j.State(); st != JobDone {
			t.Fatalf("job %s state = %v after drain, want done", j.ID(), st)
		}
	}
	if _, err := s.Submit(quickRequest(t)); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-shutdown submit err = %v, want ErrShuttingDown", err)
	}
}

func TestServiceShutdownDeadlineCancelsInFlight(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	j, err := s.Submit(slowRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Fatal("expected deadline error from bounded shutdown")
	}
	if st := j.State(); st != JobCanceled {
		t.Fatalf("in-flight job state = %v, want canceled", st)
	}
}

func TestServiceNamedMatrixCachedFingerprint(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Shutdown(context.Background())

	req := SolveRequest{
		SolverSpec: SolverSpec{
			Matrix:         "Trefethen_2000",
			BlockSize:      448,
			LocalIters:     5,
			MaxGlobalIters: 100,
			Tolerance:      1e-10,
		},
	}
	a1, fp1, err := s.resolveMatrix(req.SolverSpec)
	if err != nil {
		t.Fatal(err)
	}
	a2, fp2, err := s.resolveMatrix(req.SolverSpec)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 || fp1 != fp2 {
		t.Fatal("named matrix should be generated and fingerprinted once")
	}
}

// TestServiceKernelAndPrecision exercises the kernel/precision request
// surface end to end: the resolved kernel and the precision are echoed on
// the job result, the per-kernel counter lands in /metricsz, the plan cache
// keys kernels separately, and bad values are rejected at submission.
func TestServiceKernelAndPrecision(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	defer s.Shutdown(context.Background())

	// Poisson2D detects as a 5-point stencil, so kernel auto resolves to it.
	req := quickRequest(t)
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	res := j.Result()
	if res == nil || res.Kernel != "stencil" {
		t.Fatalf("auto kernel on Poisson: result %+v, want kernel \"stencil\"", res)
	}
	if res.Precision != core.PrecF64 {
		t.Errorf("default precision echoed as %q, want f64", res.Precision)
	}

	// An explicit CSR request must key a distinct plan and echo "csr".
	req.Kernel = "csr"
	req.Precision = "f32"
	j, err = s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	res = j.Result()
	if res == nil || res.Kernel != "csr" || res.Precision != "f32" {
		t.Fatalf("explicit csr/f32: result kernel=%q precision=%q", res.Kernel, res.Precision)
	}
	if res.PlanHit {
		t.Error("explicit csr reused the auto plan; kernels must key separately")
	}
	if !res.Converged {
		t.Errorf("f32 solve did not converge: residual %g", res.Residual)
	}

	st := s.Stats()
	if st.KernelSolves["stencil"] != 1 || st.KernelSolves["csr"] != 1 {
		t.Errorf("kernel solve counters = %v", st.KernelSolves)
	}
	var sb strings.Builder
	if err := s.Metrics().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `service_kernel_solves_total{kernel="stencil"} 1`) {
		t.Error("/metricsz missing service_kernel_solves_total{kernel=\"stencil\"} 1")
	}

	// An explicit stencil kernel on a non-stencil matrix fails the job at
	// plan build (the matrix shape is only known then), not at submission.
	bad := quickRequest(t)
	bad.MatrixMarket = mmPayload(t, mats.Trefethen(64))
	bad.BlockSize = 16
	bad.Kernel = "stencil"
	j, err = s.Submit(bad)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.State() != JobFailed {
		t.Errorf("explicit stencil on Trefethen: state %v, want failed", j.State())
	}

	// Unknown kernel / precision names are rejected at submission.
	for _, tweak := range []func(*SolveRequest){
		func(r *SolveRequest) { r.Kernel = "ellpack" },
		func(r *SolveRequest) { r.Precision = "f16" },
	} {
		r := quickRequest(t)
		tweak(&r)
		if _, err := s.Submit(r); err == nil {
			t.Errorf("bad request %+v accepted", r)
		}
	}
}
