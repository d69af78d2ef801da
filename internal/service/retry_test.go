package service

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mats"
)

func TestRetryDelayCapped(t *testing.T) {
	cfg := Config{RetryBaseDelay: 100 * time.Millisecond, RetryMaxDelay: 500 * time.Millisecond}.withDefaults()
	want := []time.Duration{
		100 * time.Millisecond, // after attempt 1
		200 * time.Millisecond,
		400 * time.Millisecond,
		500 * time.Millisecond, // capped
		500 * time.Millisecond,
	}
	for i, w := range want {
		if d := cfg.retryDelay(i + 1); d != w {
			t.Errorf("retryDelay(%d) = %v, want %v", i+1, d, w)
		}
	}
}

// A job that cannot meet its tolerance is retried MaxAttempts times and
// then fails with ErrNotConverged and the attempt count in its status.
func TestJobRetriesThenSurfacesNotConverged(t *testing.T) {
	s := New(Config{
		Workers: 1, QueueDepth: 4,
		MaxAttempts:    3,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  4 * time.Millisecond,
	})
	defer s.Shutdown(context.Background())

	req := quickRequest(t)
	req.MaxGlobalIters = 3 // far too few for 1e-10
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if st := j.State(); st != JobFailed {
		t.Fatalf("state = %v, want failed", st)
	}
	if !errors.Is(j.Err(), core.ErrNotConverged) {
		t.Fatalf("err = %v, want ErrNotConverged", j.Err())
	}
	if !strings.Contains(j.Err().Error(), "after 3 attempts") {
		t.Fatalf("error does not carry the attempt count: %v", j.Err())
	}
	v := j.Snapshot()
	if v.Attempts != 3 {
		t.Fatalf("snapshot attempts = %d, want 3", v.Attempts)
	}
	if v.Result == nil || v.Result.Attempts != 3 {
		t.Fatalf("result = %+v, want attempts 3", v.Result)
	}
}

// A successful job reports one attempt and no retry delay.
func TestJobSucceedsFirstAttempt(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, MaxAttempts: 5, RetryBaseDelay: time.Minute})
	defer s.Shutdown(context.Background())
	j, err := s.Submit(quickRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if st := j.State(); st != JobDone {
		t.Fatalf("state = %v (%v), want done", st, j.Err())
	}
	if v := j.Snapshot(); v.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", v.Attempts)
	}
}

// Bad requests are not retried: the error is not in the retryable class.
func TestBadRHSNotRetried(t *testing.T) {
	s := New(Config{
		Workers: 1, QueueDepth: 4,
		MaxAttempts: 4, RetryBaseDelay: time.Minute, // a retry would hang the test
	})
	defer s.Shutdown(context.Background())
	req := quickRequest(t)
	req.RHS = []float64{1, 2, 3} // wrong length
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if st := j.State(); st != JobFailed {
		t.Fatalf("state = %v, want failed", st)
	}
	if v := j.Snapshot(); v.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (no retry for bad input)", v.Attempts)
	}
}

func TestChaosRequiresEnable(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Shutdown(context.Background())
	req := quickRequest(t)
	req.Chaos = &ChaosSpec{StaleProb: 0.5}
	if _, err := s.Submit(req); !errors.Is(err, ErrChaosDisabled) {
		t.Fatalf("err = %v, want ErrChaosDisabled", err)
	}
}

// A chaos-perturbed job still converges (the paper's robustness claim)
// and runs under the configured injector.
func TestChaosJobConverges(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, EnableChaos: true, MaxAttempts: 3,
		RetryBaseDelay: time.Millisecond})
	defer s.Shutdown(context.Background())
	req := quickRequest(t)
	req.Chaos = &ChaosSpec{StaleProb: 0.5, ReorderProb: 0.5, Seed: 11}
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if st := j.State(); st != JobDone {
		t.Fatalf("state = %v (%v), want done", st, j.Err())
	}
	if !j.Result().Converged {
		t.Fatalf("result = %+v, want converged", j.Result())
	}
}

func TestParseChaosHeader(t *testing.T) {
	spec, err := ParseChaosHeader("delay=0.2, stale=0.5,reorder=0.1,seed=7,maxdelayms=2")
	if err != nil {
		t.Fatal(err)
	}
	want := ChaosSpec{DelayProb: 0.2, StaleProb: 0.5, ReorderProb: 0.1, Seed: 7, MaxDelayMillis: 2}
	if *spec != want {
		t.Fatalf("spec = %+v, want %+v", *spec, want)
	}
	for _, bad := range []string{
		"delay",          // not key=value
		"frobnicate=1",   // unknown key
		"stale=lots",     // not a float
		"seed=1.5",       // not an int
		"delay=1.5",      // probability out of range
		"maxdelayms=-3",  // negative delay
		"reorder=-0.001", // negative probability
	} {
		if _, err := ParseChaosHeader(bad); err == nil {
			t.Errorf("ParseChaosHeader(%q) accepted", bad)
		}
	}
}

// The acceptance scenario over HTTP: an X-Chaos job on a chaos-enabled
// daemon is retried with backoff and either converges or surfaces
// ErrNotConverged with the attempt count in the job status.
func TestHTTPChaosJobRetriedWithAttemptCount(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 4, EnableChaos: true,
		MaxAttempts: 2, RetryBaseDelay: time.Millisecond, RetryMaxDelay: 2 * time.Millisecond,
	})
	req := SolveRequest{
		SolverSpec: SolverSpec{
			MatrixMarket:   mmPayload(t, mats.Poisson2D(16, 16)),
			BlockSize:      32,
			LocalIters:     5,
			MaxGlobalIters: 4, // hopeless against 1e-10: forces the retry path
			Tolerance:      1e-10,
			Seed:           7,
		},
	}
	sub, resp := postSolveHeaders(t, ts, req, map[string]string{
		"X-Chaos": "stale=0.5,reorder=0.5,seed=3",
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	v := waitJobState(t, ts, sub.JobID, "failed")
	if v.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", v.Attempts)
	}
	if !strings.Contains(v.Error, "did not converge") || !strings.Contains(v.Error, "after 2 attempts") {
		t.Fatalf("error = %q, want non-convergence with attempt count", v.Error)
	}
}

// Without the daemon-side gate the header is rejected with 403.
func TestHTTPChaosHeaderForbiddenWhenDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	req := quickRequest(t)
	_, resp := postSolveHeaders(t, ts, req, map[string]string{"X-Chaos": "stale=0.5"})
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("status = %d, want 403", resp.StatusCode)
	}

	// A malformed header is a 400, not a 403.
	_, resp = postSolveHeaders(t, ts, req, map[string]string{"X-Chaos": "bogus"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}
