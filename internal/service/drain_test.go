package service

import (
	"net/http"
	"strconv"
	"testing"

	"repro/internal/mats"
)

// TestReadyzFlipsOnDrain: /readyz mirrors drain state while /healthz stays
// a pure liveness probe — the split a fleet gateway ejects on.
func TestReadyzFlipsOnDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz before drain = %d, want 200", resp.StatusCode)
	}

	s.BeginDrain()
	resp2, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain = %d, want 503", resp2.StatusCode)
	}

	alive, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	alive.Body.Close()
	if alive.StatusCode != http.StatusOK {
		t.Fatalf("/healthz during drain = %d, want 200 (liveness is not readiness)", alive.StatusCode)
	}
	if !s.Draining() {
		t.Error("Draining() = false after BeginDrain")
	}
}

// TestQueueFullRetryAfterComputed: the 429's Retry-After is priced from
// backlog and observed solve durations, not hardcoded. With no wall-time
// history it falls back to the 1s floor; either way it must be a positive
// integer within the [1, 60] clamp.
func TestQueueFullRetryAfterComputed(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	slow := SolveRequest{
		SolverSpec: SolverSpec{
			MatrixMarket:   mmPayload(t, mats.DiagDominant(64, 4, 1.6)),
			BlockSize:      16,
			LocalIters:     2,
			MaxGlobalIters: 100000, // no tolerance: runs the full budget
		},
	}
	// Occupy the worker, then the single queue slot.
	if _, resp := postSolve(t, ts, slow); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	if _, resp := postSolve(t, ts, slow); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d", resp.StatusCode)
	}
	_, resp := postSolve(t, ts, slow)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit = %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	n, err := strconv.Atoi(ra)
	if err != nil || n < 1 || n > 60 {
		t.Fatalf("Retry-After = %q, want an integer in [1, 60]", ra)
	}
}

func TestRetryAfterSecondsScalesWithBacklog(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 64})
	t.Cleanup(func() { s.queue.Close() })

	// No backlog, no history: floor of 1s.
	if got := s.RetryAfterSeconds(); got != 1 {
		t.Errorf("idle RetryAfterSeconds = %d, want 1", got)
	}
	// Seed the wall-time histogram with ~2s jobs; the estimate must stay
	// clamped to [1, 60] whatever the backlog.
	for i := 0; i < 16; i++ {
		s.wallHist.Observe(2.0)
	}
	if got := s.RetryAfterSeconds(); got < 1 || got > 60 {
		t.Errorf("RetryAfterSeconds = %d outside [1, 60]", got)
	}
}

// TestResultCarriesFingerprint: the job result echoes the matrix
// fingerprint the caches and the fleet ring key by.
func TestResultCarriesFingerprint(t *testing.T) {
	a := mats.DiagDominant(48, 4, 1.6)
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	sub, resp := postSolve(t, ts, SolveRequest{
		SolverSpec: SolverSpec{
			MatrixMarket:   mmPayload(t, a),
			BlockSize:      16,
			LocalIters:     2,
			MaxGlobalIters: 500,
			Tolerance:      1e-8,
		},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	v := waitJobState(t, ts, sub.JobID, "done")
	if v.Result == nil {
		t.Fatal("no result")
	}
	if want := Fingerprint(a); v.Result.Fingerprint != want {
		t.Errorf("result fingerprint = %q, want %q", v.Result.Fingerprint, want)
	}
}
