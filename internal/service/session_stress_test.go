package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mats"
	"repro/internal/solver"
)

// TestSessionConcurrentSteppersAndDelete hammers one session with 8
// concurrent steppers while another goroutine deletes it mid-stream. The
// invariants under fire:
//
//   - every step either succeeds or fails with the structured gone error —
//     no torn iterates, no panics, no mystery failures;
//   - successful steps are solutions of their own RHS (the warm start they
//     inherited is some earlier step's iterate, whichever won the step
//     lock, but the residual test proves the solve was not torn);
//   - the accounting balances exactly: successes + gone-failures = attempts,
//     the per-session counters match the store counters, nothing in flight
//     at the end.
func TestSessionConcurrentSteppersAndDelete(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 4, SessionReapInterval: time.Hour})
	defer s.Shutdown(context.Background())

	a := mats.Poisson2D(16, 16)
	v, err := s.CreateSession(SessionRequest{
		SolverSpec: SolverSpec{
			MatrixMarket:   mmPayload(t, a),
			BlockSize:      32,
			LocalIters:     5,
			MaxGlobalIters: 800,
			Tolerance:      1e-10,
			Seed:           7,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	const steppers = 8
	const stepsEach = 6
	var ok, goneCnt atomic.Uint64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < steppers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for k := 0; k < stepsEach; k++ {
				rhs := sessionRHS(256, g*stepsEach+k+1)
				res, err := s.StepSession(v.ID, StepRequest{RHS: rhs, IncludeSolution: true}, nil)
				if err != nil {
					var gone *SessionGoneError
					if !errors.As(err, &gone) {
						t.Errorf("stepper %d: unexpected error class: %v", g, err)
						return
					}
					goneCnt.Add(1)
					continue
				}
				ok.Add(1)
				// A successful step must be a genuine solution of ITS rhs:
				// whatever iterate it warm-started from, the result it
				// returned satisfies this step's system.
				if r := solver.Residual(a, rhs, res.X); r > 1e-9 {
					t.Errorf("stepper %d step %d: residual %g — torn iterate", g, k, r)
				}
			}
		}(g)
	}
	// The deleter waits for some steps to land, then closes mid-stream.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for ok.Load() < steppers && goneCnt.Load() == 0 {
			time.Sleep(200 * time.Microsecond)
		}
		if _, err := s.CloseSession(v.ID); err != nil {
			var gone *SessionGoneError
			if !errors.As(err, &gone) {
				t.Errorf("close: %v", err)
			}
		}
	}()
	close(start)
	wg.Wait()

	total := ok.Load() + goneCnt.Load()
	if total != steppers*stepsEach {
		t.Fatalf("accounting leak: ok %d + gone %d != attempts %d", ok.Load(), goneCnt.Load(), steppers*stepsEach)
	}
	if ok.Load() == 0 {
		t.Fatal("no step succeeded — the deleter won every race, test proves nothing")
	}

	view, err := s.Session(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if view.State != "closed" {
		t.Fatalf("state = %s, want closed", view.State)
	}
	if view.InflightSteps != 0 {
		t.Fatalf("inflight = %d after all steppers returned", view.InflightSteps)
	}
	if view.Steps != ok.Load() {
		t.Fatalf("session counted %d steps, steppers saw %d successes", view.Steps, ok.Load())
	}
	// Gone-failures never pass admission, so they must not count as step
	// failures; the store totals mirror the session's.
	st := s.Stats().Sessions
	if st.Steps != ok.Load() || st.StepFailures != 0 || st.InflightSteps != 0 {
		t.Fatalf("store stats = %+v, want %d clean steps", st, ok.Load())
	}
}

// TestSessionReaperNeverKillsInflightStep runs a deliberately slow step
// (the progress hook stalls each iteration) through a session whose TTL is
// a fraction of the step's duration, with the reaper sweeping continuously.
// The reaper must skip the in-flight session every sweep, the step must
// finish cleanly, and only afterwards — once genuinely idle — may the
// session expire.
func TestSessionReaperNeverKillsInflightStep(t *testing.T) {
	s := New(Config{
		Workers: 1, QueueDepth: 2,
		SessionTTL:          30 * time.Millisecond,
		SessionReapInterval: 5 * time.Millisecond,
	})
	defer s.Shutdown(context.Background())

	v, err := s.CreateSession(SessionRequest{
		SolverSpec: SolverSpec{
			MatrixMarket:   mmPayload(t, mats.Poisson2D(16, 16)),
			BlockSize:      32,
			LocalIters:     5,
			MaxGlobalIters: 800,
			Tolerance:      1e-10,
			Seed:           7,
		},
		TTLSeconds: 0.03,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Each progress sample stalls 2ms: a ~60-iteration solve then runs for
	// >120ms, four TTLs deep, with a reap sweep every 5ms.
	iters := 0
	res, err := s.StepSession(v.ID, StepRequest{RHS: sessionRHS(256, 1)}, func(StepProgress) {
		iters++
		time.Sleep(2 * time.Millisecond)
	})
	if err != nil {
		t.Fatalf("in-flight step was disturbed: %v", err)
	}
	if !res.Converged || iters == 0 {
		t.Fatalf("step result %+v after %d samples", res, iters)
	}

	// Now idle: the sweep must expire it within a few intervals.
	deadline := time.Now().Add(5 * time.Second)
	for {
		view, err := s.Session(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		if view.State == "expired" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("idle session never expired (state %s)", view.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.Stats().Sessions.Expired; got != 1 {
		t.Fatalf("expired counter = %d, want 1", got)
	}
	// The finished step's success must have been counted despite the
	// subsequent expiry.
	if got := s.Stats().Sessions.Steps; got != 1 {
		t.Fatalf("steps counter = %d, want 1", got)
	}
}

// TestSessionConcurrentCreateLimit races creates against the MaxSessions
// bound: the number of successes must be exactly the limit.
func TestSessionConcurrentCreateLimit(t *testing.T) {
	const limit = 4
	s := New(Config{Workers: 1, QueueDepth: 2, MaxSessions: limit, SessionReapInterval: time.Hour})
	defer s.Shutdown(context.Background())

	payload := mmPayload(t, mats.Poisson2D(16, 16))
	var ok, rejected atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 2*limit; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.CreateSession(SessionRequest{
				SolverSpec: SolverSpec{
					MatrixMarket:   payload,
					BlockSize:      32,
					LocalIters:     5,
					MaxGlobalIters: 800,
					Tolerance:      1e-10,
					Seed:           7,
				},
			})
			switch {
			case err == nil:
				ok.Add(1)
			case errors.Is(err, ErrTooManySessions):
				rejected.Add(1)
			default:
				t.Errorf("create: %v", err)
			}
		}()
	}
	wg.Wait()
	if ok.Load() != limit || rejected.Load() != limit {
		t.Fatalf("creates: %d ok / %d rejected, want %d/%d", ok.Load(), rejected.Load(), limit, limit)
	}
}
