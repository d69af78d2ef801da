package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/mats"
	"repro/internal/sched"
)

// dumpScheduleOnFailure writes the schedule JSON where CI picks it up as
// an artifact (REPLAY_TRACE_DIR; skipped when unset), so a failing replay
// can be reproduced from the uploaded trace.
func dumpScheduleOnFailure(t *testing.T, name string, s *sched.Schedule) {
	t.Helper()
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		dir := os.Getenv("REPLAY_TRACE_DIR")
		if dir == "" {
			return
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Logf("replay trace dir: %v", err)
			return
		}
		path := filepath.Join(dir, name+".json")
		f, err := os.Create(path)
		if err != nil {
			t.Logf("replay trace: %v", err)
			return
		}
		defer f.Close()
		if err := s.WriteJSON(f); err != nil {
			t.Logf("replay trace: %v", err)
			return
		}
		t.Logf("failing schedule written to %s", path)
	})
}

func sameVector(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// A simulated-engine capture must replay bit-for-bit: same x, same
// residual history. The schedule retains the order, the stale masks and
// the effective seed, so even the per-component race coin flips repeat.
func TestSimulatedReplayBitIdentical(t *testing.T) {
	a := mats.Poisson2D(15, 15)
	b := onesRHS(a)
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"plain", Options{BlockSize: 16, LocalIters: 3, MaxGlobalIters: 40, RecordHistory: true, Seed: 11}},
		{"stale+omega", Options{BlockSize: 16, LocalIters: 5, MaxGlobalIters: 40, RecordHistory: true, Seed: 12, StaleProb: 0.4, Omega: 0.9}},
		{"exact-local", Options{BlockSize: 32, ExactLocal: true, MaxGlobalIters: 25, RecordHistory: true, Seed: 13}},
		{"tolerance-stop", Options{BlockSize: 16, LocalIters: 5, MaxGlobalIters: 500, RecordHistory: true, Seed: 14, Tolerance: 1e-9}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := sched.NewRecorder(0)
			opt := tc.opt
			opt.Record = rec
			orig, err := Solve(a, b, opt)
			if err != nil {
				t.Fatal(err)
			}
			s := rec.Schedule()
			dumpScheduleOnFailure(t, "sim-replay-"+tc.name, s)
			if s.Meta.Engine != "simulated" || s.Meta.Seed != opt.Seed {
				t.Fatalf("meta = %+v", s.Meta)
			}

			ropt := tc.opt
			ropt.Seed = 999 // must be ignored: the schedule carries the seed
			ropt.Replay = s
			got, err := Solve(a, b, ropt)
			if err != nil {
				t.Fatal(err)
			}
			if !sameVector(orig.X, got.X) {
				t.Error("replayed x differs from the recorded run")
			}
			if !sameVector(orig.History, got.History) {
				t.Errorf("replayed history differs:\n orig %v\n got %v", orig.History, got.History)
			}
			if got.GlobalIterations != orig.GlobalIterations || got.Converged != orig.Converged {
				t.Errorf("iters/converged = %d/%v, want %d/%v",
					got.GlobalIterations, got.Converged, orig.GlobalIterations, orig.Converged)
			}
		})
	}
}

// The acceptance scenario: a free-running run recorded with sched.Record
// replays bit-identically (same x, same residual) across 50 replays. The
// live run races by design; each replay is sequenced by the gate.
func TestFreeRunningReplayBitIdenticalAcross50(t *testing.T) {
	a := mats.Poisson2D(12, 12)
	b := onesRHS(a)
	rec := sched.NewRecorder(0)
	opt := FreeRunningOptions{
		BlockSize:       24,
		LocalIters:      3,
		MaxBlockUpdates: 4000,
		Tolerance:       1e-8,
		Workers:         4,
		Record:          rec,
	}
	if _, err := SolveFreeRunning(a, b, opt); err != nil {
		t.Fatal(err)
	}
	s := rec.Schedule()
	dumpScheduleOnFailure(t, "freerun-replay-50", s)
	if s.Truncated || len(s.Events) == 0 {
		t.Fatalf("capture unusable: truncated=%v events=%d", s.Truncated, len(s.Events))
	}
	if s.Meta.Engine != "freerunning" {
		t.Fatalf("meta engine = %q", s.Meta.Engine)
	}

	replays := 50
	if testing.Short() {
		replays = 10
	}
	var refX []float64
	var refRes float64
	for i := 0; i < replays; i++ {
		got, err := SolveFreeRunning(a, b, FreeRunningOptions{
			BlockSize: 24, LocalIters: 3, Tolerance: 1e-8, Replay: s,
		})
		if err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
		if got.BlockUpdates != int64(len(s.Events)) {
			t.Fatalf("replay %d executed %d updates, schedule has %d", i, got.BlockUpdates, len(s.Events))
		}
		if i == 0 {
			refX, refRes = got.X, got.Residual
			continue
		}
		if !sameVector(refX, got.X) {
			t.Fatalf("replay %d produced a different iterate", i)
		}
		if got.Residual != refRes {
			t.Fatalf("replay %d residual %g, want %g", i, got.Residual, refRes)
		}
	}
}

// A goroutine-engine capture replays deterministically (one recorded
// event at a time against the live iterate), and the replayed iterate
// solves the system.
func TestGoroutineReplayDeterministic(t *testing.T) {
	a := mats.Poisson2D(12, 12)
	b := onesRHS(a)
	rec := sched.NewRecorder(0)
	opt := Options{
		BlockSize: 16, LocalIters: 3, MaxGlobalIters: 400, Tolerance: 1e-8,
		RecordHistory: true, Engine: EngineGoroutine, Seed: 5, Workers: 4, Record: rec,
	}
	orig, err := Solve(a, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !orig.Converged {
		t.Fatalf("live run did not converge: %g", orig.Residual)
	}
	s := rec.Schedule()
	dumpScheduleOnFailure(t, "goroutine-replay", s)
	if s.Meta.Engine != "goroutine" {
		t.Fatalf("meta engine = %q", s.Meta.Engine)
	}

	ropt := Options{
		BlockSize: 16, LocalIters: 3, MaxGlobalIters: 400, RecordHistory: true,
		Engine: EngineGoroutine, Workers: 4, Replay: s,
	}
	r1, err := Solve(a, b, ropt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Solve(a, b, ropt)
	if err != nil {
		t.Fatal(err)
	}
	if !sameVector(r1.X, r2.X) || !sameVector(r1.History, r2.History) {
		t.Error("two replays of one goroutine capture differ")
	}
	if r1.GlobalIterations != s.Epochs() {
		t.Errorf("replay ran %d iterations, schedule has %d epochs", r1.GlobalIterations, s.Epochs())
	}
	checkSolvesOnes(t, "goroutine replay", r1.X, 1e-5)
}

// Any capture — here a free-running one — replays through the simulated
// engine as a canonical deterministic execution.
func TestFreeRunningCaptureReplaysThroughSimulatedEngine(t *testing.T) {
	a := mats.Poisson2D(10, 10)
	b := onesRHS(a)
	rec := sched.NewRecorder(0)
	if _, err := SolveFreeRunning(a, b, FreeRunningOptions{
		BlockSize: 20, LocalIters: 3, MaxBlockUpdates: 2000, Tolerance: 1e-8,
		Workers: 3, Record: rec,
	}); err != nil {
		t.Fatal(err)
	}
	s := rec.Schedule()
	dumpScheduleOnFailure(t, "freerun-via-sim", s)

	ropt := Options{BlockSize: 20, LocalIters: 3, MaxGlobalIters: 1, RecordHistory: true, Replay: s}
	r1, err := Solve(a, b, ropt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Solve(a, b, ropt)
	if err != nil {
		t.Fatal(err)
	}
	if !sameVector(r1.X, r2.X) {
		t.Error("flat replays differ")
	}
	checkSolvesOnes(t, "flat replay", r1.X, 1e-4)

	// The goroutine engine cannot group a free-running capture into
	// global iterations and must say so.
	ropt.Engine = EngineGoroutine
	if _, err := Solve(a, b, ropt); err == nil {
		t.Error("goroutine engine accepted a freerunning capture")
	}
}

// Replay validation: block-count mismatches and truncated captures are
// rejected, and exact-local events need a plan with factors.
func TestReplayValidation(t *testing.T) {
	a := mats.Poisson2D(10, 10)
	b := onesRHS(a)
	s := &sched.Schedule{
		Meta:   sched.Meta{Engine: "simulated", NumBlocks: 3, Workers: 1},
		Events: []sched.Event{{Epoch: 1, Block: 0, Sweeps: 2}},
	}
	// Plan with BlockSize 20 over 100 rows has 5 blocks, not 3.
	if _, err := Solve(a, b, Options{BlockSize: 20, LocalIters: 2, MaxGlobalIters: 10, Replay: s}); err == nil {
		t.Error("block-count mismatch accepted")
	}
	s.Meta.NumBlocks = 5
	s.Truncated = true
	if _, err := Solve(a, b, Options{BlockSize: 20, LocalIters: 2, MaxGlobalIters: 10, Replay: s}); err == nil {
		t.Error("truncated capture accepted")
	}
	s.Truncated = false
	s.Events[0].Sweeps = 0 // exact local, but the plan has no LU factors
	if _, err := Solve(a, b, Options{BlockSize: 20, LocalIters: 2, MaxGlobalIters: 10, Replay: s}); err == nil {
		t.Error("exact-local event accepted without factors")
	}
}

// Seed 0 must not collide across runs: it derives a distinct per-run
// stream, and the capture retains the derived seed so such a run stays
// replayable.
func TestSeedZeroDerivesDistinctStreams(t *testing.T) {
	a := mats.Poisson2D(15, 15)
	b := onesRHS(a)
	opt := Options{
		BlockSize: 16, LocalIters: 5, MaxGlobalIters: 30, RecordHistory: true,
		Workers: 4,
	}
	r1, err := Solve(a, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Solve(a, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range r1.History {
		if r1.History[i] != r2.History[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("two Seed==0 runs produced identical histories (streams collide)")
	}

	// The derived seed lands in the capture, so a Seed==0 run replays
	// bit-for-bit.
	rec := sched.NewRecorder(0)
	opt.Record = rec
	r3, err := Solve(a, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	s := rec.Schedule()
	if s.Meta.Seed == 0 {
		t.Fatal("capture of a Seed==0 run recorded seed 0")
	}
	opt.Record = nil
	opt.Replay = s
	r4, err := Solve(a, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !sameVector(r3.X, r4.X) || !sameVector(r3.History, r4.History) {
		t.Error("replay of a Seed==0 capture is not bit-identical")
	}
}

func TestNextRunSeedNeverZeroAndDistinct(t *testing.T) {
	seen := make(map[int64]bool)
	for i := 0; i < 10000; i++ {
		s := nextRunSeed()
		if s == 0 {
			t.Fatal("nextRunSeed returned 0")
		}
		if seen[s] {
			t.Fatalf("nextRunSeed repeated %d after %d draws", s, i)
		}
		seen[s] = true
	}
}

// Chaos hooks must reach all engines and leave recorded runs replayable:
// the capture bakes in the chaos effects, so replay (with no chaos
// configured) still matches bit-for-bit.
func TestChaosHooksObservedAndReplayable(t *testing.T) {
	a := mats.Poisson2D(12, 12)
	b := onesRHS(a)
	var delays, reorders, stales int
	chaos := &ChaosHooks{
		Delay:   func(iter, block int) { delays++ },
		Reorder: func(iter int, order []int) { reorders++; order[0], order[len(order)-1] = order[len(order)-1], order[0] },
		StaleRead: func(iter, block int) bool {
			stales++
			return block == 1
		},
	}
	rec := sched.NewRecorder(0)
	opt := Options{
		BlockSize: 16, LocalIters: 3, MaxGlobalIters: 20, RecordHistory: true,
		Seed: 21, Chaos: chaos, Record: rec,
	}
	orig, err := Solve(a, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if delays == 0 || reorders == 0 || stales == 0 {
		t.Fatalf("chaos hooks not invoked: delays=%d reorders=%d stales=%d", delays, reorders, stales)
	}
	s := rec.Schedule()
	dumpScheduleOnFailure(t, "chaos-replay", s)
	got, err := Solve(a, b, Options{
		BlockSize: 16, LocalIters: 3, MaxGlobalIters: 20, RecordHistory: true, Replay: s,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sameVector(orig.X, got.X) || !sameVector(orig.History, got.History) {
		t.Error("replay of a chaos-perturbed run is not bit-identical")
	}
}

// Recording must not alter the trajectory: with and without a recorder,
// equal seeds give equal results.
func TestRecordingDoesNotPerturbRun(t *testing.T) {
	a := mats.Poisson2D(12, 12)
	b := onesRHS(a)
	base := Options{BlockSize: 16, LocalIters: 3, MaxGlobalIters: 25, RecordHistory: true, Seed: 31}
	r1, err := Solve(a, b, base)
	if err != nil {
		t.Fatal(err)
	}
	withRec := base
	withRec.Record = sched.NewRecorder(0)
	r2, err := Solve(a, b, withRec)
	if err != nil {
		t.Fatal(err)
	}
	if !sameVector(r1.History, r2.History) {
		t.Error("recording changed the run")
	}
}

// ErrNotConverged plumbing used by the service retry loop: a capped run
// reports Converged=false without an engine error, and callers wrap the
// sentinel.
func TestNotConvergedSentinelWrapping(t *testing.T) {
	err := fmt.Errorf("service: %w after 3 attempts", ErrNotConverged)
	if !errors.Is(err, ErrNotConverged) {
		t.Fatal("wrapped sentinel lost")
	}
}
