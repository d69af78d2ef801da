package service

import (
	"context"
	"strings"
	"testing"

	"repro/internal/mats"
	"repro/internal/tune"
	"repro/internal/vecmath"
)

// quickTune is a small search grid so tests don't probe the full default
// candidate set.
func quickTune() tune.Config {
	return tune.Config{Seed: 1, BlockSizes: []int{32, 64}, LocalIters: []int{1, 3}, ProbeIters: 15}
}

// TestGetOrTuneCachesByFingerprint pins the headline economics: the second
// lookup of a fingerprint performs zero probe solves.
func TestGetOrTuneCachesByFingerprint(t *testing.T) {
	c := NewPlanCache(CacheConfig{})
	a := mats.Trefethen(400)
	b := make([]float64, a.Rows)
	a.MulVec(b, vecmath.Ones(a.Cols))
	fp := Fingerprint(a)

	r1, hit, err := c.GetOrTune(a, fp, b, quickTune())
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first lookup reported a cache hit")
	}
	st := c.TuneStats()
	if st.Searches != 1 || st.Hits != 0 || st.Entries != 1 {
		t.Fatalf("after first search: %+v", st)
	}
	if st.ProbeSolves == 0 || st.ProbeSolves != uint64(r1.ProbeSolves) {
		t.Fatalf("probe accounting: cache says %d, result says %d", st.ProbeSolves, r1.ProbeSolves)
	}

	r2, hit, err := c.GetOrTune(a, fp, b, quickTune())
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("second lookup missed the cache")
	}
	if r2 != r1 {
		t.Errorf("cached tuning differs: %+v vs %+v", r2, r1)
	}
	st2 := c.TuneStats()
	if st2.ProbeSolves != st.ProbeSolves {
		t.Errorf("second lookup ran %d probe solves, want 0", st2.ProbeSolves-st.ProbeSolves)
	}
	if st2.Searches != 1 || st2.Hits != 1 {
		t.Errorf("after hit: %+v", st2)
	}
}

// TestServiceTuneAutoEndToEnd submits a "tune": "auto" job through the full
// queue path and checks the result reports the tuned parameters; a second
// job of the same matrix must reuse the cached tuning.
func TestServiceTuneAutoEndToEnd(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())

	req := SolveRequest{
		SolverSpec: SolverSpec{
			MatrixMarket:   mmPayload(t, mats.Trefethen(300)),
			Tune:           "auto",
			MaxGlobalIters: 400,
			Tolerance:      1e-8,
			Seed:           1,
		},
	}
	run := func() *JobResult {
		j, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		if st := j.State(); st != JobDone {
			t.Fatalf("job state %v (%v)", st, j.Err())
		}
		v := j.Snapshot()
		if v.Result == nil || v.Result.Tuned == nil {
			t.Fatalf("tuned job carries no tuning info: %+v", v.Result)
		}
		return v.Result
	}

	first := run()
	tp := first.Tuned
	if tp.CacheHit {
		t.Error("first tuned solve claims a tuning-cache hit")
	}
	if tp.BlockSize <= 0 || tp.LocalIters <= 0 || tp.Omega <= 0 || tp.Omega >= 2 {
		t.Fatalf("implausible tuned parameters: %+v", tp)
	}
	if !first.Converged {
		t.Error("tuned solve did not converge")
	}
	probes := s.Cache().TuneStats().ProbeSolves
	if probes == 0 {
		t.Fatal("first tuned solve ran no probe solves")
	}

	second := run()
	if !second.Tuned.CacheHit {
		t.Error("second tuned solve missed the tuning cache")
	}
	if *second.Tuned != *tp && second.Tuned.CacheHit {
		// Parameters must match apart from the hit flag.
		w := *second.Tuned
		w.CacheHit = tp.CacheHit
		if w != *tp {
			t.Errorf("second solve tuned differently: %+v vs %+v", second.Tuned, tp)
		}
	}
	if got := s.Cache().TuneStats().ProbeSolves; got != probes {
		t.Errorf("second solve of the same fingerprint ran %d probe solves, want 0", got-probes)
	}
}

// TestServiceTuneValidation covers the request-surface rules around tune.
func TestServiceTuneValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())

	for _, req := range []SolveRequest{
		{SolverSpec: SolverSpec{Matrix: "fv1", Tune: "maximal", BlockSize: 8, LocalIters: 1, MaxGlobalIters: 1}},
		{SolverSpec: SolverSpec{Matrix: "fv1", Tune: "auto", MaxGlobalIters: 1}, ExactLocal: true},
		{SolverSpec: SolverSpec{Matrix: "fv1", MaxGlobalIters: 1, LocalIters: 1}}, // no block size without tune
	} {
		if _, err := s.Submit(req); err == nil {
			t.Errorf("request %+v was accepted", req)
		}
	}
	// tune=auto lifts the block_size/local_iters requirements.
	if err := s.validate(SolveRequest{SolverSpec: SolverSpec{Matrix: "fv1", Tune: "auto", MaxGlobalIters: 1}}); err != nil {
		t.Errorf("tune=auto request rejected: %v", err)
	}
}

// TestServiceTuneMetrics checks the tuner counters surface at /metricsz.
func TestServiceTuneMetrics(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	a := mats.Trefethen(300)
	b := make([]float64, a.Rows)
	a.MulVec(b, vecmath.Ones(a.Cols))
	if _, _, err := s.Cache().GetOrTune(a, Fingerprint(a), b, quickTune()); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := s.Metrics().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"service_tune_searches_total 1",
		"service_tune_cache_hits_total 0",
		"service_tune_probe_solves_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}
