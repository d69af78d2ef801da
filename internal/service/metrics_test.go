package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// getMetrics fetches GET /metricsz and parses the exposition into a flat
// map of "name{labels}" → value.
func getMetrics(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metricsz: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("GET /metricsz: content type %q, want text/plain", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil && line[sp+1:] != "+Inf" {
			t.Fatalf("line %q: unparseable value: %v", line, err)
		}
		out[line[:sp]] = v
	}
	return out
}

// TestMetricszStatszConsistency is the satellite consistency check: the
// queue, outcome and plan-cache numbers served by GET /metricsz must agree
// with GET /statsz, because both render the same underlying sources.
func TestMetricszStatszConsistency(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})

	// Drive some traffic: two identical solves (second hits the plan
	// cache), one validation reject.
	for i := 0; i < 2; i++ {
		sub, resp := postSolve(t, ts, SolveRequest{
			SolverSpec: SolverSpec{
				Matrix: "Trefethen_2000", BlockSize: 128, LocalIters: 5,
				MaxGlobalIters: 50, Tolerance: 1e-6,
			},
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		waitJobState(t, ts, sub.JobID, "done")
	}
	if _, resp := postSolve(t, ts, SolveRequest{SolverSpec: SolverSpec{Matrix: "Trefethen_2000"}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid submit: status %d, want 400", resp.StatusCode)
	}

	st := getStats(t, ts)
	m := getMetrics(t, ts)

	checks := []struct {
		series string
		want   float64
	}{
		{"service_queue_depth", float64(st.QueueDepth)},
		{"service_queue_capacity", float64(st.QueueCapacity)},
		{"service_workers", float64(st.Workers)},
		{"service_busy_workers", float64(st.BusyWorkers)},
		{"service_jobs_submitted_total", float64(st.Submitted)},
		{"service_jobs_done_total", float64(st.Done)},
		{"service_jobs_failed_total", float64(st.Failed)},
		{"service_jobs_canceled_total", float64(st.Canceled)},
		{"service_jobs_rejected_total", float64(st.Rejected)},
		{"service_job_retries_total", float64(st.Retries)},
		{"service_plan_cache_hits_total", float64(st.PlanCache.Hits)},
		{"service_plan_cache_misses_total", float64(st.PlanCache.Misses)},
		{"service_plan_cache_evictions_total", float64(st.PlanCache.Evictions)},
		{"service_plan_cache_entries", float64(st.PlanCache.Entries)},
		{"service_plan_cache_bytes", float64(st.PlanCache.Bytes)},
	}
	for _, c := range checks {
		got, ok := m[c.series]
		if !ok {
			t.Errorf("/metricsz missing series %s", c.series)
			continue
		}
		if got != c.want {
			t.Errorf("%s = %g, /statsz says %g", c.series, got, c.want)
		}
	}

	// Sanity on the traffic itself: 2 accepted (1 cache miss + 1 hit),
	// 1 rejected.
	if st.Submitted != 2 || st.Done != 2 || st.Rejected != 1 {
		t.Errorf("stats = submitted %d done %d rejected %d, want 2/2/1",
			st.Submitted, st.Done, st.Rejected)
	}
	if st.PlanCache.Hits != 1 || st.PlanCache.Misses != 1 {
		t.Errorf("plan cache hits/misses = %d/%d, want 1/1", st.PlanCache.Hits, st.PlanCache.Misses)
	}
}

// TestMetricszEngineAndDeviceSeries checks the acceptance criterion's
// series set: engine iteration counters, queue depth, plan-cache hit/miss
// and device gauges all render on a daemon that has served a solve.
func TestMetricszEngineAndDeviceSeries(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	sub, resp := postSolve(t, ts, SolveRequest{
		SolverSpec: SolverSpec{
			Matrix: "Trefethen_2000", BlockSize: 128, LocalIters: 5,
			MaxGlobalIters: 30, Tolerance: 1e-6,
		},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	done := waitJobState(t, ts, sub.JobID, "done")
	m := getMetrics(t, ts)

	iters := m[`core_global_iterations_total{engine="simulated"}`]
	if want := float64(done.Result.GlobalIterations); iters != want {
		t.Errorf("simulated iteration counter = %g, want %g (the job's count)", iters, want)
	}
	nb := float64(done.Result.NumBlocks)
	if sweeps := m[`core_block_sweeps_total{engine="simulated"}`]; sweeps != iters*nb {
		t.Errorf("block sweeps = %g, want %g", sweeps, iters*nb)
	}
	for _, series := range []string{
		`core_global_iterations_total{engine="goroutine"}`,
		`core_global_iterations_total{engine="freerunning"}`,
		"service_queue_depth",
		"service_plan_cache_hits_total",
		"service_plan_cache_misses_total",
		`gpusim_device_multiprocessors{device="Tesla C2070 (Fermi)"}`,
		`gpusim_launch_overhead_seconds{device="Tesla C2070 (Fermi)",kernel="async"}`,
	} {
		if _, ok := m[series]; !ok {
			t.Errorf("/metricsz missing series %s", series)
		}
	}
	// Occupancy reflects the last launch: Trefethen_2000 / 128 = 16 blocks
	// on 14 SMs → 2 waves of 28 slots.
	if occ := m[`gpusim_device_occupancy{device="Tesla C2070 (Fermi)"}`]; occ != 16.0/28 {
		t.Errorf("occupancy = %g, want %g", occ, 16.0/28)
	}
	// The solver sink retained the job's exact residual checks: under the
	// job's residual gate fewer than one per iteration, the last one the
	// check that stopped the solve.
	ring := s.SolveMetrics().ResidualHistory()
	if got := len(ring); got < 1 || got >= done.Result.GlobalIterations {
		t.Errorf("residual ring holds %d samples for %d iterations, want at least 1 and fewer than the iterations",
			got, done.Result.GlobalIterations)
	} else if last := ring[len(ring)-1]; last != done.Result.Residual {
		t.Errorf("last ring sample %v, result residual %v", last, done.Result.Residual)
	}
}
