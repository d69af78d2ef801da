package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/mats"
)

func newTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(NewHandler(s))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

func postSolve(t *testing.T, ts *httptest.Server, req SolveRequest) (submitResponse, *http.Response) {
	t.Helper()
	return postSolveHeaders(t, ts, req, nil)
}

func postSolveHeaders(t *testing.T, ts *httptest.Server, req SolveRequest, headers map[string]string) (submitResponse, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		hreq.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sub submitResponse
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			t.Fatal(err)
		}
	}
	return sub, resp
}

func getJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s: status %d", id, resp.StatusCode)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func waitJobState(t *testing.T, ts *httptest.Server, id, want string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		v := getJob(t, ts, id)
		if v.State == want {
			return v
		}
		if v.State == "failed" && want != "failed" {
			t.Fatalf("job %s failed: %s", id, v.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, v.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func getStats(t *testing.T, ts *httptest.Server) Stats {
	t.Helper()
	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestHTTPHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
}

// TestHTTPWarmSolveSkipsSetup is the acceptance check: a warm solve of the
// same matrix/config (ExactLocal, so the plan carries partition + LU
// factors) is observable as a plan-cache hit in /statsz.
func TestHTTPWarmSolveSkipsSetup(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	req := SolveRequest{
		SolverSpec: SolverSpec{
			MatrixMarket:   mmPayload(t, mats.Poisson2D(16, 16)),
			BlockSize:      32,
			MaxGlobalIters: 400,
			Tolerance:      1e-10,
			Seed:           7, // pinned: Seed 0 derives a fresh stream per run
		},
		ExactLocal: true, // plan includes the subdomain LU factors
	}

	sub1, resp := postSolve(t, ts, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	v1 := waitJobState(t, ts, sub1.JobID, "done")
	if v1.Result == nil || v1.Result.PlanHit {
		t.Fatalf("cold solve result = %+v, want miss", v1.Result)
	}
	st := getStats(t, ts)
	if st.PlanCache.Misses != 1 || st.PlanCache.Hits != 0 {
		t.Fatalf("cold /statsz cache = %+v, want 1 miss / 0 hits", st.PlanCache)
	}

	sub2, _ := postSolve(t, ts, req)
	v2 := waitJobState(t, ts, sub2.JobID, "done")
	if v2.Result == nil || !v2.Result.PlanHit {
		t.Fatalf("warm solve result = %+v, want plan hit", v2.Result)
	}
	st = getStats(t, ts)
	if st.PlanCache.Hits != 1 || st.PlanCache.Misses != 1 {
		t.Fatalf("warm /statsz cache = %+v, want 1 hit / 1 miss", st.PlanCache)
	}
	if st.PlanHitRate != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", st.PlanHitRate)
	}
	// Setup reuse must not change the answer.
	if v1.Result.Residual != v2.Result.Residual ||
		v1.Result.GlobalIterations != v2.Result.GlobalIterations {
		t.Fatalf("warm result %+v != cold %+v", v2.Result, v1.Result)
	}
}

// TestHTTPDeleteCancelsRunningJob is the acceptance check for DELETE: a
// running job goes to "canceled" within one global iteration.
func TestHTTPDeleteCancelsRunningJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	sub, _ := postSolve(t, ts, SolveRequest{
		SolverSpec: SolverSpec{
			MatrixMarket:   mmPayload(t, mats.Poisson2D(40, 40)),
			BlockSize:      64,
			LocalIters:     5,
			MaxGlobalIters: 1 << 30, // only cancellation ends it
		},
	})

	// Wait until it is running and iterating.
	deadline := time.Now().Add(30 * time.Second)
	for {
		v := getJob(t, ts, sub.JobID)
		if v.State == "running" && v.Progress.GlobalIteration >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never progressed: %+v", v)
		}
		time.Sleep(time.Millisecond)
	}

	httpReq, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sub.JobID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status = %d, want 200", resp.StatusCode)
	}
	atCancel := getJob(t, ts, sub.JobID).Progress.GlobalIteration

	v := waitJobState(t, ts, sub.JobID, "canceled")
	if v.Progress.GlobalIteration > atCancel+1 {
		t.Fatalf("ran %d iterations past DELETE (at %d, final %d)",
			v.Progress.GlobalIteration-atCancel, atCancel, v.Progress.GlobalIteration)
	}
	if v.Error == "" {
		t.Fatal("canceled job should carry an error message")
	}
}

func TestHTTPQueueFull429(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	slow := SolveRequest{
		SolverSpec: SolverSpec{
			MatrixMarket:   mmPayload(t, mats.Poisson2D(40, 40)),
			BlockSize:      64,
			LocalIters:     5,
			MaxGlobalIters: 1 << 30,
		},
	}
	sub1, _ := postSolve(t, ts, slow)
	waitJobState(t, ts, sub1.JobID, "running")
	sub2, _ := postSolve(t, ts, slow)

	_, resp := postSolve(t, ts, slow)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 should carry Retry-After")
	}
	for _, id := range []string{sub1.JobID, sub2.JobID} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
		waitJobState(t, ts, id, "canceled")
	}
}

func TestHTTPErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, err := http.Get(ts.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status = %d, want 404", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON status = %d, want 400", resp.StatusCode)
	}

	_, resp = postSolve(t, ts, SolveRequest{SolverSpec: SolverSpec{Matrix: "fv1"}}) // no block size etc.
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid request status = %d, want 400", resp.StatusCode)
	}

	_, resp = postSolve(t, ts, SolveRequest{SolverSpec: SolverSpec{
		Matrix: "Trefethen_2000", BlockSize: 64, LocalIters: 2, MaxGlobalIters: 10, Kernel: "sell",
	}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("kernel sell status = %d, want 400", resp.StatusCode)
	}
}

func TestHTTPJobList(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	var ids []string
	for i := 0; i < 3; i++ {
		sub, _ := postSolve(t, ts, SolveRequest{
			SolverSpec: SolverSpec{
				MatrixMarket:   mmPayload(t, mats.Poisson2D(16, 16)),
				BlockSize:      32,
				LocalIters:     5,
				MaxGlobalIters: 800,
				Tolerance:      1e-10,
			},
		})
		ids = append(ids, sub.JobID)
	}
	for _, id := range ids {
		waitJobState(t, ts, id, "done")
	}
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list jobListResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 3 {
		t.Fatalf("listed %d jobs, want 3", len(list.Jobs))
	}
	for i, v := range list.Jobs {
		if v.ID != ids[i] {
			t.Fatalf("job %d: listed %s, want %s (submission order)", i, v.ID, ids[i])
		}
	}
	// The three identical solves share one plan: 1 miss, 2 hits.
	st := getStats(t, ts)
	if st.PlanCache.Misses != 1 || st.PlanCache.Hits != 2 {
		t.Fatalf("cache stats = %+v, want 2 hits / 1 miss", st.PlanCache)
	}
	if want := fmt.Sprintf("%d", 3); fmt.Sprintf("%d", st.Done) != want {
		t.Fatalf("done = %d, want 3", st.Done)
	}
}
