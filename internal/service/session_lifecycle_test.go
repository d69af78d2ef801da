package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mats"
)

// quickSessionRequest is a small, fast-converging session configuration.
func quickSessionRequest(t *testing.T) SessionRequest {
	return SessionRequest{
		SolverSpec: SolverSpec{
			MatrixMarket:   mmPayload(t, mats.Poisson2D(16, 16)),
			BlockSize:      32,
			LocalIters:     5,
			MaxGlobalIters: 800,
			Tolerance:      1e-10,
			Seed:           7,
		},
	}
}

// sessionRHS builds the k-th right-hand side of a drifting stream.
func sessionRHS(n, k int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + 0.01*float64(k)*float64(i%7)
	}
	return b
}

// TestSessionLifecycleStateMachine drives the session state machine through
// every legal and illegal transition: active sessions step, closed and
// expired sessions answer the structured gone error (and stay queryable as
// tombstones), and the reaper's idle test never fires early.
func TestSessionLifecycleStateMachine(t *testing.T) {
	type op struct {
		action    string // create | step | close | expire | reap-now
		wantGone  bool   // the op must fail with *SessionGoneError
		wantState string // session state after the op
	}
	cases := []struct {
		name string
		ops  []op
	}{
		{"steps then close", []op{
			{action: "create", wantState: "active"},
			{action: "step", wantState: "active"},
			{action: "step", wantState: "active"},
			{action: "close", wantState: "closed"},
			{action: "step", wantGone: true, wantState: "closed"},
			{action: "close", wantGone: true, wantState: "closed"},
		}},
		{"idle expiry", []op{
			{action: "create", wantState: "active"},
			{action: "step", wantState: "active"},
			{action: "expire", wantState: "expired"},
			{action: "step", wantGone: true, wantState: "expired"},
			{action: "close", wantGone: true, wantState: "expired"},
		}},
		{"fresh session survives an on-time reap", []op{
			{action: "create", wantState: "active"},
			{action: "reap-now", wantState: "active"},
			{action: "step", wantState: "active"},
		}},
		{"close before any step", []op{
			{action: "create", wantState: "active"},
			{action: "close", wantState: "closed"},
			{action: "step", wantGone: true, wantState: "closed"},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A long reap interval keeps the background sweep out of the
			// test; expiry is driven by explicit reap calls with a synthetic
			// clock.
			s := New(Config{Workers: 1, QueueDepth: 2, SessionReapInterval: time.Hour})
			defer s.Shutdown(context.Background())

			var id string
			step := 0
			for i, o := range tc.ops {
				var err error
				switch o.action {
				case "create":
					var v SessionView
					v, err = s.CreateSession(quickSessionRequest(t))
					id = v.ID
				case "step":
					step++
					_, err = s.StepSession(id, StepRequest{RHS: sessionRHS(256, step)}, nil)
				case "close":
					_, err = s.CloseSession(id)
				case "expire":
					s.sessions.reap(time.Now().Add(s.cfg.SessionTTL + time.Minute))
				case "reap-now":
					s.sessions.reap(time.Now())
				default:
					t.Fatalf("op %d: unknown action %q", i, o.action)
				}
				var gone *SessionGoneError
				if got := errors.As(err, &gone); got != o.wantGone {
					t.Fatalf("op %d (%s): err = %v, wantGone = %v", i, o.action, err, o.wantGone)
				}
				if o.wantGone {
					if gone.ID != id || gone.Fingerprint == "" {
						t.Fatalf("op %d (%s): gone error %+v lacks id/fingerprint", i, o.action, gone)
					}
					if gone.State.String() != o.wantState {
						t.Fatalf("op %d (%s): gone state %s, want %s", i, o.action, gone.State, o.wantState)
					}
				}
				if o.wantState != "" {
					v, verr := s.Session(id)
					if verr != nil {
						t.Fatalf("op %d (%s): session lookup: %v", i, o.action, verr)
					}
					if v.State != o.wantState {
						t.Fatalf("op %d (%s): state = %s, want %s", i, o.action, v.State, o.wantState)
					}
				}
			}
		})
	}
}

// TestSessionUnknownID checks the 404 class: lookups, steps and closes of
// IDs the service never issued report ErrUnknownSession.
func TestSessionUnknownID(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	defer s.Shutdown(context.Background())
	if _, err := s.Session("sess-999999"); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("lookup: %v, want ErrUnknownSession", err)
	}
	if _, err := s.StepSession("sess-999999", StepRequest{RHS: []float64{1}}, nil); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("step: %v, want ErrUnknownSession", err)
	}
	if _, err := s.CloseSession("sess-999999"); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("close: %v, want ErrUnknownSession", err)
	}
}

// TestSessionWarmStartReporting checks the warm-start flag and step
// numbering: the first step is cold, every later one warm, and tombstoned
// sessions report their final counters.
func TestSessionWarmStartReporting(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	defer s.Shutdown(context.Background())
	v, err := s.CreateSession(quickSessionRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	if v.WarmStart {
		t.Fatal("fresh session cannot report a warm start")
	}
	// Poisson2D detects as a stencil; the view reports the resolved kernel
	// and the normalized precision like a job result does.
	if v.Kernel != "stencil" || v.Precision != core.PrecF64 {
		t.Fatalf("view kernel=%q precision=%q, want stencil/f64", v.Kernel, v.Precision)
	}
	for k := 1; k <= 3; k++ {
		res, err := s.StepSession(v.ID, StepRequest{RHS: sessionRHS(256, k), IncludeSolution: true}, nil)
		if err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
		if res.Step != k {
			t.Fatalf("step index = %d, want %d", res.Step, k)
		}
		if res.WarmStart != (k > 1) {
			t.Fatalf("step %d: warm = %v", k, res.WarmStart)
		}
		if !res.Converged || len(res.X) != 256 {
			t.Fatalf("step %d: converged=%v len(x)=%d", k, res.Converged, len(res.X))
		}
	}
	v, err = s.Session(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.Steps != 3 || v.FailedSteps != 0 || !v.WarmStart {
		t.Fatalf("view = %+v, want 3 clean steps and warm next", v)
	}
	st := s.Stats().Sessions
	if st.Created != 1 || st.Steps != 3 || st.Active != 1 || st.InflightSteps != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSessionLimitAndTombstoneRoom checks MaxSessions counts only active
// sessions: closing one makes room for the next even though the tombstone
// remains queryable.
func TestSessionLimitAndTombstoneRoom(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2, MaxSessions: 1})
	defer s.Shutdown(context.Background())
	v1, err := s.CreateSession(quickSessionRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateSession(quickSessionRequest(t)); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("second create: %v, want ErrTooManySessions", err)
	}
	if _, err := s.CloseSession(v1.ID); err != nil {
		t.Fatal(err)
	}
	v2, err := s.CreateSession(quickSessionRequest(t))
	if err != nil {
		t.Fatalf("create after close: %v", err)
	}
	if _, err := s.Session(v1.ID); err != nil {
		t.Fatalf("tombstone lookup: %v", err)
	}
	if len(s.Sessions()) != 2 {
		t.Fatalf("list = %d entries, want tombstone + active", len(s.Sessions()))
	}
	if v2.ID == v1.ID {
		t.Fatal("session IDs must not be reused")
	}
}

// --- HTTP surface ---

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func createSessionHTTP(t *testing.T, ts *httptest.Server, req SessionRequest) SessionView {
	t.Helper()
	resp := postJSON(t, ts.URL+"/v1/sessions", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("create: status %d: %s", resp.StatusCode, body)
	}
	var v SessionView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestSessionHTTPLifecycle exercises the whole session surface over HTTP:
// create (201 + Location), step (200), list, delete (200), stepping a
// deleted session (structured 410), unknown IDs (404).
func TestSessionHTTPLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})

	resp := postJSON(t, ts.URL+"/v1/sessions", quickSessionRequest(t))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/v1/sessions/sess-") {
		t.Fatalf("Location = %q", loc)
	}
	var v SessionView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v.State != "active" || v.Fingerprint == "" {
		t.Fatalf("created view = %+v", v)
	}

	stepURL := ts.URL + "/v1/sessions/" + v.ID + "/step"
	resp = postJSON(t, stepURL, StepRequest{RHS: sessionRHS(256, 1)})
	var sr StepResult
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !sr.Converged || sr.Step != 1 || sr.WarmStart {
		t.Fatalf("step: status %d result %+v", resp.StatusCode, sr)
	}

	resp, err := http.Get(ts.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var list sessionListResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Sessions) != 1 || list.Sessions[0].ID != v.ID {
		t.Fatalf("list = %+v", list)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+v.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}

	// Step after delete: the structured 410.
	resp = postJSON(t, stepURL, StepRequest{RHS: sessionRHS(256, 2)})
	var gone sessionGoneResponse
	if err := json.NewDecoder(resp.Body).Decode(&gone); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("step after delete: status %d", resp.StatusCode)
	}
	if gone.Code != "session-closed" || gone.SessionID != v.ID || gone.Fingerprint != v.Fingerprint {
		t.Fatalf("410 body = %+v", gone)
	}

	for _, probe := range []struct {
		method, path string
	}{
		{http.MethodGet, "/v1/sessions/sess-999999"},
		{http.MethodDelete, "/v1/sessions/sess-999999"},
		{http.MethodPost, "/v1/sessions/sess-999999/step"},
	} {
		req, _ := http.NewRequest(probe.method, ts.URL+probe.path, strings.NewReader(`{"rhs":[1]}`))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s: status %d, want 404", probe.method, probe.path, resp.StatusCode)
		}
	}
}

// TestSessionStepStreamSSE checks the Server-Sent-Events response mode:
// progress events carry a falling residual and the stream ends with exactly
// one result event.
func TestSessionStepStreamSSE(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	v := createSessionHTTP(t, ts, quickSessionRequest(t))

	resp := postJSON(t, ts.URL+"/v1/sessions/"+v.ID+"/step",
		StepRequest{RHS: sessionRHS(256, 1), Stream: "sse"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	var progress []StepProgress
	var results []StepResult
	var errEvents int
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "progress":
				var p StepProgress
				if err := json.Unmarshal([]byte(data), &p); err != nil {
					t.Fatalf("progress payload %q: %v", data, err)
				}
				progress = append(progress, p)
			case "result":
				var r StepResult
				if err := json.Unmarshal([]byte(data), &r); err != nil {
					t.Fatalf("result payload %q: %v", data, err)
				}
				results = append(results, r)
			case "error":
				errEvents++
			default:
				t.Fatalf("unknown event %q", event)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || errEvents != 0 {
		t.Fatalf("results = %d, errors = %d, want exactly one result", len(results), errEvents)
	}
	if len(progress) < 2 {
		t.Fatalf("progress events = %d, want the live residual stream", len(progress))
	}
	if !results[0].Converged || results[0].Step != 1 {
		t.Fatalf("result = %+v", results[0])
	}
	// The streamed samples must agree with the result: the last progress
	// frame is the converging iteration's own residual check.
	last := progress[len(progress)-1]
	if last.GlobalIteration != results[0].GlobalIterations {
		t.Fatalf("last progress at iteration %d, result at %d", last.GlobalIteration, results[0].GlobalIterations)
	}
	if last.Residual != results[0].Residual {
		t.Fatalf("last progress residual %v, result residual %v: want the same value", last.Residual, results[0].Residual)
	}
	if first := progress[0]; first.Residual <= last.Residual {
		t.Fatalf("residual did not fall: first %g, last %g", first.Residual, last.Residual)
	}
}

// TestSessionStepStreamJSONLines checks the chunked-JSON response mode and
// the ProgressEvery throttle.
func TestSessionStepStreamJSONLines(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	v := createSessionHTTP(t, ts, quickSessionRequest(t))

	resp := postJSON(t, ts.URL+"/v1/sessions/"+v.ID+"/step",
		StepRequest{RHS: sessionRHS(256, 1), Stream: "json", ProgressEvery: 5})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	type frame struct {
		Progress *StepProgress `json:"progress"`
		Result   *StepResult   `json:"result"`
		Error    *streamError  `json:"error"`
	}
	var nProgress, nResult int
	var res StepResult
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var f frame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		switch {
		case f.Progress != nil:
			nProgress++
		case f.Result != nil:
			nResult++
			res = *f.Result
		case f.Error != nil:
			t.Fatalf("error frame: %+v", *f.Error)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if nResult != 1 || !res.Converged {
		t.Fatalf("results = %d (%+v), want one converged", nResult, res)
	}
	// Every 5th iteration samples: the count must be ~iterations/5.
	want := res.GlobalIterations / 5
	if nProgress != want {
		t.Fatalf("progress frames = %d, want %d (every 5th of %d iterations)", nProgress, want, res.GlobalIterations)
	}
}

// TestSessionStepStreamErrors checks the pre-stream error statuses (404,
// 410, 400 for unknown modes) and the in-stream error frame for a dead
// session race... the pre-stream lookup answers both here.
func TestSessionStepStreamErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	v := createSessionHTTP(t, ts, quickSessionRequest(t))

	resp := postJSON(t, ts.URL+"/v1/sessions/"+v.ID+"/step",
		StepRequest{RHS: sessionRHS(256, 1), Stream: "carrier-pigeon"})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown mode: status %d, want 400", resp.StatusCode)
	}

	resp = postJSON(t, ts.URL+"/v1/sessions/sess-999999/step",
		StepRequest{RHS: sessionRHS(256, 1), Stream: "sse"})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session: status %d, want 404", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+v.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/sessions/"+v.ID+"/step",
		StepRequest{RHS: sessionRHS(256, 1), Stream: "sse"})
	var gone sessionGoneResponse
	if err := json.NewDecoder(resp.Body).Decode(&gone); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone || gone.Code != "session-closed" {
		t.Fatalf("closed session stream: status %d body %+v", resp.StatusCode, gone)
	}
}

// TestSessionCreateRejections checks the create-time 4xx classes over HTTP:
// bad configuration 400, session limit 429, negative TTL 400.
func TestSessionCreateRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2, MaxSessions: 1})

	bad := quickSessionRequest(t)
	bad.BlockSize = 0 // no block size and no tune: invalid
	resp := postJSON(t, ts.URL+"/v1/sessions", bad)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid config: status %d, want 400", resp.StatusCode)
	}

	neg := quickSessionRequest(t)
	neg.TTLSeconds = -1
	resp = postJSON(t, ts.URL+"/v1/sessions", neg)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative ttl: status %d, want 400", resp.StatusCode)
	}

	createSessionHTTP(t, ts, quickSessionRequest(t))
	resp = postJSON(t, ts.URL+"/v1/sessions", quickSessionRequest(t))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over limit: status %d, want 429", resp.StatusCode)
	}
}

// TestSessionMetricsAgree checks /metricsz exposes the session series and
// they agree with /statsz (same atomics, no second set of books).
func TestSessionMetricsAgree(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	v := createSessionHTTP(t, ts, quickSessionRequest(t))
	for k := 1; k <= 2; k++ {
		if _, err := s.StepSession(v.ID, StepRequest{RHS: sessionRHS(256, k)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"service_session_active 1",
		"service_sessions_created_total 1",
		"service_session_steps_total 2",
		"service_session_inflight_steps 0",
		"service_batch_jobs_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metricsz missing %q", want)
		}
	}
	st := s.Stats().Sessions
	if st.Steps != 2 || st.Active != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
