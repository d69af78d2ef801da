package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/certify"
	"repro/internal/mats"
	"repro/internal/service"
	"repro/internal/sparse"
)

// fleetNode is a real solver service behind a kill switch: while down,
// every request answers 503 without reaching the service (the HTTP shape
// of a crashed-but-port-bound or draining node).
type fleetNode struct {
	name string
	svc  *service.Service
	ts   *httptest.Server
	down *switchableNode // reuse the atomic flag only
}

func newFleetNode(t *testing.T, name string, cfg service.Config) *fleetNode {
	t.Helper()
	n := &fleetNode{name: name, svc: service.New(cfg), down: &switchableNode{}}
	inner := service.NewHandler(n.svc)
	n.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.down.down.Load() {
			http.Error(w, "node down", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		n.ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = n.svc.Shutdown(ctx)
	})
	return n
}

// startFleet boots n real solver nodes behind a gateway. The probe loop is
// NOT started; tests drive ProbeOnce (or Start it themselves) for
// determinism.
func startFleet(t *testing.T, n int, gcfg GatewayConfig, ncfg service.Config) (*Gateway, *httptest.Server, []*fleetNode) {
	t.Helper()
	g := NewGateway(gcfg)
	nodes := make([]*fleetNode, n)
	for i := range nodes {
		nodes[i] = newFleetNode(t, fmt.Sprintf("n%d", i), ncfg)
		if err := g.Membership().Register(nodes[i].name, nodes[i].ts.URL); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)
	return g, ts, nodes
}

func postJSON(t *testing.T, url string, v any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func solveEntry(e CorpusEntry) service.SolveRequest {
	return service.SolveRequest{
		SolverSpec: service.SolverSpec{
			MatrixMarket:   e.MatrixMarket,
			BlockSize:      16,
			LocalIters:     2,
			MaxGlobalIters: 500,
			Tolerance:      1e-8,
		},
	}
}

func waitFleetJob(t *testing.T, gwURL, id string) service.JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(gwURL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v service.JobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch v.State {
		case "done":
			return v
		case "failed":
			t.Fatalf("job %s failed: %s", id, v.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q", id, v.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestGatewayRoutesByFingerprint is the tentpole contract: every corpus
// entry lands on exactly the node the ring names for its fingerprint, the
// submit response exposes both, and the node-side result echoes the same
// fingerprint — placement is verifiable end to end.
func TestGatewayRoutesByFingerprint(t *testing.T) {
	g, ts, _ := startFleet(t, 3, GatewayConfig{}, service.Config{Workers: 2, QueueDepth: 16})
	corpus := BuildCorpus(12, 24, 48)

	for _, e := range corpus {
		wantNode, ok := g.Membership().Ring().Owner(e.Fingerprint)
		if !ok {
			t.Fatal("ring empty")
		}
		resp, body := postJSON(t, ts.URL+"/v1/solve", solveEntry(e))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: status %d: %s", e.Name, resp.StatusCode, body)
		}
		var sub submitView
		if err := json.Unmarshal(body, &sub); err != nil {
			t.Fatal(err)
		}
		if sub.Node != wantNode {
			t.Errorf("%s routed to %s, ring owner is %s", e.Name, sub.Node, wantNode)
		}
		if sub.Fingerprint != e.Fingerprint {
			t.Errorf("%s routed by fingerprint %s, corpus says %s", e.Name, sub.Fingerprint, e.Fingerprint)
		}
		v := waitFleetJob(t, ts.URL, sub.JobID)
		if v.Result == nil || v.Result.Fingerprint != e.Fingerprint {
			t.Errorf("%s: node-side result fingerprint does not match routing key", e.Name)
		}
	}
}

// TestGatewayAffinity: repeated solves of one matrix always hit the same
// node, and from the second solve on they are plan-cache hits there.
func TestGatewayAffinity(t *testing.T) {
	_, ts, _ := startFleet(t, 3, GatewayConfig{}, service.Config{Workers: 1, QueueDepth: 16})
	e := BuildCorpus(1, 32, 32)[0]

	first := ""
	for i := 0; i < 5; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/solve", solveEntry(e))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d: %s", i, resp.StatusCode, body)
		}
		var sub submitView
		if err := json.Unmarshal(body, &sub); err != nil {
			t.Fatal(err)
		}
		if first == "" {
			first = sub.Node
		} else if sub.Node != first {
			t.Fatalf("solve %d routed to %s, first went to %s", i, sub.Node, first)
		}
		v := waitFleetJob(t, ts.URL, sub.JobID)
		if i > 0 && !v.Result.PlanHit {
			t.Errorf("solve %d on %s missed the plan cache despite affinity", i, sub.Node)
		}
	}
}

// stubFleet registers canned handlers as nodes, for deterministic
// failure-path tests.
func stubFleet(t *testing.T, gcfg GatewayConfig, handlers map[string]http.HandlerFunc) (*Gateway, *httptest.Server, map[string]string) {
	t.Helper()
	g := NewGateway(gcfg)
	names := map[string]string{}
	for name, h := range handlers {
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		if err := g.Membership().Register(name, ts.URL); err != nil {
			t.Fatal(err)
		}
		names[name] = ts.URL
	}
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)
	return g, ts, names
}

func accept202(node string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"job_id":"job-000001","state":"queued","status_url":"/v1/jobs/job-000001"}`)
		_ = node
	}
}

// TestGatewayNode429NeverFailsOver: a saturated owner's 429 is propagated
// upstream with its Retry-After; the gateway must NOT spill the key to the
// healthy successor.
func TestGatewayNode429NeverFailsOver(t *testing.T) {
	e := BuildCorpus(1, 32, 32)[0]
	var otherHits atomic.Int32
	handlers := map[string]http.HandlerFunc{}
	// Two stubs; we don't know the owner until the ring exists, so both
	// start as accepters and we swap the owner to a 429er after.
	var mu sync.Mutex
	behavior := map[string]http.HandlerFunc{}
	for _, name := range []string{"a", "b"} {
		name := name
		handlers[name] = func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			h := behavior[name]
			mu.Unlock()
			h(w, r)
		}
	}
	g, ts, _ := stubFleet(t, GatewayConfig{FailoverTries: 2}, handlers)
	owner, _ := g.Membership().Ring().Owner(e.Fingerprint)
	other := "a"
	if owner == "a" {
		other = "b"
	}
	mu.Lock()
	behavior[owner] = func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
	}
	behavior[other] = func(w http.ResponseWriter, r *http.Request) {
		otherHits.Add(1)
		accept202(other)(w, r)
	}
	mu.Unlock()

	resp, body := postJSON(t, ts.URL+"/v1/solve", solveEntry(e))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Errorf("Retry-After = %q, want the node's 7", ra)
	}
	if n := otherHits.Load(); n != 0 {
		t.Errorf("429 spilled to the successor owner (%d hits) — cache affinity violated", n)
	}
}

// TestGatewayCertify422NeverFailsOver: a certified-divergent refusal is
// deterministic — every replica computes the same verdict — so the gateway
// must relay the 422 (certificate body included) and never retry the
// successor owner.
func TestGatewayCertify422NeverFailsOver(t *testing.T) {
	e := BuildCorpus(1, 32, 32)[0]
	var otherHits atomic.Int32
	var mu sync.Mutex
	behavior := map[string]http.HandlerFunc{}
	handlers := map[string]http.HandlerFunc{}
	for _, name := range []string{"a", "b"} {
		name := name
		handlers[name] = func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			h := behavior[name]
			mu.Unlock()
			h(w, r)
		}
	}
	g, ts, _ := stubFleet(t, GatewayConfig{FailoverTries: 2}, handlers)
	owner, _ := g.Membership().Ring().Owner(e.Fingerprint)
	other := "a"
	if owner == "a" {
		other = "b"
	}
	const certBody = `{"error":"certified divergent","certificate":{"verdict":"diverges","rho_jacobi":2.66}}`
	mu.Lock()
	behavior[owner] = func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusUnprocessableEntity)
		fmt.Fprint(w, certBody)
	}
	behavior[other] = func(w http.ResponseWriter, r *http.Request) {
		otherHits.Add(1)
		accept202(other)(w, r)
	}
	mu.Unlock()

	resp, body := postJSON(t, ts.URL+"/v1/solve", solveEntry(e))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", resp.StatusCode, body)
	}
	if string(body) != certBody {
		t.Errorf("422 body not relayed verbatim: %s", body)
	}
	if n := otherHits.Load(); n != 0 {
		t.Errorf("certified 422 failed over to the successor (%d hits) — the verdict is deterministic", n)
	}
	st := scrapeStats(t, ts.URL)
	if st.CertRejects != 1 {
		t.Errorf("cert_rejects = %d, want 1", st.CertRejects)
	}
	if st.Failovers != 0 {
		t.Errorf("failovers = %d, want 0", st.Failovers)
	}
}

// TestGatewayCertify422EndToEnd: real solver nodes behind the gateway; an
// enforce-mode submission of a provably divergent matrix answers 422 with
// the admission certificate in the body and is never counted as a failover.
func TestGatewayCertify422EndToEnd(t *testing.T) {
	_, ts, _ := startFleet(t, 3, GatewayConfig{}, service.Config{Workers: 1, QueueDepth: 8})

	a := mats.S1RMT3M1(200)
	var sb strings.Builder
	if err := sparse.WriteMatrixMarket(&sb, a); err != nil {
		t.Fatal(err)
	}
	req := service.SolveRequest{
		SolverSpec: service.SolverSpec{
			MatrixMarket:   sb.String(),
			BlockSize:      32,
			LocalIters:     1,
			MaxGlobalIters: 50,
			Tolerance:      1e-8,
			Certify:        "enforce",
		},
	}
	resp, body := postJSON(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", resp.StatusCode, body)
	}
	var out struct {
		Error       string              `json:"error"`
		Certificate certify.Certificate `json:"certificate"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding relayed 422 body: %v", err)
	}
	if out.Error == "" || out.Certificate.Verdict != certify.VerdictDiverges {
		t.Fatalf("relayed 422 body = %+v, want error + diverges certificate", out)
	}
	st := scrapeStats(t, ts.URL)
	if st.CertRejects != 1 {
		t.Errorf("cert_rejects = %d, want 1", st.CertRejects)
	}
	if st.Failovers != 0 {
		t.Errorf("failovers = %d, want 0 — 422 must not be retried", st.Failovers)
	}
}

// TestGatewayFailsOverOn503: a draining owner is skipped and the solve
// lands on the successor, counted as a failover.
func TestGatewayFailsOverOn503(t *testing.T) {
	e := BuildCorpus(1, 32, 32)[0]
	var mu sync.Mutex
	behavior := map[string]http.HandlerFunc{}
	handlers := map[string]http.HandlerFunc{}
	for _, name := range []string{"a", "b"} {
		name := name
		handlers[name] = func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			h := behavior[name]
			mu.Unlock()
			h(w, r)
		}
	}
	g, ts, _ := stubFleet(t, GatewayConfig{FailoverTries: 2, Membership: MembershipConfig{FailAfter: 100}}, handlers)
	owner, _ := g.Membership().Ring().Owner(e.Fingerprint)
	other := "a"
	if owner == "a" {
		other = "b"
	}
	mu.Lock()
	behavior[owner] = func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "draining", http.StatusServiceUnavailable)
	}
	behavior[other] = accept202(other)
	mu.Unlock()

	resp, body := postJSON(t, ts.URL+"/v1/solve", solveEntry(e))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202 via failover: %s", resp.StatusCode, body)
	}
	var sub submitView
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.Node != other {
		t.Errorf("failover landed on %s, want %s", sub.Node, other)
	}
	st := scrapeStats(t, ts.URL)
	if st.Failovers == 0 {
		t.Error("failover not counted")
	}
}

// TestGatewayShedsAtInflightCap: with MaxInflight=1 and a slow node,
// concurrent submits beyond the cap get the gateway's own 429.
func TestGatewayShedsAtInflightCap(t *testing.T) {
	e := BuildCorpus(1, 32, 32)[0]
	release := make(chan struct{})
	_, ts, _ := stubFleet(t, GatewayConfig{MaxInflight: 1}, map[string]http.HandlerFunc{
		"slow": func(w http.ResponseWriter, r *http.Request) {
			<-release
			accept202("slow")(w, r)
		},
	})

	const inFlight = 4
	codes := make(chan int, inFlight)
	var wg sync.WaitGroup
	for i := 0; i < inFlight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := postJSON(t, ts.URL+"/v1/solve", solveEntry(e))
			codes <- resp.StatusCode
		}()
	}
	// Let the requests pile up against the cap, then release the node.
	time.Sleep(100 * time.Millisecond)
	close(release)
	wg.Wait()
	close(codes)

	shed, ok := 0, 0
	for c := range codes {
		switch c {
		case http.StatusTooManyRequests:
			shed++
		case http.StatusAccepted:
			ok++
		default:
			t.Errorf("unexpected status %d", c)
		}
	}
	if shed == 0 {
		t.Error("no submission shed despite MaxInflight=1 and 4 concurrent")
	}
	if ok == 0 {
		t.Error("no submission accepted")
	}
	st := scrapeStats(t, ts.URL)
	if st.Shed != uint64(shed) {
		t.Errorf("gateway_shed_total = %d, observed %d shed responses", st.Shed, shed)
	}
}

func scrapeStats(t *testing.T, gwURL string) gatewayStats {
	t.Helper()
	resp, err := http.Get(gwURL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st gatewayStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestGatewayBadRequests(t *testing.T) {
	_, ts, _ := startFleet(t, 1, GatewayConfig{}, service.Config{Workers: 1, QueueDepth: 4})

	resp, _ := postJSON(t, ts.URL+"/v1/solve", map[string]any{"max_global_iters": 10})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("matrixless solve: status %d, want 400", resp.StatusCode)
	}

	r2, err := http.Get(ts.URL + "/v1/jobs/not-namespaced")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Errorf("un-namespaced job ID: status %d, want 400", r2.StatusCode)
	}

	r3, err := http.Get(ts.URL + "/v1/jobs/ghost~job-000001")
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusNotFound {
		t.Errorf("unknown node in job ID: status %d, want 404", r3.StatusCode)
	}
}

// TestTruncatedBodyIs400: a request body that fails before its end (a
// truncated or aborted upload) is a bad request, not an oversized one, on
// every route of the node and the gateway that reads a body. Only the
// bound's own error, *http.MaxBytesError, maps to 413; a body over the
// 256 MiB bound is too large to send here, so that mapping is checked
// directly.
func TestTruncatedBodyIs400(t *testing.T) {
	node := newFleetNode(t, "n0", service.Config{Workers: 1, QueueDepth: 1})
	g := NewGateway(GatewayConfig{})
	if err := g.Membership().Register(node.name, node.ts.URL); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		handler http.Handler
		step    string
	}{
		{"node", service.NewHandler(node.svc), "/v1/sessions/sess-000001/step"},
		{"gateway", g.Handler(), "/v1/sessions/n0~sess-000001/step"},
	} {
		for _, path := range []string{"/v1/solve", "/v1/sessions", "/v1/batch", tc.step} {
			body := io.MultiReader(strings.NewReader(`{"matrix":"fv1","block_size":`), iotest.ErrReader(io.ErrUnexpectedEOF))
			rec := httptest.NewRecorder()
			tc.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
			if rec.Code != http.StatusBadRequest {
				t.Errorf("%s POST %s with a truncated body: status %d, want 400 (%s)",
					tc.name, path, rec.Code, strings.TrimSpace(rec.Body.String()))
			}
		}
	}

	_, tooLarge := io.ReadAll(http.MaxBytesReader(nil, io.NopCloser(strings.NewReader("12345")), 4))
	for _, tc := range []struct {
		err  error
		want int
	}{
		{tooLarge, http.StatusRequestEntityTooLarge},
		{fmt.Errorf("fleet: reading request: %w", tooLarge), http.StatusRequestEntityTooLarge},
		{io.ErrUnexpectedEOF, http.StatusBadRequest},
		{errors.New("connection reset by peer"), http.StatusBadRequest},
	} {
		if got := service.ReadErrorStatus(tc.err); got != tc.want {
			t.Errorf("ReadErrorStatus(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// TestRouteKeyRowLimitBeforeSizing: the gateway applies the node's row
// limit before it sizes anything from an upload's size line or a matrix
// name, and answers 400.
func TestRouteKeyRowLimitBeforeSizing(t *testing.T) {
	_, ts, _ := startFleet(t, 1, GatewayConfig{}, service.Config{Workers: 1, QueueDepth: 4})
	for _, spec := range []service.SolverSpec{
		// 72 bytes declaring 2^24 rows: 128 MiB of row pointers if sized.
		{MatrixMarket: "%%MatrixMarket matrix coordinate real general\n16777216 16777216 1\n1 1 1\n"},
		// 1025² = 1,050,625 rows, one grid line over the default limit.
		{Matrix: "poisson2d_1025"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := newKeyResolver().RouteKey(spec)
		runtime.ReadMemStats(&after)
		var rl *sparse.RowLimitError
		if !errors.As(err, &rl) || rl.Limit != service.DefaultMaxMatrixRows {
			t.Errorf("RouteKey(%.40q) error = %v, want a refusal at the node's row limit", spec.Matrix+spec.MatrixMarket, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("RouteKey(%.40q) allocated %d KiB before refusing", spec.Matrix+spec.MatrixMarket, grew>>10)
		}
		resp, _ := postJSON(t, ts.URL+"/v1/solve", map[string]any{
			"matrix": spec.Matrix, "matrix_market": spec.MatrixMarket,
			"block_size": 8, "local_iters": 1, "max_global_iters": 1,
		})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("oversized %.40q: status %d, want 400", spec.Matrix+spec.MatrixMarket, resp.StatusCode)
		}
	}
}

// TestGatewayNodeAPI registers and deregisters a node over HTTP and
// checks /readyz flips with the healthy count.
func TestGatewayNodeAPI(t *testing.T) {
	g := NewGateway(GatewayConfig{})
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	ready, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	ready.Body.Close()
	if ready.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("empty gateway /readyz = %d, want 503", ready.StatusCode)
	}

	node := newSwitchableNode(t)
	resp, body := postJSON(t, ts.URL+"/v1/nodes", registerRequest{Name: "n0", URL: node.ts.URL})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: status %d: %s", resp.StatusCode, body)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/nodes", registerRequest{Name: "n0", URL: node.ts.URL}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("duplicate register: status %d, want 400", resp.StatusCode)
	}

	ready2, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	ready2.Body.Close()
	if ready2.StatusCode != http.StatusOK {
		t.Errorf("gateway /readyz with a node = %d, want 200", ready2.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/nodes/n0", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Errorf("deregister: status %d, want 200", dresp.StatusCode)
	}
	if g.Membership().HealthyCount() != 0 {
		t.Error("node still healthy after deregister")
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	for in, want := range map[string]int{"7": 7, " 3 ": 3, "": 1, "0": 1, "-2": 1, "soon": 1} {
		if got := RetryAfterSeconds(in); got != want {
			t.Errorf("RetryAfterSeconds(%q) = %d, want %d", in, got, want)
		}
	}
	if RetryAfterSeconds(strconv.Itoa(60)) != 60 {
		t.Error("60 not passed through")
	}
}
