package fleet

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/service"
)

func sessionEntryRequest(e CorpusEntry) service.SessionRequest {
	return service.SessionRequest{
		SolverSpec: service.SolverSpec{
			MatrixMarket:   e.MatrixMarket,
			BlockSize:      16,
			LocalIters:     2,
			MaxGlobalIters: 500,
			Tolerance:      1e-8,
			Seed:           7,
		},
	}
}

func entryRHS(e CorpusEntry, k int) []float64 {
	b := make([]float64, e.N)
	for i := range b {
		b[i] = 1 + 0.01*float64(k)*float64(i%5)
	}
	return b
}

func createSessionVia(t *testing.T, gwURL string, req service.SessionRequest) gatewaySessionView {
	t.Helper()
	resp, body := postJSON(t, gwURL+"/v1/sessions", req)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d: %s", resp.StatusCode, body)
	}
	var v gatewaySessionView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestGatewaySessionStickyRouting creates sessions through the gateway and
// checks each lands on its fingerprint's ring owner, gets a namespaced ID,
// and that steps stay pinned to that node (warm-starting there).
func TestGatewaySessionStickyRouting(t *testing.T) {
	g, ts, nodes := startFleet(t, 3, GatewayConfig{}, service.Config{Workers: 2, QueueDepth: 8})

	corpus := BuildCorpus(6, 64, 128)
	byNode := map[string]int{}
	for _, e := range corpus {
		v := createSessionVia(t, ts.URL, sessionEntryRequest(e))
		owner := g.members.Ring().Owners(e.Fingerprint, 1)
		if len(owner) != 1 || v.Node != owner[0] {
			t.Fatalf("session for %s landed on %s, ring owner %v", e.Fingerprint[:8], v.Node, owner)
		}
		if v.Fingerprint != e.Fingerprint {
			t.Fatalf("view fingerprint %s, corpus %s", v.Fingerprint, e.Fingerprint)
		}
		if !strings.HasPrefix(v.ID, v.Node+"~sess-") {
			t.Fatalf("ID %q not namespaced to its node", v.ID)
		}
		byNode[v.Node]++

		// Two steps through the gateway: the second must warm-start, which
		// can only happen if it reached the same node-resident session.
		for k := 1; k <= 2; k++ {
			resp, body := postJSON(t, ts.URL+"/v1/sessions/"+v.ID+"/step",
				service.StepRequest{RHS: entryRHS(e, k)})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("step %d: status %d: %s", k, resp.StatusCode, body)
			}
			var sr service.StepResult
			if err := json.Unmarshal(body, &sr); err != nil {
				t.Fatal(err)
			}
			if !sr.Converged || sr.Step != k || sr.WarmStart != (k > 1) {
				t.Fatalf("step %d = %+v", k, sr)
			}
		}
	}
	if len(byNode) < 2 {
		t.Fatalf("all sessions on one node (%v): ring not spreading", byNode)
	}
	// The per-node session stores agree with the gateway's attribution.
	total := 0
	for _, n := range nodes {
		total += n.svc.Stats().Sessions.Active
	}
	if total != len(corpus) {
		t.Fatalf("fleet holds %d active sessions, want %d", total, len(corpus))
	}
	st := g.sessions.len()
	if st != len(corpus) {
		t.Fatalf("gateway tracks %d sessions, want %d", st, len(corpus))
	}
}

// TestGatewaySessionStepStreaming runs an SSE step through the gateway and
// expects the relayed stream: progress events, then one result.
func TestGatewaySessionStepStreaming(t *testing.T) {
	_, ts, _ := startFleet(t, 2, GatewayConfig{}, service.Config{Workers: 2, QueueDepth: 8})
	e := BuildCorpus(1, 128, 128)[0]
	v := createSessionVia(t, ts.URL, sessionEntryRequest(e))

	payload, _ := json.Marshal(service.StepRequest{RHS: entryRHS(e, 1), Stream: "sse"})
	resp, err := http.Post(ts.URL+"/v1/sessions/"+v.ID+"/step", "application/json", strings.NewReader(string(payload)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("status %d, content type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	events := map[string]int{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event: ") {
			events[strings.TrimPrefix(sc.Text(), "event: ")]++
		}
	}
	if events["result"] != 1 || events["error"] != 0 || events["progress"] < 1 {
		t.Fatalf("relayed events = %v, want progress then one result", events)
	}
}

// decodeLost decodes a gateway 410 body.
func decodeLost(t *testing.T, body []byte) sessionLostResponse {
	t.Helper()
	var lost sessionLostResponse
	if err := json.Unmarshal(body, &lost); err != nil {
		t.Fatalf("decoding 410 body %s: %v", body, err)
	}
	return lost
}

// TestGatewaySessionLostOnNodeDeath is the failover contract end to end:
// the owning node dies mid-session and the next step answers the
// structured 410 "session-lost" carrying the session's fingerprint — the
// gateway must NOT re-create the session on a surviving node, and the
// fleet must NOT invent fresh state under the old ID.
func TestGatewaySessionLostOnNodeDeath(t *testing.T) {
	g, ts, nodes := startFleet(t, 3, GatewayConfig{}, service.Config{Workers: 2, QueueDepth: 8})
	e := BuildCorpus(1, 96, 96)[0]
	v := createSessionVia(t, ts.URL, sessionEntryRequest(e))

	// One live step to make the session genuinely mid-stream.
	resp, body := postJSON(t, ts.URL+"/v1/sessions/"+v.ID+"/step", service.StepRequest{RHS: entryRHS(e, 1)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up step: status %d: %s", resp.StatusCode, body)
	}

	// Kill the owner (port stays bound, answers 503 — the crashed-supervisor
	// shape fleet_smoke kills with SIGTERM).
	var owner *fleetNode
	for _, n := range nodes {
		if n.name == v.Node {
			owner = n
		}
	}
	owner.down.down.Store(true)

	resp, body = postJSON(t, ts.URL+"/v1/sessions/"+v.ID+"/step", service.StepRequest{RHS: entryRHS(e, 2)})
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("step after owner death: status %d: %s", resp.StatusCode, body)
	}
	lost := decodeLost(t, body)
	if lost.Code != "session-lost" || lost.SessionID != v.ID || lost.Fingerprint != e.Fingerprint {
		t.Fatalf("410 body = %+v", lost)
	}
	// No silent re-creation anywhere: the survivors hold zero sessions for
	// this fingerprint and the gateway dropped its tracking entry.
	for _, n := range nodes {
		if n == owner {
			continue
		}
		if got := n.svc.Stats().Sessions.Active; got != 0 {
			t.Fatalf("node %s silently gained %d sessions", n.name, got)
		}
	}
	if g.sessions.len() != 0 {
		t.Fatalf("gateway still tracks %d sessions after loss", g.sessions.len())
	}
	if got := g.sessionLost.Value(); got != 1 {
		t.Fatalf("session-lost counter = %d, want 1", got)
	}

	// The client's recovery path: re-create using the fingerprint from the
	// 410. The replacement session must land on a SURVIVING ring owner and
	// start cold (step 1, no warm start) — fresh state, fresh ID.
	v2 := createSessionVia(t, ts.URL, sessionEntryRequest(e))
	if v2.ID == v.ID {
		t.Fatal("replacement session reused the lost ID")
	}
	if v2.Node == owner.name {
		t.Fatalf("replacement landed on the dead node %s", owner.name)
	}
	resp, body = postJSON(t, ts.URL+"/v1/sessions/"+v2.ID+"/step", service.StepRequest{RHS: entryRHS(e, 3)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replacement step: status %d: %s", resp.StatusCode, body)
	}
	var sr service.StepResult
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Step != 1 || sr.WarmStart {
		t.Fatalf("replacement step = %+v, want a cold step 1", sr)
	}
}

// TestGatewaySessionLostOnNodeRestart covers the sneakier loss: the owner
// comes back healthy under the same name but without its in-memory
// sessions. The node alone would answer 404 unknown; the gateway, which
// issued the ID, must translate that to the honest 410 session-lost.
func TestGatewaySessionLostOnNodeRestart(t *testing.T) {
	g, ts, nodes := startFleet(t, 2, GatewayConfig{}, service.Config{Workers: 2, QueueDepth: 8})
	e := BuildCorpus(1, 96, 96)[0]
	v := createSessionVia(t, ts.URL, sessionEntryRequest(e))

	// "Restart" the owner: same name, same URL shape, fresh service with no
	// session state.
	replacement := newFleetNode(t, v.Node, service.Config{Workers: 2, QueueDepth: 8})
	if err := g.Membership().Deregister(v.Node); err != nil {
		t.Fatal(err)
	}
	if err := g.Membership().Register(v.Node, replacement.ts.URL); err != nil {
		t.Fatal(err)
	}
	_ = nodes

	resp, body := postJSON(t, ts.URL+"/v1/sessions/"+v.ID+"/step", service.StepRequest{RHS: entryRHS(e, 1)})
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("step after restart: status %d: %s", resp.StatusCode, body)
	}
	lost := decodeLost(t, body)
	if lost.Code != "session-lost" || lost.Fingerprint != e.Fingerprint {
		t.Fatalf("410 body = %+v", lost)
	}
	// The restarted node must NOT have been handed invented state.
	if got := replacement.svc.Stats().Sessions.Created; got != 0 {
		t.Fatalf("restarted node has %d sessions: silent re-creation", got)
	}
}

// TestGatewaySessionDeregisteredOwner checks the third loss mode: the owner
// left the membership entirely.
func TestGatewaySessionDeregisteredOwner(t *testing.T) {
	g, ts, _ := startFleet(t, 2, GatewayConfig{}, service.Config{Workers: 2, QueueDepth: 8})
	e := BuildCorpus(1, 64, 64)[0]
	v := createSessionVia(t, ts.URL, sessionEntryRequest(e))
	if err := g.Membership().Deregister(v.Node); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/sessions/"+v.ID+"/step", service.StepRequest{RHS: entryRHS(e, 1)})
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if lost := decodeLost(t, body); lost.Code != "session-lost" {
		t.Fatalf("410 body = %+v", lost)
	}
}

// TestGatewaySessionTombstoneRelay checks a node-side 410 (client-closed
// session) relays verbatim — it is NOT a session-lost: the state ended by
// request, not by failure.
func TestGatewaySessionTombstoneRelay(t *testing.T) {
	g, ts, _ := startFleet(t, 2, GatewayConfig{}, service.Config{Workers: 2, QueueDepth: 8})
	e := BuildCorpus(1, 64, 64)[0]
	v := createSessionVia(t, ts.URL, sessionEntryRequest(e))

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+v.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}

	presp, body := postJSON(t, ts.URL+"/v1/sessions/"+v.ID+"/step", service.StepRequest{RHS: entryRHS(e, 1)})
	if presp.StatusCode != http.StatusGone {
		t.Fatalf("status %d: %s", presp.StatusCode, body)
	}
	var gone struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(body, &gone); err != nil {
		t.Fatal(err)
	}
	if gone.Code != "session-closed" {
		t.Fatalf("code = %q, want the node's session-closed, not session-lost", gone.Code)
	}
	if got := g.sessionLost.Value(); got != 0 {
		t.Fatalf("session-lost counter = %d for a clean close", got)
	}
}

// TestGatewayBatchRouting routes a batch through the gateway and polls the
// namespaced job to completion.
func TestGatewayBatchRouting(t *testing.T) {
	g, ts, _ := startFleet(t, 2, GatewayConfig{}, service.Config{Workers: 2, QueueDepth: 8})
	e := BuildCorpus(1, 64, 64)[0]

	req := service.BatchRequest{
		SolverSpec: service.SolverSpec{
			MatrixMarket:   e.MatrixMarket,
			BlockSize:      16,
			LocalIters:     2,
			MaxGlobalIters: 500,
			Tolerance:      1e-8,
			Seed:           42,
		},
		RHS: [][]float64{entryRHS(e, 1), entryRHS(e, 2), entryRHS(e, 3)},
	}
	resp, body := postJSON(t, ts.URL+"/v1/batch", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sv submitView
	if err := json.Unmarshal(body, &sv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sv.JobID, "~job-") || sv.Fingerprint != e.Fingerprint {
		t.Fatalf("submit view = %+v", sv)
	}
	if owner := g.members.Ring().Owners(e.Fingerprint, 1)[0]; sv.Node != owner {
		t.Fatalf("batch landed on %s, ring owner %s", sv.Node, owner)
	}

	view := waitFleetJob(t, ts.URL, sv.JobID)
	if view.Result == nil || view.Result.Batch == nil {
		t.Fatalf("job view = %+v, want a batch result", view)
	}
	if view.Result.Batch.Converged != 3 || view.Result.Batch.Failed != 0 {
		t.Fatalf("batch = %+v", view.Result.Batch)
	}
	if got := g.batchSubmits.Value(); got != 1 {
		t.Fatalf("batch counter = %d", got)
	}
}
