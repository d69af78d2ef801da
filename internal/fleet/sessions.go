package fleet

import (
	"container/list"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/service"
)

// sessionRegistry is the gateway's bounded map of issued sessions:
// namespaced ID → owning node + routing fingerprint. It exists for exactly
// one guarantee — when the owning node dies, a step must answer an explicit
// structured "session-lost" (with the fingerprint the client needs to
// re-create the session), never a silent re-route that would fabricate a
// fresh session under the old ID. Entries evict LRU; an evicted entry only
// downgrades a session-lost answer to the node's own 404.
type sessionRegistry struct {
	mu sync.Mutex
	m  map[string]*list.Element // namespaced ID -> *sessionEntry
	ll *list.List               // front = most recently used
}

type sessionEntry struct {
	id          string
	node        string
	fingerprint string
}

// sessionRegistryEntries bounds tracked sessions; at ~100 bytes per entry
// this is ~2MB, far above any node's MaxSessions.
const sessionRegistryEntries = 16384

func newSessionRegistry() *sessionRegistry {
	return &sessionRegistry{m: make(map[string]*list.Element), ll: list.New()}
}

func (r *sessionRegistry) put(id, node, fingerprint string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if el, ok := r.m[id]; ok {
		r.ll.MoveToFront(el)
		el.Value.(*sessionEntry).node = node
		el.Value.(*sessionEntry).fingerprint = fingerprint
		return
	}
	r.m[id] = r.ll.PushFront(&sessionEntry{id: id, node: node, fingerprint: fingerprint})
	for r.ll.Len() > sessionRegistryEntries {
		back := r.ll.Back()
		delete(r.m, back.Value.(*sessionEntry).id)
		r.ll.Remove(back)
	}
}

func (r *sessionRegistry) get(id string) (sessionEntry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	el, ok := r.m[id]
	if !ok {
		return sessionEntry{}, false
	}
	r.ll.MoveToFront(el)
	return *el.Value.(*sessionEntry), true
}

func (r *sessionRegistry) drop(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if el, ok := r.m[id]; ok {
		delete(r.m, id)
		r.ll.Remove(el)
	}
}

func (r *sessionRegistry) list() []sessionEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]sessionEntry, 0, r.ll.Len())
	for el := r.ll.Front(); el != nil; el = el.Next() {
		out = append(out, *el.Value.(*sessionEntry))
	}
	return out
}

func (r *sessionRegistry) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ll.Len()
}

// gatewaySessionView wraps the node's session view with the gateway's
// namespaced ID and routing attribution.
type gatewaySessionView struct {
	service.SessionView
	Node string `json:"node"`
}

// sessionLostResponse is the gateway's 410 body when a session's owning
// node died or lost its state: code "session-lost" (distinct from the
// node-side "session-expired"/"session-closed"), plus the fingerprint so
// the client can re-create the session — the ONE recovery path; the
// gateway never re-creates session state on a successor node itself.
type sessionLostResponse struct {
	Error       string `json:"error"`
	Code        string `json:"code"`
	SessionID   string `json:"session_id"`
	Fingerprint string `json:"fingerprint"`
	Node        string `json:"node,omitempty"`
}

func (g *Gateway) writeSessionLost(w http.ResponseWriter, id, node, fingerprint string, cause error) {
	g.sessionLost.Inc()
	g.sessions.drop(id)
	writeJSON(w, http.StatusGone, sessionLostResponse{
		Error:       fmt.Sprintf("fleet: session %s lost: %v", id, cause),
		Code:        "session-lost",
		SessionID:   id,
		Fingerprint: fingerprint,
		Node:        node,
	})
}

// handleSessionCreate routes a session to its fingerprint's ring owner.
// Creation holds no session state yet, so a dead or draining owner fails
// over to a successor like a solve; once the 201 lands, the session is
// pinned to that node for its whole life.
func (g *Gateway) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	if !g.acquire(w) {
		return
	}
	defer g.inflight.Add(-1)
	var req service.SessionRequest
	body, key, owners, ok := g.route(w, r, &req, &req.SolverSpec)
	if !ok {
		return
	}
	var lastErr error
	for i, name := range owners {
		if i > 0 {
			g.failovers.Inc()
		}
		base, ok := g.members.URL(name)
		if !ok {
			continue
		}
		g.routeCounter(name).Inc()
		resp, err := g.forward(r, http.MethodPost, base+"/v1/sessions", body)
		if err != nil {
			g.failCounter(name).Inc()
			g.members.ReportFailure(name, err)
			lastErr = err
			continue
		}
		respBody, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
		resp.Body.Close()
		if err != nil {
			g.failCounter(name).Inc()
			lastErr = err
			continue
		}
		switch resp.StatusCode {
		case http.StatusCreated:
			var v service.SessionView
			if err := json.Unmarshal(respBody, &v); err != nil || v.ID == "" {
				relay(w, resp, respBody)
				return
			}
			id := name + "~" + v.ID
			g.sessions.put(id, name, key)
			g.sessionsCreated.Inc()
			v.ID = id
			w.Header().Set("Location", "/v1/sessions/"+id)
			writeJSON(w, http.StatusCreated, gatewaySessionView{SessionView: v, Node: name})
			return
		case http.StatusTooManyRequests:
			// Session limit or saturation on the live owner: propagate, never
			// spill — the point of stickiness is that the plan/warm state
			// lives exactly there.
			if ra := resp.Header.Get("Retry-After"); ra != "" {
				w.Header().Set("Retry-After", ra)
			}
			relay(w, resp, respBody)
			return
		case http.StatusServiceUnavailable:
			g.failCounter(name).Inc()
			g.members.ReportFailure(name, fmt.Errorf("sessions: %s", resp.Status))
			lastErr = fmt.Errorf("node %s: %s", name, resp.Status)
			continue
		default:
			// 4xx (validation, certificates) is deterministic: relay.
			relay(w, resp, respBody)
			return
		}
	}
	g.noNodes.Inc()
	if lastErr == nil {
		lastErr = fmt.Errorf("fleet: no owner accepted the session")
	}
	writeErr(w, http.StatusServiceUnavailable, fmt.Errorf("fleet: all owners failed: %w", lastErr))
}

// handleSessionStep forwards a step to the session's pinned owner and
// relays the response as it streams (progress events must not sit in a
// gateway buffer until the solve finishes). There is NO failover on this
// path: a session is state on one node, so an unreachable owner — or an
// owner that restarted and no longer knows the ID — answers the structured
// 410 "session-lost". Re-creating the session (on a successor or on the
// restarted owner) is the client's decision, armed with the fingerprint.
func (g *Gateway) handleSessionStep(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	name, rest, ok := strings.Cut(id, "~")
	if !ok {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("fleet: session ID %q is not namespaced (want node~id)", id))
		return
	}
	known, tracked := g.sessions.get(id)

	base, found := g.members.URL(name)
	if !found {
		// The owner is no longer a member at all: its session state is gone
		// with it.
		g.writeSessionLost(w, id, name, known.fingerprint, fmt.Errorf("node %q is no longer registered", name))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		writeErr(w, service.ReadErrorStatus(err), fmt.Errorf("fleet: reading request: %w", err))
		return
	}
	g.sessionSteps.Inc()
	resp, err := g.forward(r, http.MethodPost, base+"/v1/sessions/"+rest+"/step", body)
	if err != nil {
		g.failCounter(name).Inc()
		g.members.ReportFailure(name, err)
		g.writeSessionLost(w, id, name, known.fingerprint, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound && tracked {
		// The gateway issued this ID but the node no longer knows it: the
		// owner restarted (or was replaced behind the same name) and its
		// in-memory sessions died with it. A bare 404 would read as "you
		// typed the wrong ID"; the truth is session-lost.
		io.Copy(io.Discard, resp.Body)
		g.writeSessionLost(w, id, name, known.fingerprint, fmt.Errorf("node %q lost its session state (restart?)", name))
		return
	}
	if resp.StatusCode == http.StatusServiceUnavailable {
		// Crashed-but-port-bound or draining owner: its in-memory sessions
		// are dying with it. A relayed 503 would invite a retry against
		// state that won't be there; the honest answer is session-lost.
		io.Copy(io.Discard, resp.Body)
		g.writeSessionLost(w, id, name, known.fingerprint, fmt.Errorf("node %q unavailable: %s", name, resp.Status))
		return
	}
	if resp.StatusCode == http.StatusGone {
		// Node-side tombstone (expired/closed): relay its structured body,
		// drop our tracking entry.
		g.sessions.drop(id)
	}
	relayStream(w, resp)
}

// handleSessionProxy forwards GET/DELETE of one session to its owner with
// the same no-failover session-lost contract as steps.
func (g *Gateway) handleSessionProxy(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	name, rest, ok := strings.Cut(id, "~")
	if !ok {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("fleet: session ID %q is not namespaced (want node~id)", id))
		return
	}
	known, tracked := g.sessions.get(id)
	base, found := g.members.URL(name)
	if !found {
		g.writeSessionLost(w, id, name, known.fingerprint, fmt.Errorf("node %q is no longer registered", name))
		return
	}
	resp, err := g.forward(r, r.Method, base+"/v1/sessions/"+rest, nil)
	if err != nil {
		g.failCounter(name).Inc()
		g.members.ReportFailure(name, err)
		g.writeSessionLost(w, id, name, known.fingerprint, err)
		return
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		writeErr(w, http.StatusBadGateway, fmt.Errorf("fleet: node %s: %w", name, err))
		return
	}
	if resp.StatusCode == http.StatusNotFound && tracked {
		g.writeSessionLost(w, id, name, known.fingerprint, fmt.Errorf("node %q lost its session state (restart?)", name))
		return
	}
	if resp.StatusCode == http.StatusServiceUnavailable {
		g.writeSessionLost(w, id, name, known.fingerprint, fmt.Errorf("node %q unavailable: %s", name, resp.Status))
		return
	}
	if r.Method == http.MethodDelete && (resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusGone) {
		g.sessions.drop(id)
	}
	relay(w, resp, respBody)
}

// gatewaySessionListEntry is one row of the gateway's session inventory.
type gatewaySessionListEntry struct {
	ID          string `json:"id"`
	Node        string `json:"node"`
	Fingerprint string `json:"fingerprint"`
}

// handleSessionList reports the gateway's tracked sessions (its routing
// view — the nodes own the authoritative state).
func (g *Gateway) handleSessionList(w http.ResponseWriter, r *http.Request) {
	entries := g.sessions.list()
	out := make([]gatewaySessionListEntry, len(entries))
	for i, e := range entries {
		out[i] = gatewaySessionListEntry{ID: e.id, Node: e.node, Fingerprint: e.fingerprint}
	}
	writeJSON(w, http.StatusOK, map[string]any{"sessions": out})
}

// handleBatch routes a batched solve exactly like a single solve: by the
// shared matrix fingerprint, one queue slot on the owner, job ID namespaced
// for status polls through the gateway.
func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !g.acquire(w) {
		return
	}
	defer g.inflight.Add(-1)
	var req service.BatchRequest
	body, key, owners, ok := g.route(w, r, &req, &req.SolverSpec)
	if !ok {
		return
	}
	start := time.Now()
	var lastErr error
	for i, name := range owners {
		if i > 0 {
			g.failovers.Inc()
		}
		base, ok := g.members.URL(name)
		if !ok {
			continue
		}
		g.routeCounter(name).Inc()
		resp, err := g.forward(r, http.MethodPost, base+"/v1/batch", body)
		if err != nil {
			g.failCounter(name).Inc()
			g.members.ReportFailure(name, err)
			lastErr = err
			continue
		}
		respBody, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
		resp.Body.Close()
		if err != nil {
			g.failCounter(name).Inc()
			lastErr = err
			continue
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			g.batchSubmits.Inc()
			g.forwardHist.Observe(time.Since(start).Seconds())
			var sv submitView
			if err := json.Unmarshal(respBody, &sv); err != nil || sv.JobID == "" {
				relay(w, resp, respBody)
				return
			}
			sv.JobID = name + "~" + sv.JobID
			sv.StatusURL = "/v1/jobs/" + sv.JobID
			sv.Node = name
			sv.Fingerprint = key
			w.Header().Set("Location", sv.StatusURL)
			writeJSON(w, http.StatusAccepted, sv)
			return
		case http.StatusTooManyRequests:
			g.submit429.Inc()
			if ra := resp.Header.Get("Retry-After"); ra != "" {
				w.Header().Set("Retry-After", ra)
			}
			relay(w, resp, respBody)
			return
		case http.StatusUnprocessableEntity:
			g.submit422.Inc()
			relay(w, resp, respBody)
			return
		case http.StatusServiceUnavailable:
			g.failCounter(name).Inc()
			g.members.ReportFailure(name, fmt.Errorf("batch: %s", resp.Status))
			lastErr = fmt.Errorf("node %s: %s", name, resp.Status)
			continue
		default:
			relay(w, resp, respBody)
			return
		}
	}
	g.noNodes.Inc()
	if lastErr == nil {
		lastErr = fmt.Errorf("fleet: no owner accepted the batch")
	}
	writeErr(w, http.StatusServiceUnavailable, fmt.Errorf("fleet: all owners failed: %w", lastErr))
}

// relayStream copies an upstream response to the client as it arrives,
// flushing after every chunk — the streaming analogue of relay for SSE and
// chunked-JSON step responses, where buffering until EOF would defeat the
// live residual feed.
func relayStream(w http.ResponseWriter, resp *http.Response) {
	for _, h := range []string{"Content-Type", "Cache-Control", "X-Accel-Buffering", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return // client gone: the node finishes the step regardless
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}
