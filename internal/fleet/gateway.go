package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/service"
)

// GatewayConfig configures a Gateway. Zero values select the defaults.
type GatewayConfig struct {
	// Membership configures registration and health probing.
	Membership MembershipConfig
	// MaxInflight bounds concurrently forwarded solve submissions; beyond
	// it the gateway sheds with its own 429 (default 256).
	MaxInflight int
	// FailoverTries is how many distinct ring owners a solve is offered to
	// when forwarding fails at the transport level or hits a draining node
	// (default 2). A node's 429 is never failed over: the owner is alive,
	// and spilling its keys elsewhere would wreck cache affinity.
	FailoverTries int
	// ForwardTimeout bounds one forwarded request (default 60s — a solve
	// submission returns 202 immediately, so this is generous).
	ForwardTimeout time.Duration
	// Client issues the forwards (default: a client honoring
	// ForwardTimeout).
	Client *http.Client
}

func (c GatewayConfig) withDefaults() GatewayConfig {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 256
	}
	if c.FailoverTries <= 0 {
		c.FailoverTries = 2
	}
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = 60 * time.Second
	}
	return c
}

// Gateway routes /v1/solve traffic across the fleet by consistent hashing
// on the matrix fingerprint, so every matrix lands on the node whose plan
// and tune caches already hold it. It owns the membership (registration +
// health probing) and exposes per-node routing, health and shed counters
// at /metricsz.
type Gateway struct {
	cfg      GatewayConfig
	members  *Membership
	reg      *metrics.Registry
	resolver *keyResolver
	sessions *sessionRegistry
	client   *http.Client

	inflight atomic.Int64

	shed            *metrics.Counter
	noNodes         *metrics.Counter
	failovers       *metrics.Counter
	submitOK        *metrics.Counter
	submit429       *metrics.Counter
	submit422       *metrics.Counter
	badRequests     *metrics.Counter
	sessionsCreated *metrics.Counter
	sessionSteps    *metrics.Counter
	sessionLost     *metrics.Counter
	batchSubmits    *metrics.Counter
	forwardHist     *metrics.Histogram
	routeCounter    func(node string) *metrics.Counter
	failCounter     func(node string) *metrics.Counter
}

// NewGateway creates a gateway with an empty membership. Register nodes,
// then Start the health probes.
func NewGateway(cfg GatewayConfig) *Gateway {
	cfg = cfg.withDefaults()
	reg := metrics.NewRegistry()
	g := &Gateway{
		cfg:      cfg,
		members:  NewMembership(cfg.Membership, reg),
		reg:      reg,
		resolver: newKeyResolver(),
		sessions: newSessionRegistry(),
		client:   cfg.Client,
	}
	if g.client == nil {
		// The default transport keeps only 2 idle connections per host;
		// at fleet rates that churns a TCP connection per forward and the
		// gateway becomes the bottleneck. Keep a deep idle pool per node.
		g.client = &http.Client{
			Timeout: cfg.ForwardTimeout,
			Transport: &http.Transport{
				MaxIdleConns:        1024,
				MaxIdleConnsPerHost: 256,
				IdleConnTimeout:     90 * time.Second,
			},
		}
	}
	g.shed = reg.Counter("gateway_shed_total", "Solves shed with the gateway's own 429 (inflight cap).")
	g.noNodes = reg.Counter("gateway_no_nodes_total", "Solves refused because no healthy node was available.")
	g.failovers = reg.Counter("gateway_failovers_total", "Solves retried on a successor owner after the preferred node failed.")
	g.submitOK = reg.Counter("gateway_submits_total", "Solves accepted by a node (202).")
	g.submit429 = reg.Counter("gateway_node_429_total", "Node 429s propagated upstream with their Retry-After.")
	g.submit422 = reg.Counter("gateway_cert_rejects_total", "Certified-divergent 422s relayed verbatim (never failed over).")
	g.badRequests = reg.Counter("gateway_bad_requests_total", "Solve submissions rejected before routing (body or matrix).")
	g.sessionsCreated = reg.Counter("gateway_sessions_created_total", "Solve sessions created through the gateway (201).")
	g.sessionSteps = reg.Counter("gateway_session_steps_total", "Session steps forwarded to their pinned owner.")
	g.sessionLost = reg.Counter("gateway_session_lost_total", "Session operations answered 410 session-lost (owner dead or state gone).")
	g.batchSubmits = reg.Counter("gateway_batch_submits_total", "Batched solves accepted by a node (202).")
	g.forwardHist = reg.Histogram("gateway_forward_seconds", "Latency of forwarded solve submissions.", nil)
	g.routeCounter = func(node string) *metrics.Counter {
		return reg.Counter("gateway_node_requests_total", "Requests forwarded per node.", "node", node)
	}
	g.failCounter = func(node string) *metrics.Counter {
		return reg.Counter("gateway_node_failures_total", "Forwarding failures per node (transport errors and 5xx).", "node", node)
	}
	reg.GaugeFunc("gateway_inflight", "Solve submissions currently being forwarded.",
		func() float64 { return float64(g.inflight.Load()) })
	reg.GaugeFunc("gateway_max_inflight", "Inflight bound beyond which the gateway sheds.",
		func() float64 { return float64(cfg.MaxInflight) })
	reg.GaugeFunc("gateway_nodes", "Registered nodes.",
		func() float64 { return float64(len(g.members.Nodes())) })
	reg.GaugeFunc("gateway_healthy_nodes", "Nodes currently in the ring.",
		func() float64 { return float64(g.members.HealthyCount()) })
	reg.GaugeFunc("gateway_tracked_sessions", "Sessions in the gateway's routing registry.",
		func() float64 { return float64(g.sessions.len()) })
	return g
}

// Membership exposes the gateway's member set (registration, probing).
func (g *Gateway) Membership() *Membership { return g.members }

// Metrics exposes the gateway's registry (the /metricsz source).
func (g *Gateway) Metrics() *metrics.Registry { return g.reg }

// Start launches the health-probe loop; Close stops it.
func (g *Gateway) Start() { g.members.Start() }

// Close stops the health-probe loop.
func (g *Gateway) Close() { g.members.Stop() }

// gatewayStats is the gateway's /statsz payload.
type gatewayStats struct {
	Nodes        []NodeView `json:"nodes"`
	HealthyNodes int        `json:"healthy_nodes"`
	Inflight     int64      `json:"inflight"`
	MaxInflight  int        `json:"max_inflight"`
	Shed         uint64     `json:"shed"`
	Failovers    uint64     `json:"failovers"`
	Submits      uint64     `json:"submits"`
	Node429      uint64     `json:"node_429"`
	CertRejects  uint64     `json:"cert_rejects"`
	// Sessions/SessionSteps/SessionsLost/Batches mirror the gateway's
	// session and batch counters (same atomics as /metricsz).
	Sessions        uint64 `json:"sessions_created"`
	SessionSteps    uint64 `json:"session_steps"`
	SessionsLost    uint64 `json:"sessions_lost"`
	TrackedSessions int    `json:"tracked_sessions"`
	Batches         uint64 `json:"batches"`
}

// registerRequest is the POST /v1/nodes body.
type registerRequest struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// Handler returns the gateway's HTTP API:
//
//	POST   /v1/solve        route a solve to its ring owner (202; job IDs
//	                        come back namespaced "node~id")
//	POST   /v1/batch        route a batched solve the same way (one job)
//	POST   /v1/sessions     route a session to its fingerprint's owner and
//	                        pin it there (201; session IDs namespaced
//	                        "node~id")
//	GET    /v1/sessions     the gateway's tracked-session inventory
//	GET    /v1/sessions/{id}     proxy to the pinned owner (410
//	DELETE /v1/sessions/{id}     session-lost when the owner died)
//	POST   /v1/sessions/{id}/step  forward a step, relaying SSE/chunked
//	                        progress as it streams; never failed over
//	GET    /v1/jobs/{id}    proxy a namespaced job status to its node
//	DELETE /v1/jobs/{id}    proxy a cancellation
//	GET    /v1/nodes        membership with health state
//	POST   /v1/nodes        register a node {"name": ..., "url": ...}
//	DELETE /v1/nodes/{name} deregister a node
//	GET    /healthz         gateway liveness
//	GET    /readyz          200 while at least one node is healthy
//	GET    /statsz          routing/health/shed summary (JSON)
//	GET    /metricsz        the same counters in Prometheus text format
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", g.handleSolve)
	mux.HandleFunc("POST /v1/batch", g.handleBatch)
	mux.HandleFunc("POST /v1/sessions", g.handleSessionCreate)
	mux.HandleFunc("GET /v1/sessions", g.handleSessionList)
	mux.HandleFunc("GET /v1/sessions/{id}", g.handleSessionProxy)
	mux.HandleFunc("DELETE /v1/sessions/{id}", g.handleSessionProxy)
	mux.HandleFunc("POST /v1/sessions/{id}/step", g.handleSessionStep)
	mux.HandleFunc("GET /v1/jobs/{id}", g.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", g.handleJob)
	mux.HandleFunc("GET /v1/nodes", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"nodes":         g.members.Nodes(),
			"healthy_nodes": g.members.HealthyCount(),
		})
	})
	mux.HandleFunc("POST /v1/nodes", func(w http.ResponseWriter, r *http.Request) {
		var req registerRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("fleet: decoding register request: %w", err))
			return
		}
		if err := g.members.Register(req.Name, req.URL); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]string{"status": "registered", "name": req.Name})
	})
	mux.HandleFunc("DELETE /v1/nodes/{name}", func(w http.ResponseWriter, r *http.Request) {
		if err := g.members.Deregister(r.PathValue("name")); err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "deregistered"})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if g.members.HealthyCount() == 0 {
			writeErr(w, http.StatusServiceUnavailable, fmt.Errorf("fleet: no healthy nodes"))
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	mux.HandleFunc("GET /statsz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, gatewayStats{
			Nodes:        g.members.Nodes(),
			HealthyNodes: g.members.HealthyCount(),
			Inflight:     g.inflight.Load(),
			MaxInflight:  g.cfg.MaxInflight,
			Shed:         g.shed.Value(),
			Failovers:    g.failovers.Value(),
			Submits:      g.submitOK.Value(),
			Node429:      g.submit429.Value(),
			CertRejects:  g.submit422.Value(),

			Sessions:        g.sessionsCreated.Value(),
			SessionSteps:    g.sessionSteps.Value(),
			SessionsLost:    g.sessionLost.Value(),
			TrackedSessions: g.sessions.len(),
			Batches:         g.batchSubmits.Value(),
		})
	})
	mux.Handle("GET /metricsz", g.reg.Handler())
	return mux
}

// submitView mirrors the node's submit response so the gateway can
// namespace the job ID before echoing it upstream.
type submitView struct {
	JobID     string `json:"job_id"`
	State     string `json:"state"`
	StatusURL string `json:"status_url"`
	// Node is the fleet member that accepted the job (gateway-added).
	Node string `json:"node,omitempty"`
	// Fingerprint is the routing key the gateway placed the job by
	// (gateway-added; compare with the fingerprint in the job result to
	// verify ring placement).
	Fingerprint string `json:"fingerprint,omitempty"`
}

// acquire takes an in-flight slot for a submission, or sheds it with a
// 429 when the gateway is saturated: admission comes first, so shedding
// here is cheap and protects the fleet (and the gateway's own memory).
// The caller releases a taken slot with g.inflight.Add(-1).
func (g *Gateway) acquire(w http.ResponseWriter) bool {
	if g.inflight.Add(1) > int64(g.cfg.MaxInflight) {
		g.inflight.Add(-1)
		g.shed.Inc()
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, fmt.Errorf("fleet: gateway saturated (%d in flight)", g.cfg.MaxInflight))
		return false
	}
	return true
}

// maxRequestBytes bounds a request body the gateway reads, at the node's
// own bound.
const maxRequestBytes = 256 << 20

// route reads a submission body (solve, session create or batch), decodes
// it into req and resolves the routing key from spec, req's embedded
// SolverSpec, to the key's ring owners in failover order. On failure it
// writes the error response and reports false.
func (g *Gateway) route(w http.ResponseWriter, r *http.Request, req any, spec *service.SolverSpec) (body []byte, key string, owners []string, ok bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		g.badRequests.Inc()
		writeErr(w, service.ReadErrorStatus(err), fmt.Errorf("fleet: reading request: %w", err))
		return nil, "", nil, false
	}
	if err := json.Unmarshal(body, req); err != nil {
		g.badRequests.Inc()
		writeErr(w, http.StatusBadRequest, fmt.Errorf("fleet: decoding request: %w", err))
		return nil, "", nil, false
	}
	if key, err = g.resolver.RouteKey(*spec); err != nil {
		g.badRequests.Inc()
		writeErr(w, http.StatusBadRequest, err)
		return nil, "", nil, false
	}
	if owners = g.members.Ring().Owners(key, g.cfg.FailoverTries); len(owners) == 0 {
		g.noNodes.Inc()
		writeErr(w, http.StatusServiceUnavailable, fmt.Errorf("fleet: no healthy nodes"))
		return nil, "", nil, false
	}
	return body, key, owners, true
}

// handleSolve is the hot path: admission, routing, forwarding, rewrite.
func (g *Gateway) handleSolve(w http.ResponseWriter, r *http.Request) {
	if !g.acquire(w) {
		return
	}
	defer g.inflight.Add(-1)
	var req service.SolveRequest
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
			continue // deregistered between lookup and forward
		}
		g.routeCounter(name).Inc()
		resp, err := g.forward(r, http.MethodPost, base+"/v1/solve", body)
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
		switch {
		case resp.StatusCode == http.StatusAccepted:
			g.submitOK.Inc()
			g.forwardHist.Observe(time.Since(start).Seconds())
			var sv submitView
			if err := json.Unmarshal(respBody, &sv); err != nil || sv.JobID == "" {
				// The node accepted but answered something unexpected;
				// relay it untouched rather than inventing an ID.
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
		case resp.StatusCode == http.StatusTooManyRequests:
			// The owner is alive but saturated: propagate its 429 and
			// Retry-After rather than spilling the key to another node —
			// affinity is the whole point of the ring, and the client's
			// backoff is the fleet's admission control.
			g.submit429.Inc()
			if ra := resp.Header.Get("Retry-After"); ra != "" {
				w.Header().Set("Retry-After", ra)
			}
			relay(w, resp, respBody)
			return
		case resp.StatusCode == http.StatusUnprocessableEntity:
			// A certified-divergent refusal (422 + certificate body) is
			// deterministic: every replica computes the same verdict from
			// the same matrix, so failing over to a successor owner only
			// wastes a node. Relay the certificate verbatim.
			g.submit422.Inc()
			relay(w, resp, respBody)
			return
		case resp.StatusCode == http.StatusServiceUnavailable:
			// Draining or overloaded listener: treat like a transport
			// failure and try the next owner.
			g.failCounter(name).Inc()
			g.members.ReportFailure(name, fmt.Errorf("solve: %s", resp.Status))
			lastErr = fmt.Errorf("node %s: %s", name, resp.Status)
			continue
		default:
			// 4xx and everything else is the client's conversation with
			// the node; relay verbatim.
			relay(w, resp, respBody)
			return
		}
	}
	g.noNodes.Inc()
	if lastErr == nil {
		lastErr = fmt.Errorf("fleet: no owner accepted the job")
	}
	writeErr(w, http.StatusServiceUnavailable, fmt.Errorf("fleet: all owners failed: %w", lastErr))
}

// handleJob proxies a namespaced job status or cancellation to the owning
// node. Ejected nodes are still tried: a draining node answers status
// polls until its listener closes.
func (g *Gateway) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	name, rest, ok := strings.Cut(id, "~")
	if !ok {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("fleet: job ID %q is not namespaced (want node~id)", id))
		return
	}
	base, found := g.members.URL(name)
	if !found {
		writeErr(w, http.StatusNotFound, fmt.Errorf("fleet: unknown node %q in job ID", name))
		return
	}
	resp, err := g.forward(r, r.Method, base+"/v1/jobs/"+rest, nil)
	if err != nil {
		g.failCounter(name).Inc()
		writeErr(w, http.StatusBadGateway, fmt.Errorf("fleet: node %s: %w", name, err))
		return
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		writeErr(w, http.StatusBadGateway, fmt.Errorf("fleet: node %s: %w", name, err))
		return
	}
	relay(w, resp, respBody)
}

// forward issues one upstream request with the caller's context.
func (g *Gateway) forward(r *http.Request, method, url string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if h := r.Header.Get("X-Chaos"); h != "" {
		req.Header.Set("X-Chaos", h)
	}
	return g.client.Do(req)
}

// relay copies an upstream response (status, content type, body) to the
// client untouched.
func relay(w http.ResponseWriter, resp *http.Response, body []byte) {
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // client gone: nothing useful to do
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// RetryAfterSeconds parses a Retry-After header value (delta-seconds form
// only), defaulting to 1.
func RetryAfterSeconds(h string) int {
	n, err := strconv.Atoi(strings.TrimSpace(h))
	if err != nil || n < 1 {
		return 1
	}
	return n
}
