package fleet

import (
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
)

// MembershipConfig configures node registration and health probing. Zero
// values select the defaults.
type MembershipConfig struct {
	// ProbeInterval is the period of the health-probe loop (default 500ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one GET /readyz probe (default 2s).
	ProbeTimeout time.Duration
	// FailAfter ejects a node after this many consecutive probe (or
	// forwarding) failures (default 2).
	FailAfter int
	// ReviveAfter re-admits an ejected node after this many consecutive
	// probe successes (default 2).
	ReviveAfter int
	// Replicas is the ring's virtual-node count per member (default
	// DefaultReplicas).
	Replicas int
	// Client issues the probes (default: a client honoring ProbeTimeout).
	Client *http.Client
}

func (c MembershipConfig) withDefaults() MembershipConfig {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 2
	}
	if c.ReviveAfter <= 0 {
		c.ReviveAfter = 2
	}
	if c.Replicas <= 0 {
		c.Replicas = DefaultReplicas
	}
	return c
}

// node is one registered member and its health bookkeeping.
type node struct {
	name string
	url  string // base URL, no trailing slash

	healthy    bool
	consecFail int
	consecOK   int
	lastProbe  time.Time
	lastErr    string

	probeFails  *metrics.Counter
	ejections   *metrics.Counter
	readmits    *metrics.Counter
	healthGauge *metrics.Gauge
}

// NodeView is the serializable state of one member (the GET /v1/nodes
// payload element).
type NodeView struct {
	Name    string `json:"name"`
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	// ConsecutiveFailures / ConsecutiveSuccesses are the probe streaks the
	// eject / re-admit thresholds compare against.
	ConsecutiveFailures  int       `json:"consecutive_failures"`
	ConsecutiveSuccesses int       `json:"consecutive_successes"`
	LastProbe            time.Time `json:"last_probe,omitzero"`
	LastError            string    `json:"last_error,omitempty"`
}

// Membership tracks the registered nodes, probes their readiness, and
// keeps the consistent-hash ring equal to the healthy subset. The ring
// rebalance is deterministic: it is a pure function of which nodes are
// healthy, never of probe timing.
type Membership struct {
	cfg    MembershipConfig
	ring   *Ring
	client *http.Client
	reg    *metrics.Registry

	mu    sync.Mutex
	nodes map[string]*node

	// startOnce hands the probe loop's lifetime to whichever of Start and
	// Stop runs first: Start launches the loop, which closes done on exit;
	// a Stop that comes first closes done itself and leaves no loop to run.
	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewMembership creates an empty membership whose per-node health
// counters register into reg (nil: a private registry). Call Start to
// begin probing.
func NewMembership(cfg MembershipConfig, reg *metrics.Registry) *Membership {
	cfg = cfg.withDefaults()
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: cfg.ProbeTimeout}
	}
	return &Membership{
		cfg:    cfg,
		ring:   NewRing(cfg.Replicas),
		client: client,
		reg:    reg,
		nodes:  make(map[string]*node),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Ring exposes the healthy-set ring (shared, live — the gateway routes
// against it directly).
func (m *Membership) Ring() *Ring { return m.ring }

// Register adds a node by name and base URL and admits it to the ring
// optimistically: a dead node is ejected after FailAfter failed probes,
// and the gateway's forwarding failover covers the window in between.
func (m *Membership) Register(name, baseURL string) error {
	if err := validateNodeName(name); err != nil {
		return err
	}
	u, err := url.Parse(baseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return fmt.Errorf("fleet: node %s: invalid base URL %q", name, baseURL)
	}
	base := u.Scheme + "://" + u.Host + u.Path
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.nodes[name]; ok {
		return fmt.Errorf("fleet: node %s already registered", name)
	}
	n := &node{
		name:        name,
		url:         base,
		healthy:     true,
		probeFails:  m.reg.Counter("fleet_probe_failures_total", "Failed readiness probes per node.", "node", name),
		ejections:   m.reg.Counter("fleet_ejections_total", "Times a node was ejected from the ring.", "node", name),
		readmits:    m.reg.Counter("fleet_readmissions_total", "Times an ejected node was re-admitted.", "node", name),
		healthGauge: m.reg.Gauge("fleet_node_healthy", "1 while the node is in the ring, else 0.", "node", name),
	}
	n.healthGauge.Set(1)
	m.nodes[name] = n
	m.ring.Add(name)
	return nil
}

// Deregister removes a node entirely (ring and registry of members).
func (m *Membership) Deregister(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.nodes[name]
	if !ok {
		return fmt.Errorf("fleet: unknown node %q", name)
	}
	n.healthGauge.Set(0)
	delete(m.nodes, name)
	m.ring.Remove(name)
	return nil
}

// URL returns the base URL of a registered node (healthy or not — status
// polls for accepted jobs still route to ejected nodes while reachable).
func (m *Membership) URL(name string) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.nodes[name]
	if !ok {
		return "", false
	}
	return n.url, true
}

// Nodes returns the members sorted by name.
func (m *Membership) Nodes() []NodeView {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]NodeView, 0, len(m.nodes))
	for _, n := range m.nodes {
		out = append(out, NodeView{
			Name:                 n.name,
			URL:                  n.url,
			Healthy:              n.healthy,
			ConsecutiveFailures:  n.consecFail,
			ConsecutiveSuccesses: n.consecOK,
			LastProbe:            n.lastProbe,
			LastError:            n.lastErr,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// HealthyCount returns how many members are currently in the ring.
func (m *Membership) HealthyCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := 0
	for _, n := range m.nodes {
		if n.healthy {
			c++
		}
	}
	return c
}

// ReportFailure records a forwarding failure against a node — the
// gateway's in-band health signal. It counts toward the same consecutive-
// failure streak as probe failures, so a node that drops mid-burst is
// ejected without waiting for the probe loop to notice.
func (m *Membership) ReportFailure(name string, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.nodes[name]
	if !ok {
		return
	}
	msg := "forwarding failure"
	if err != nil {
		msg = err.Error()
	}
	m.recordFailureLocked(n, msg)
}

// Start launches the probe loop. Stop terminates it; a Start after Stop,
// or a second Start, does nothing.
func (m *Membership) Start() {
	m.startOnce.Do(func() {
		go func() {
			defer close(m.done)
			t := time.NewTicker(m.cfg.ProbeInterval)
			defer t.Stop()
			for {
				select {
				case <-m.stop:
					return
				case <-t.C:
					m.ProbeOnce()
				}
			}
		}()
	})
}

// Stop terminates the probe loop and waits for it to exit. On a
// membership that was never started it returns at once.
func (m *Membership) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.startOnce.Do(func() { close(m.done) })
	<-m.done
}

// ProbeOnce probes every member once, concurrently, and applies the
// eject/re-admit thresholds. Exported so tests (and the gateway's
// readiness handler) can force a synchronous round.
func (m *Membership) ProbeOnce() {
	m.mu.Lock()
	targets := make([]*node, 0, len(m.nodes))
	for _, n := range m.nodes {
		targets = append(targets, n)
	}
	m.mu.Unlock()

	var wg sync.WaitGroup
	for _, n := range targets {
		wg.Add(1)
		go func(n *node) {
			defer wg.Done()
			err := m.probe(n.url)
			m.mu.Lock()
			defer m.mu.Unlock()
			// The node may have been deregistered while the probe flew.
			if m.nodes[n.name] != n {
				return
			}
			n.lastProbe = time.Now()
			if err != nil {
				m.recordFailureLocked(n, err.Error())
				return
			}
			n.lastErr = ""
			n.consecFail = 0
			n.consecOK++
			if !n.healthy && n.consecOK >= m.cfg.ReviveAfter {
				n.healthy = true
				n.healthGauge.Set(1)
				n.readmits.Inc()
				m.ring.Add(n.name)
			}
		}(n)
	}
	wg.Wait()
}

// probe checks one node's readiness: GET /readyz must answer 200. A
// draining node answers 503 there (while staying alive on /healthz), so
// it leaves the ring before its listener goes away.
func (m *Membership) probe(base string) error {
	resp, err := m.client.Get(base + "/readyz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("readyz: %s", resp.Status)
	}
	return nil
}

// recordFailureLocked applies one failure to a node's streak and ejects
// at the threshold. Callers hold m.mu.
func (m *Membership) recordFailureLocked(n *node, msg string) {
	n.lastErr = msg
	n.consecOK = 0
	n.consecFail++
	n.probeFails.Inc()
	if n.healthy && n.consecFail >= m.cfg.FailAfter {
		n.healthy = false
		n.healthGauge.Set(0)
		n.ejections.Inc()
		m.ring.Remove(n.name)
	}
}
