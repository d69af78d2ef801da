package fleet

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// switchableNode is a /readyz endpoint whose health can be flipped;
// probes counts the requests it has answered.
type switchableNode struct {
	ts     *httptest.Server
	down   atomic.Bool
	probes atomic.Int64
}

func newSwitchableNode(t *testing.T) *switchableNode {
	t.Helper()
	n := &switchableNode{}
	n.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.probes.Add(1)
		if n.down.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(n.ts.Close)
	return n
}

func TestMembershipRegisterValidation(t *testing.T) {
	m := NewMembership(MembershipConfig{}, nil)
	if err := m.Register("n0", "http://127.0.0.1:1"); err != nil {
		t.Fatalf("register: %v", err)
	}
	if err := m.Register("n0", "http://127.0.0.1:2"); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := m.Register("bad~name", "http://127.0.0.1:3"); err == nil {
		t.Error("name with reserved '~' accepted")
	}
	if err := m.Register("n1", "not a url"); err == nil {
		t.Error("invalid URL accepted")
	}
	if m.Ring().Len() != 1 {
		t.Errorf("ring has %d members, want 1", m.Ring().Len())
	}
	if err := m.Deregister("n0"); err != nil {
		t.Fatalf("deregister: %v", err)
	}
	if err := m.Deregister("n0"); err == nil {
		t.Error("double deregister accepted")
	}
	if m.Ring().Len() != 0 {
		t.Errorf("ring has %d members after deregister, want 0", m.Ring().Len())
	}
}

// TestMembershipEjectAndReadmit drives the probe loop by hand: a node that
// starts failing its readiness probe is ejected after FailAfter rounds and
// re-admitted after ReviveAfter healthy rounds; the other node never
// leaves the ring.
func TestMembershipEjectAndReadmit(t *testing.T) {
	a, b := newSwitchableNode(t), newSwitchableNode(t)
	m := NewMembership(MembershipConfig{FailAfter: 2, ReviveAfter: 2}, nil)
	for name, n := range map[string]*switchableNode{"a": a, "b": b} {
		if err := m.Register(name, n.ts.URL); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.HealthyCount(); got != 2 {
		t.Fatalf("healthy = %d after optimistic admission, want 2", got)
	}

	b.down.Store(true)
	m.ProbeOnce()
	if got := m.HealthyCount(); got != 2 {
		t.Fatalf("healthy = %d after 1 failed probe (FailAfter=2), want 2", got)
	}
	m.ProbeOnce()
	if got := m.HealthyCount(); got != 1 {
		t.Fatalf("healthy = %d after 2 failed probes, want 1", got)
	}
	if _, ok := m.Ring().Owner("some-key"); !ok {
		t.Fatal("ring empty after single ejection")
	}
	if owner, _ := m.Ring().Owner("any"); owner != "a" {
		t.Fatalf("survivor ring routes to %q, want a", owner)
	}
	// Ejected nodes stay resolvable for status polls.
	if _, ok := m.URL("b"); !ok {
		t.Fatal("ejected node's URL no longer resolvable")
	}

	b.down.Store(false)
	m.ProbeOnce()
	if got := m.HealthyCount(); got != 1 {
		t.Fatalf("healthy = %d after 1 good probe (ReviveAfter=2), want 1", got)
	}
	m.ProbeOnce()
	if got := m.HealthyCount(); got != 2 {
		t.Fatalf("healthy = %d after recovery, want 2", got)
	}

	views := m.Nodes()
	if len(views) != 2 || !views[0].Healthy || !views[1].Healthy {
		t.Fatalf("node views after recovery: %+v", views)
	}
}

// TestMembershipReportFailure verifies the gateway's in-band failure
// signal ejects a node without waiting for the probe loop.
func TestMembershipReportFailure(t *testing.T) {
	a := newSwitchableNode(t)
	m := NewMembership(MembershipConfig{FailAfter: 2, ReviveAfter: 1}, nil)
	if err := m.Register("a", a.ts.URL); err != nil {
		t.Fatal(err)
	}
	m.ReportFailure("a", nil)
	m.ReportFailure("a", nil)
	if got := m.HealthyCount(); got != 0 {
		t.Fatalf("healthy = %d after 2 reported failures, want 0", got)
	}
	// The node is actually fine (transient network blip): one good probe
	// round re-admits it at ReviveAfter=1.
	m.ProbeOnce()
	if got := m.HealthyCount(); got != 1 {
		t.Fatalf("healthy = %d after good probe, want 1", got)
	}
	// Unknown names are ignored, not a panic.
	m.ReportFailure("ghost", nil)
}

// TestMembershipProbeLoop exercises Start/Stop with a real ticker.
func TestMembershipProbeLoop(t *testing.T) {
	a := newSwitchableNode(t)
	m := NewMembership(MembershipConfig{ProbeInterval: 5 * time.Millisecond, FailAfter: 2, ReviveAfter: 2}, nil)
	if err := m.Register("a", a.ts.URL); err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Stop()

	a.down.Store(true)
	deadline := time.Now().Add(3 * time.Second)
	for m.HealthyCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("node not ejected by the probe loop")
		}
		time.Sleep(2 * time.Millisecond)
	}
	a.down.Store(false)
	for m.HealthyCount() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("node not re-admitted by the probe loop")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestGatewayCloseStopsProbeLoop: Close on a gateway that was never
// started returns (there is no probe loop to wait for), and Close after
// Start returns only once the loop has exited, so no probe lands after it.
func TestGatewayCloseStopsProbeLoop(t *testing.T) {
	closed := make(chan struct{})
	go func() {
		NewGateway(GatewayConfig{}).Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close on an unstarted gateway did not return")
	}

	a := newSwitchableNode(t)
	g := NewGateway(GatewayConfig{Membership: MembershipConfig{ProbeInterval: time.Millisecond}})
	if err := g.Membership().Register("a", a.ts.URL); err != nil {
		t.Fatal(err)
	}
	g.Start()
	deadline := time.Now().Add(3 * time.Second)
	for a.probes.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("probe loop never probed the node")
		}
		time.Sleep(time.Millisecond)
	}
	g.Close()
	n := a.probes.Load()
	time.Sleep(20 * time.Millisecond)
	if got := a.probes.Load(); got != n {
		t.Errorf("%d probes landed after Close returned", got-n)
	}
	g.Start() // a stopped membership does not restart
	time.Sleep(20 * time.Millisecond)
	if got := a.probes.Load(); got != n {
		t.Errorf("Start after Close probed %d more times", got-n)
	}
}
