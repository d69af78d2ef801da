package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/service"
)

// FleetScenario is one fleet load-test row of the benchmark report: an
// in-process gateway + solver nodes driven by the open-loop harness.
// Additive schema field — baselines predating it simply lack fleet rows.
type FleetScenario struct {
	Name            string  `json:"name"`
	Nodes           int     `json:"nodes"`
	RatePerSec      float64 `json:"rate_per_sec"`
	DurationSeconds float64 `json:"duration_seconds"`

	Offered int `json:"offered"`
	// Accepted is how many submissions were admitted (202) fleet-wide —
	// the slot-capacity number the burst scenarios gate on.
	Accepted   int     `json:"accepted"`
	Completed  int     `json:"completed"`
	Shed       int     `json:"shed"`
	Errors     int     `json:"errors"`
	Throughput float64 `json:"throughput_jobs_per_sec"`
	ShedRate   float64 `json:"shed_rate"`
	E2EP50     float64 `json:"e2e_p50_seconds"`
	E2EP99     float64 `json:"e2e_p99_seconds"`

	// PlanHitRate aggregates plan-cache hits/(hits+misses) across every
	// node — the cache-affinity payoff consistent hashing exists for.
	PlanHitRate float64 `json:"plan_hit_rate"`
	// AffinityViolations counts accepted jobs whose matrix had already
	// been served by a different node (nonzero only across rebalances).
	AffinityViolations int `json:"affinity_violations"`
	// RingRestored reports whether, after the kill/revive cycle of a
	// rebalance scenario, every corpus key routed to its original owner
	// again (always true for steady-state scenarios).
	RingRestored bool `json:"ring_restored"`
}

// fleetParams sizes the fleet scenarios per suite mode.
type fleetParams struct {
	corpusSize   int
	minN, maxN   int
	duration     time.Duration
	workers      int
	queueDepth   int
	maxIters     int
	rateFactor   float64 // arrival rate as a multiple of one node's capacity
	probeEvery   time.Duration
	pollInterval time.Duration
}

func fleetSuiteParams(quick bool) fleetParams {
	// pollInterval is deliberately coarse: poll traffic scales with the
	// number of in-flight accepted jobs, which is 3× larger for the 3-node
	// fleet — tight polling taxes exactly the scenario under test.
	p := fleetParams{
		corpusSize:   18,
		minN:         32,
		maxN:         96,
		duration:     4 * time.Second,
		workers:      2,
		queueDepth:   16,
		maxIters:     400,
		rateFactor:   2.0,
		probeEvery:   15 * time.Millisecond,
		pollInterval: 20 * time.Millisecond,
	}
	if quick {
		p.corpusSize = 10
		p.maxN = 64
		p.duration = 2 * time.Second
	}
	return p
}

// fleetNode is one in-process solver behind a kill switch: while down,
// every request (probes included) answers 503 without reaching the
// service, the HTTP shape of a dead-but-port-bound node.
type fleetNode struct {
	name string
	svc  *service.Service
	ts   *httptest.Server
	down atomic.Bool
}

func bootFleet(p fleetParams, count int) (*fleet.Gateway, *httptest.Server, []*fleetNode, func(), error) {
	g := fleet.NewGateway(fleet.GatewayConfig{Membership: fleet.MembershipConfig{
		ProbeInterval: p.probeEvery,
		FailAfter:     2,
		ReviveAfter:   2,
	}})
	nodes := make([]*fleetNode, count)
	var closers []func()
	cleanup := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	for i := range nodes {
		n := &fleetNode{name: fmt.Sprintf("n%d", i)}
		n.svc = service.New(service.Config{
			Workers:    p.workers,
			QueueDepth: p.queueDepth,
			Cache:      service.CacheConfig{AnalyzeSpectrum: false},
		})
		inner := service.NewHandler(n.svc)
		n.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if n.down.Load() {
				http.Error(w, "node down", http.StatusServiceUnavailable)
				return
			}
			inner.ServeHTTP(w, r)
		}))
		nodes[i] = n
		closers = append(closers, func() {
			n.ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = n.svc.Shutdown(ctx)
		})
		if err := g.Membership().Register(n.name, n.ts.URL); err != nil {
			cleanup()
			return nil, nil, nil, nil, err
		}
	}
	g.Start()
	gw := httptest.NewServer(g.Handler())
	closers = append(closers, gw.Close, g.Close)
	return g, gw, nodes, cleanup, nil
}

// calibrateRate measures one solve end to end on a scratch node and sizes
// the open-loop arrival rate as rateFactor × one node's worker capacity,
// so the same scenario saturates a single node but not a 3-node fleet on
// any machine benchgate runs on.
func calibrateRate(p fleetParams, corpus []fleet.CorpusEntry) (float64, error) {
	_, gw, _, cleanup, err := bootFleet(p, 1)
	if err != nil {
		return 0, err
	}
	defer cleanup()
	start := time.Now()
	rep, err := fleet.RunLoad(context.Background(), fleet.LoadConfig{
		BaseURL:        gw.URL,
		Rate:           6,
		Duration:       800 * time.Millisecond,
		Corpus:         corpus,
		BlockSize:      16,
		LocalIters:     2,
		MaxGlobalIters: p.maxIters,
		Tolerance:      1e-6,
		// Calibration wants the true per-job time, so poll finely here;
		// the scenarios themselves poll coarsely (see fleetSuiteParams).
		PollInterval: 2 * time.Millisecond,
		Seed:         7,
	})
	if err != nil {
		return 0, err
	}
	if rep.Completed == 0 {
		return 0, fmt.Errorf("calibration run completed no jobs in %s", time.Since(start))
	}
	perJob := rep.E2EP50
	if perJob <= 0 {
		perJob = 0.001
	}
	capacity := float64(p.workers) / perJob
	rate := p.rateFactor * capacity
	if rate < 25 {
		rate = 25
	}
	if rate > 1500 {
		rate = 1500
	}
	return rate, nil
}

func runFleetScenario(name string, p fleetParams, nodeCount int, rate float64,
	corpus []fleet.CorpusEntry, chaos func(nodes []*fleetNode)) (FleetScenario, error) {
	g, gw, nodes, cleanup, err := bootFleet(p, nodeCount)
	if err != nil {
		return FleetScenario{}, err
	}
	defer cleanup()

	ownerBefore := make(map[string]string, len(corpus))
	for _, e := range corpus {
		ownerBefore[e.Fingerprint], _ = g.Membership().Ring().Owner(e.Fingerprint)
	}

	chaosDone := make(chan struct{})
	if chaos != nil {
		go func() { defer close(chaosDone); chaos(nodes) }()
	} else {
		close(chaosDone)
	}

	rep, err := fleet.RunLoad(context.Background(), fleet.LoadConfig{
		BaseURL:        gw.URL,
		Rate:           rate,
		Duration:       p.duration,
		Corpus:         corpus,
		BlockSize:      16,
		LocalIters:     2,
		MaxGlobalIters: p.maxIters,
		Tolerance:      1e-6,
		PollInterval:   p.pollInterval,
		Seed:           7,
	})
	if err != nil {
		return FleetScenario{}, err
	}
	<-chaosDone

	// After chaos, give the probe loop a beat to re-admit, then check the
	// ring returned to its pre-chaos placement.
	restored := true
	deadline := time.Now().Add(5 * time.Second)
	for {
		restored = true
		for fp, want := range ownerBefore {
			if got, _ := g.Membership().Ring().Owner(fp); got != want {
				restored = false
				break
			}
		}
		if restored || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	var hits, misses uint64
	for _, n := range nodes {
		cs := n.svc.Stats().PlanCache
		hits += cs.Hits
		misses += cs.Misses
	}
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}

	return FleetScenario{
		Name:               name,
		Nodes:              nodeCount,
		RatePerSec:         rate,
		DurationSeconds:    rep.DurationSeconds,
		Offered:            rep.Offered,
		Accepted:           rep.Accepted,
		Completed:          rep.Completed,
		Shed:               rep.Shed,
		Errors:             rep.Errors,
		Throughput:         rep.Throughput,
		ShedRate:           rep.ShedRate,
		E2EP50:             rep.E2EP50,
		E2EP99:             rep.E2EP99,
		PlanHitRate:        hitRate,
		AffinityViolations: rep.AffinityViolations,
		RingRestored:       restored,
	}, nil
}

// runBurst fires burst concurrent submissions at a freshly booted fleet
// and counts admissions. This is the machine-independent scaling
// measurement: admission capacity is worker + queue slots, which a 3-node
// fleet has 3× of regardless of how many CPU cores back the nodes (a
// single shared core caps *compute* scaling, but never slot scaling).
// Accepted jobs are then polled to a terminal state so the row's
// Completed/Errors columns gate like the others.
func runBurst(name string, p fleetParams, nodeCount, burst int, corpus []fleet.CorpusEntry) (FleetScenario, error) {
	_, gw, nodes, cleanup, err := bootFleet(p, nodeCount)
	if err != nil {
		return FleetScenario{}, err
	}
	defer cleanup()

	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        1024,
			MaxIdleConnsPerHost: 1024,
		},
	}
	type outcome struct {
		status    int
		statusURL string
	}
	results := make(chan outcome, burst)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		e := corpus[i%len(corpus)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			// No tolerance: the job runs its full iteration budget and still
			// finishes "done". Sized so every job far outlasts burst
			// delivery — otherwise slots recycle mid-burst and a single
			// node's admission count inflates past its slot capacity.
			body, _ := json.Marshal(map[string]any{
				"matrix_market":    e.MatrixMarket,
				"block_size":       16,
				"local_iters":      2,
				"max_global_iters": 30000,
			})
			resp, err := client.Post(gw.URL+"/v1/solve", "application/json", bytes.NewReader(body))
			if err != nil {
				results <- outcome{status: -1}
				return
			}
			var sv struct {
				StatusURL string `json:"status_url"`
			}
			_ = json.NewDecoder(resp.Body).Decode(&sv)
			resp.Body.Close()
			results <- outcome{status: resp.StatusCode, statusURL: sv.StatusURL}
		}()
	}
	wg.Wait()
	close(results)

	row := FleetScenario{Name: name, Nodes: nodeCount, Offered: burst, RingRestored: true}
	var statusURLs []string
	for r := range results {
		switch r.status {
		case http.StatusAccepted:
			row.Accepted++
			statusURLs = append(statusURLs, r.statusURL)
		case http.StatusTooManyRequests:
			row.Shed++
		default:
			row.Errors++
		}
	}
	row.DurationSeconds = time.Since(start).Seconds()
	row.ShedRate = float64(row.Shed) / float64(burst)

	var pollWG sync.WaitGroup
	var completed atomic.Int64
	for _, su := range statusURLs {
		pollWG.Add(1)
		go func(su string) {
			defer pollWG.Done()
			deadline := time.Now().Add(60 * time.Second)
			for time.Now().Before(deadline) {
				resp, err := client.Get(gw.URL + su)
				if err != nil {
					return
				}
				var v struct {
					State string `json:"state"`
				}
				_ = json.NewDecoder(resp.Body).Decode(&v)
				resp.Body.Close()
				if v.State == "done" {
					completed.Add(1)
					return
				}
				if v.State == "failed" || v.State == "canceled" {
					return
				}
				time.Sleep(p.pollInterval)
			}
		}(su)
	}
	pollWG.Wait()
	row.Completed = int(completed.Load())

	var hits, misses uint64
	for _, n := range nodes {
		cs := n.svc.Stats().PlanCache
		hits += cs.Hits
		misses += cs.Misses
	}
	if hits+misses > 0 {
		row.PlanHitRate = float64(hits) / float64(hits+misses)
	}
	return row, nil
}

// runFleetSuite measures the fleet scenarios and applies the
// baseline-independent gates (the scaling acceptance the subsystem was
// built for): a 3-node fleet must admit a strictly larger burst than one
// node (slot scaling — machine-independent), and with enough CPU cores to
// actually back the nodes it must also complete strictly more jobs per
// second under the identical open-loop arrival process (compute scaling).
// Cache affinity must not degrade with fleet size, and a mid-run node
// kill/revive must shed rather than error and leave the ring exactly as
// it found it. Returns the rows and the number of gate violations.
func runFleetSuite(quick bool, out io.Writer) ([]FleetScenario, int) {
	p := fleetSuiteParams(quick)
	corpus := fleet.BuildCorpus(p.corpusSize, p.minN, p.maxN)

	rate, err := calibrateRate(p, corpus)
	if err != nil {
		fmt.Fprintf(out, "benchgate: fleet calibration ERROR: %v\n", err)
		return nil, 1
	}
	fmt.Fprintf(out, "benchgate: fleet arrival rate %.0f req/s (%.1f× one node's capacity)\n", rate, p.rateFactor)

	killRevive := func(nodes []*fleetNode) {
		victim := nodes[len(nodes)-1]
		time.Sleep(p.duration / 3)
		victim.down.Store(true)
		time.Sleep(p.duration / 3)
		victim.down.Store(false)
	}

	type spec struct {
		name  string
		count int
		chaos func([]*fleetNode)
	}
	specs := []spec{
		{"fleet/1node", 1, nil},
		{"fleet/3node", 3, nil},
		{"fleet/3node-rebalance", 3, killRevive},
	}
	measure := func() ([]FleetScenario, error) {
		var rows []FleetScenario
		for _, s := range specs {
			row, err := runFleetScenario(s.name, p, s.count, rate, corpus, s.chaos)
			if err != nil {
				return rows, fmt.Errorf("fleet %s: %w", s.name, err)
			}
			fmt.Fprintf(out, "benchgate: %-22s %5.1f jobs/s  shed %4.1f%%  hit %4.1f%%  p99 %6.1fms  errors %d\n",
				s.name, row.Throughput, 100*row.ShedRate, 100*row.PlanHitRate, 1e3*row.E2EP99, row.Errors)
			rows = append(rows, row)
		}
		return rows, nil
	}
	// The throughput comparison is a measurement of a loaded system on a
	// shared machine; one re-measure on failure keeps the strict gate from
	// flaking without weakening it (a real scaling regression fails twice).
	scalingGateHolds := func(rows []FleetScenario) bool {
		byName := map[string]FleetScenario{}
		for _, r := range rows {
			byName[r.Name] = r
		}
		one, three := byName["fleet/1node"], byName["fleet/3node"]
		return three.Throughput > one.Throughput && three.PlanHitRate >= one.PlanHitRate-0.05
	}

	rows, err := measure()
	if err != nil {
		fmt.Fprintf(out, "benchgate: fleet ERROR: %v\n", err)
		return rows, 1
	}
	// The compute-scaling gate needs CPUs for the nodes to actually run
	// on: with fewer than 4 cores the harness, gateway and all nodes share
	// one execution resource and completion rate measures that resource,
	// not the fleet. The burst (slot-capacity) gate below holds on any
	// machine and carries the scaling acceptance there.
	gateCompute := runtime.NumCPU() >= 4
	if gateCompute && !scalingGateHolds(rows) {
		fmt.Fprintf(out, "benchgate: fleet scaling gate failed, re-measuring once\n")
		rerun, err := measure()
		if err != nil {
			fmt.Fprintf(out, "benchgate: fleet ERROR: %v\n", err)
			return rows, 1
		}
		rows = rerun
	}

	// Burst scenarios: one instantaneous burst sized to overrun a single
	// node's slots (workers + queue) threefold.
	burst := 3*(p.workers+p.queueDepth) + 12
	for _, bs := range []struct {
		name  string
		count int
	}{{"fleet/1node-burst", 1}, {"fleet/3node-burst", 3}} {
		row, err := runBurst(bs.name, p, bs.count, burst, corpus)
		if err != nil {
			fmt.Fprintf(out, "benchgate: fleet ERROR: %v\n", err)
			return rows, 1
		}
		fmt.Fprintf(out, "benchgate: %-22s admitted %d/%d  shed %4.1f%%  errors %d\n",
			bs.name, row.Accepted, row.Offered, 100*row.ShedRate, row.Errors)
		rows = append(rows, row)
	}

	byName := map[string]FleetScenario{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	one, three, reb := byName["fleet/1node"], byName["fleet/3node"], byName["fleet/3node-rebalance"]
	oneBurst, threeBurst := byName["fleet/1node-burst"], byName["fleet/3node-burst"]

	problems := 0
	if !(threeBurst.Accepted > oneBurst.Accepted) {
		fmt.Fprintf(out, "benchgate: REGRESSION fleet: 3 nodes admitted %d of a %d burst, 1 node admitted %d — slot capacity did not scale\n",
			threeBurst.Accepted, burst, oneBurst.Accepted)
		problems++
	}
	if gateCompute {
		if !(three.Throughput > one.Throughput) {
			fmt.Fprintf(out, "benchgate: REGRESSION fleet: 3 nodes (%.1f jobs/s) must out-complete 1 node (%.1f jobs/s)\n",
				three.Throughput, one.Throughput)
			problems++
		}
		if three.PlanHitRate < one.PlanHitRate-0.05 {
			fmt.Fprintf(out, "benchgate: REGRESSION fleet: 3-node plan-cache hit rate %.2f fell below 1-node %.2f — affinity broken\n",
				three.PlanHitRate, one.PlanHitRate)
			problems++
		}
	} else {
		fmt.Fprintf(out, "benchgate: fleet compute-scaling gate skipped (%d CPUs; needs >= 4 to back 3 nodes) — burst gate covers scaling\n",
			runtime.NumCPU())
	}
	for _, r := range rows {
		if r.Errors > 0 {
			fmt.Fprintf(out, "benchgate: REGRESSION fleet: %s had %d errors (shed is fine, errors are not)\n", r.Name, r.Errors)
			problems++
		}
		if r.Completed == 0 {
			fmt.Fprintf(out, "benchgate: REGRESSION fleet: %s completed nothing\n", r.Name)
			problems++
		}
	}
	if !reb.RingRestored {
		fmt.Fprintf(out, "benchgate: REGRESSION fleet: ring placement not restored after kill/revive\n")
		problems++
	}
	return rows, problems
}

// compareFleet gates current fleet rows against the baseline's. The
// scenarios measure a deliberately saturated system on a shared machine,
// so the time-like allowances are double the solver cases' (observed
// run-to-run spread under contention approaches 2×): p99 and (inverted)
// throughput tolerate 2×MaxTimeRegress, shed rate 30 points of absolute
// drift, and the plan-cache hit rate may not fall more than 10 points.
// Baselines without fleet rows gate nothing.
func compareFleet(base, current Report, lim Limits) []Problem {
	if base.SchemaVersion != current.SchemaVersion || base.Quick != current.Quick {
		return nil
	}
	now := map[string]FleetScenario{}
	for _, r := range current.Fleet {
		now[r.Name] = r
	}
	timeLimit := 2 * lim.MaxTimeRegress
	var out []Problem
	for _, b := range base.Fleet {
		c, ok := now[b.Name]
		if !ok {
			out = append(out, Problem{Case: b.Name, Metric: "coverage (fleet scenario missing from current run)"})
			continue
		}
		if b.E2EP99 > 0 && c.E2EP99 > b.E2EP99*(1+timeLimit) {
			out = append(out, Problem{Case: b.Name, Metric: "fleet e2e_p99_seconds",
				Base: b.E2EP99, Now: c.E2EP99, Limit: timeLimit})
		}
		if b.Throughput > 0 && c.Throughput > 0 &&
			b.Throughput/c.Throughput > 1+timeLimit {
			out = append(out, Problem{Case: b.Name, Metric: "fleet throughput (inverse)",
				Base: b.Throughput, Now: c.Throughput, Limit: timeLimit})
		}
		if c.ShedRate > b.ShedRate+0.30 {
			out = append(out, Problem{Case: b.Name, Metric: "fleet shed_rate",
				Base: b.ShedRate, Now: c.ShedRate, Limit: 0.30})
		}
		if c.PlanHitRate < b.PlanHitRate-0.10 {
			out = append(out, Problem{Case: b.Name, Metric: "fleet plan_hit_rate (floor)",
				Base: b.PlanHitRate, Now: c.PlanHitRate, Limit: 0.10})
		}
	}
	return out
}
