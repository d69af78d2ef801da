package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/mats"
	"repro/internal/service"
	"repro/internal/sparse"
	"repro/internal/tune"
)

// workload is one traffic mix: its client count, how many operations one
// fresh service serves, and the runner holding its seeded inputs.
type workload struct {
	name    string
	clients int
	// epochOps bounds the operations one service serves before the next
	// fresh service replaces it. The service keeps every finished job, so
	// a fixed count per service keeps memory and GC load independent of
	// how many operations a run completes.
	epochOps int
	// minOps is the fewest measured operations a 30-second run completes
	// on a 2-vCPU Xeon host in its usual slow mode (README.md, "Host drift
	// measured"); the 90th percentile must rest on at least minBeyond
	// samples beyond it at that count. A run on a host slower still rests
	// on fewer, and its report carries a p90_warning.
	minOps int
	// probeOps bounds the operations per traced epoch whose inner layers
	// are re-run by direct calls.
	probeOps  int
	newRunner func(seed int64) runner
}

// workloads are listed in BENCHMARK.json order; README.md gives the reason
// for each.
var workloads = []*workload{
	{
		name: "solve-large", clients: 1, epochOps: 16, minOps: 100, probeOps: 8,
		newRunner: newSolveLarge,
	},
	{
		name: "upload-solve", clients: 2, epochOps: 96, minOps: 800, probeOps: 32,
		newRunner: newUploadSolve,
	},
	{
		name: "session-stream", clients: 2, epochOps: 250, minOps: 800, probeOps: 32,
		newRunner: newSessionStream,
	},
}

func lookupWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// runner drives one workload against one fresh service at a time.
type runner interface {
	// warmUp brings a fresh service to steady state: one operation per
	// distinct operator, plus each session's creation and cold first step.
	warmUp(ep *epoch) error
	// op runs operation i of the epoch for client c.
	op(ep *epoch, c, i int) opRecord
	// probe re-runs the inner layers' public functions on the inputs of
	// ops, recording a span per call.
	probe(ep *epoch, ops []opRecord, tr *tracer) ([]probeRec, error)
	// verify fetches full solutions for a sample of inputs and recomputes
	// their residuals with the benchmark's own code.
	verify(ep *epoch) error
	// setupLayers times the cold-path layers by direct calls on the
	// workload's operators (traced runs only).
	setupLayers(tr *tracer) (setupCost, error)
	// localIters and nnz describe the solve for the per-nonzero kernel rate.
	localIters() int
	nnz() int
}

// probeRec is what the layer probes of one op measured.
type probeRec struct {
	op                    int
	decode, parse, fprint float64
	solve, residual       float64
	solveIters            int
	step                  float64
	stepIters             int
}

// setupCost is the cold work one service pays for the workload's operators,
// timed layer by layer, plus what a traced run measures once on them.
type setupCost struct {
	generate, certify, tune, planBuild, analyze float64
	probeSolves                                 int
	// analyzeClustered is the spectral pre-flight on an upload operator
	// without the isolating window (upload-solve only).
	analyzeClustered float64
	// parallelEfficiency is the goroutine engine's scaling on the
	// operator (solve-large only).
	parallelEfficiency float64
}

// requestSeed is the scheduler seed every request of a run carries: derived
// from the run seed, never 0 (0 asks the engines for a fresh stream).
func requestSeed(seed int64) int64 { return seed*2 + 1 }

// ---------------------------------------------------------------- solve-large

type solveLarge struct {
	body []byte
	tol  float64
	opt  core.Options
	// own is the benchmark's own Trefethen_20000 and ownB its A·1.
	own  *matrix
	ownB []float64
	// The program's copy and a plan for the layer probes (traced runs).
	a    *sparse.CSR
	plan *core.Plan
	b    []float64
}

func newSolveLarge(seed int64) runner {
	r := &solveLarge{tol: 1e-8}
	req := map[string]any{
		"matrix": "Trefethen_20000", "block_size": 448, "local_iters": 5,
		"max_global_iters": 500, "tolerance": r.tol, "engine": "goroutine",
		"seed": requestSeed(seed),
	}
	r.body = mustJSON(req)
	r.opt = core.Options{
		BlockSize: 448, LocalIters: 5, MaxGlobalIters: 500, Tolerance: r.tol,
		Engine: core.EngineGoroutine, Seed: requestSeed(seed),
	}
	r.own = trefethen(20000)
	r.ownB = r.own.mulVec(ones(r.own.n))
	return r
}

func (r *solveLarge) warmUp(ep *epoch) error {
	if rec, _ := jobOp(ep, r.body, r.tol); rec.err != "" {
		return fmt.Errorf("%s", rec.err)
	}
	return nil
}

func (r *solveLarge) op(ep *epoch, c, i int) opRecord {
	rec, _ := jobOp(ep, r.body, r.tol)
	return rec
}

func (r *solveLarge) probe(ep *epoch, ops []opRecord, tr *tracer) ([]probeRec, error) {
	var out []probeRec
	for _, o := range ops {
		p := probeRec{op: o.id}
		now := time.Now()
		root := tr.add("probe", o.id, -1, now, now)
		var req service.SolveRequest
		var err error
		p.decode = tr.timed("service.decode", o.id, root, func() { err = json.Unmarshal(r.body, &req) }).Seconds()
		if err != nil {
			return nil, err
		}
		var res core.Result
		p.solve = tr.timed("core.solve", o.id, root, func() { res, err = core.SolveWithPlan(r.plan, r.b, r.opt) }).Seconds()
		if err != nil {
			return nil, err
		}
		p.solveIters = res.GlobalIterations
		p.residual = timedResidual(tr, o.id, root, r.a, r.b, res.X)
		tr.end(root)
		out = append(out, p)
	}
	return out, nil
}

func (r *solveLarge) verify(ep *epoch) error {
	return verifyOnes(ep, withSolution(r.body), r.tol, r.own, r.ownB)
}

func (r *solveLarge) setupLayers(tr *tracer) (setupCost, error) {
	var c setupCost
	var tm mats.TestMatrix
	var err error
	c.generate = tr.timed("mats.generate", -1, -1, func() { tm, err = mats.Generate("Trefethen_20000") }).Seconds()
	if err != nil {
		return c, err
	}
	r.a = tm.A
	if r.plan, err = buildPlan(tr, &c, r.a, r.opt.BlockSize); err != nil {
		return c, err
	}
	r.b = make([]float64, r.a.Rows)
	r.a.MulVec(r.b, ones(r.a.Cols))
	c.parallelEfficiency, err = parallelEfficiency(tr, r.plan, r.b)
	return c, err
}

func (r *solveLarge) localIters() int { return r.opt.LocalIters }
func (r *solveLarge) nnz() int        { return len(r.own.val) }

// --------------------------------------------------------------- upload-solve

type uploadSolve struct {
	seed   int64
	tol    float64
	opt    core.Options
	ops    []upload
	bodies [][]byte
	ownB   [][]float64
	// The program's parsed copies and plans for the layer probes.
	a     []*sparse.CSR
	plans []*core.Plan
	b     [][]float64
}

func newUploadSolve(seed int64) runner {
	r := &uploadSolve{seed: seed, tol: 1e-8}
	r.opt = core.Options{
		BlockSize: 448, LocalIters: 5, MaxGlobalIters: 500, Tolerance: r.tol,
		Engine: core.EngineSimulated, Seed: requestSeed(seed),
	}
	for k := 0; k < uploadOperators; k++ {
		u := uploadOperator(seed, k)
		r.ops = append(r.ops, u)
		r.bodies = append(r.bodies, mustJSON(map[string]any{
			"matrix_market": u.text, "block_size": 448, "local_iters": 5,
			"max_global_iters": 500, "tolerance": r.tol, "certify": "enforce",
			"seed": requestSeed(seed),
		}))
		r.ownB = append(r.ownB, u.a.mulVec(ones(u.a.n)))
	}
	return r
}

// warmUp sends each operator once, spread over the workload's two clients.
func (r *uploadSolve) warmUp(ep *epoch) error {
	return forEach(2, len(r.bodies), func(k int) error {
		if rec, _ := jobOp(ep, r.bodies[k], r.tol); rec.err != "" {
			return fmt.Errorf("operator %d: %s", k, rec.err)
		}
		return nil
	})
}

// op sends the operators in round-robin order across both clients.
func (r *uploadSolve) op(ep *epoch, c, i int) opRecord {
	k := i % len(r.bodies)
	rec, _ := jobOp(ep, r.bodies[k], r.tol)
	rec.input = k
	return rec
}

func (r *uploadSolve) probe(ep *epoch, ops []opRecord, tr *tracer) ([]probeRec, error) {
	var out []probeRec
	for _, o := range ops {
		k := o.input
		p := probeRec{op: o.id}
		now := time.Now()
		root := tr.add("probe", o.id, -1, now, now)
		var req service.SolveRequest
		var err error
		p.decode = tr.timed("service.decode", o.id, root, func() { err = json.Unmarshal(r.bodies[k], &req) }).Seconds()
		if err != nil {
			return nil, err
		}
		var a *sparse.CSR
		p.parse = tr.timed("sparse.parse", o.id, root, func() { a, err = sparse.ReadMatrixMarket(strings.NewReader(req.MatrixMarket)) }).Seconds()
		if err != nil {
			return nil, err
		}
		p.fprint = tr.timed("service.fingerprint", o.id, root, func() { service.Fingerprint(a) }).Seconds()
		var res core.Result
		p.solve = tr.timed("core.solve", o.id, root, func() { res, err = core.SolveWithPlan(r.plans[k], r.b[k], r.opt) }).Seconds()
		if err != nil {
			return nil, err
		}
		p.solveIters = res.GlobalIterations
		p.residual = timedResidual(tr, o.id, root, r.a[k], r.b[k], res.X)
		tr.end(root)
		out = append(out, p)
	}
	return out, nil
}

// verify checks two operators per epoch, rotating through the set.
func (r *uploadSolve) verify(ep *epoch) error {
	for _, k := range []int{(2 * ep.index) % len(r.ops), (2*ep.index + 1) % len(r.ops)} {
		if err := verifyOnes(ep, withSolution(r.bodies[k]), r.tol, r.ops[k].a, r.ownB[k]); err != nil {
			return fmt.Errorf("operator %d: %w", k, err)
		}
	}
	return nil
}

func (r *uploadSolve) setupLayers(tr *tracer) (setupCost, error) {
	var c setupCost
	for _, u := range r.ops {
		a, err := sparse.ReadMatrixMarket(strings.NewReader(u.text))
		if err != nil {
			return c, err
		}
		c.certify += tr.timed("certify.certify", -1, -1, func() { _, err = certify.Certify(a, certify.Options{Seed: 1}) }).Seconds()
		if err != nil {
			return c, err
		}
		plan, err := buildPlan(tr, &c, a, r.opt.BlockSize)
		if err != nil {
			return c, err
		}
		b := make([]float64, a.Rows)
		a.MulVec(b, ones(a.Cols))
		r.a, r.plans, r.b = append(r.a, a), append(r.plans, plan), append(r.b, b)
	}
	// The operators are built so the pre-flight converges fast (see
	// inputs.go); time it once on a same-pattern operator without that
	// shaping, so its cost on a clustered spectrum stays in view.
	a, err := sparse.ReadMatrixMarket(strings.NewReader(clusteredOperator(r.seed).text))
	if err != nil {
		return c, err
	}
	c.analyzeClustered = tr.timed("core.analyze_clustered", -1, -1, func() {
		_, _ = core.CheckConvergence(a, 32, 1)
	}).Seconds()
	return c, nil
}

func (r *uploadSolve) localIters() int { return r.opt.LocalIters }
func (r *uploadSolve) nnz() int        { return len(r.ops[0].a.val) }

// ------------------------------------------------------------- session-stream

type sessionStream struct {
	seed       int64
	tol        float64
	maxIters   int
	createBody []byte
	rhs        [][]float64 // the drifting sequence, one period
	bodies     [][]byte    // step bodies for rhs
	own        *matrix     // fv1 copied out of the program's generator
	// opt is the configuration the tuner picks for fv1 (probe checks it
	// against the service's session views) and plan a matching plan for the
	// layer probes.
	opt  core.Options
	a    *sparse.CSR
	plan *core.Plan
}

// sessionState is one epoch's client sessions and how far each has stepped.
type sessionState struct {
	ids   []string
	steps []int
	views []service.SessionView
}

func newSessionStream(seed int64) runner {
	r := &sessionStream{seed: seed, tol: 1e-8, maxIters: 800}
	r.createBody = mustJSON(map[string]any{
		"matrix": "fv1", "tune": "auto", "max_global_iters": r.maxIters,
		"tolerance": r.tol, "seed": requestSeed(seed),
	})
	tm := mats.MustGenerate("fv1")
	r.own = &matrix{n: tm.A.Rows,
		rowPtr: append([]int(nil), tm.A.RowPtr...),
		col:    append([]int(nil), tm.A.ColIdx...),
		val:    append([]float64(nil), tm.A.Val...)}
	for k := 0; k < sessionPeriod; k++ {
		b := sessionRHS(seed, r.own.n, k)
		r.rhs = append(r.rhs, b)
		r.bodies = append(r.bodies, mustJSON(map[string]any{"rhs": b}))
	}
	return r
}

// stepInput is the ring index of client c's step k: clients start half a
// period apart, so the two sessions solve different systems.
func (r *sessionStream) stepInput(c, k int) int {
	return (c*sessionPeriod/2 + k) % sessionPeriod
}

// warmUp has each of the two clients create its session and take the
// cold first step; the second creation joins the first one's tuning.
func (r *sessionStream) warmUp(ep *epoch) error {
	st := &sessionState{ids: make([]string, 2), views: make([]service.SessionView, 2), steps: make([]int, 2)}
	ep.state = st
	return forEach(2, 2, func(c int) error {
		rec := post(ep.h, "/v1/sessions", r.createBody)
		if rec.Code != http.StatusCreated {
			return fmt.Errorf("POST /v1/sessions: %d %s", rec.Code, rec.Body.String())
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &st.views[c]); err != nil {
			return fmt.Errorf("decoding session view: %w", err)
		}
		st.ids[c] = st.views[c].ID
		if o := r.step(ep, c); o.err != "" {
			return fmt.Errorf("cold step of session %d: %s", c, o.err)
		}
		return nil
	})
}

// step posts client c's next right-hand side to its session.
func (r *sessionStream) step(ep *epoch, c int) opRecord {
	st := ep.state.(*sessionState)
	k := st.steps[c]
	st.steps[c]++
	o := opRecord{input: k}
	body := r.bodies[r.stepInput(c, k)]
	o.start = time.Now()
	rec := post(ep.h, "/v1/sessions/"+st.ids[c]+"/step", body)
	o.end = time.Now()
	if rec.Code != http.StatusOK {
		o.err = fmt.Sprintf("step: %d %s", rec.Code, strings.TrimSpace(rec.Body.String()))
		return o
	}
	var res service.StepResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		o.err = "decoding step result: " + err.Error()
		return o
	}
	switch {
	case !res.Converged:
		o.err = fmt.Sprintf("step %d did not converge", res.Step)
	case !(res.Residual <= r.tol):
		o.err = fmt.Sprintf("step %d residual %g above tolerance %g", res.Step, res.Residual, r.tol)
		o.wrong = true
	default:
		o.iters, o.stepWall = res.GlobalIterations, res.WallTime
	}
	return o
}

func (r *sessionStream) op(ep *epoch, c, i int) opRecord { return r.step(ep, c) }

// probe replays each client's sequence on a core.Session of the same plan
// and options: the simulated engine is deterministic, so the replayed steps
// are the service's steps without the service around them.
func (r *sessionStream) probe(ep *epoch, ops []opRecord, tr *tracer) ([]probeRec, error) {
	for _, v := range ep.state.(*sessionState).views {
		if err := r.matchView(v); err != nil {
			return nil, err
		}
	}
	byClient := map[int][]opRecord{}
	for _, o := range ops {
		byClient[o.client] = append(byClient[o.client], o)
	}
	var out []probeRec
	for c := 0; c < 2; c++ {
		list := byClient[c]
		sort.Slice(list, func(i, j int) bool { return list[i].input < list[j].input })
		sess := core.NewSession(r.plan)
		next := 0 // next step index the replay session expects
		for _, o := range list {
			for ; next < o.input; next++ {
				if _, err := sess.Step(r.rhs[r.stepInput(c, next)], r.opt); err != nil {
					return nil, err
				}
			}
			b := r.rhs[r.stepInput(c, o.input)]
			p := probeRec{op: o.id}
			now := time.Now()
			root := tr.add("probe", o.id, -1, now, now)
			var req service.StepRequest
			var err error
			p.decode = tr.timed("service.decode", o.id, root, func() { err = json.Unmarshal(r.bodies[r.stepInput(c, o.input)], &req) }).Seconds()
			if err != nil {
				return nil, err
			}
			var cold, warm core.Result
			p.solve = tr.timed("core.solve", o.id, root, func() { cold, err = core.SolveWithPlan(r.plan, b, r.opt) }).Seconds()
			if err != nil {
				return nil, err
			}
			p.solveIters = cold.GlobalIterations
			p.step = tr.timed("core.step", o.id, root, func() { warm, err = sess.Step(b, r.opt) }).Seconds()
			if err != nil {
				return nil, err
			}
			next++
			p.stepIters = warm.GlobalIterations
			if p.stepIters != o.iters {
				return nil, fmt.Errorf("replayed step %d of session %d took %d iterations, the service's %d", o.input, c, p.stepIters, o.iters)
			}
			p.residual = timedResidual(tr, o.id, root, r.a, b, warm.X)
			tr.end(root)
			out = append(out, p)
		}
	}
	return out, nil
}

// verify steps each session once more with include_solution and recomputes
// the residual.
func (r *sessionStream) verify(ep *epoch) error {
	st := ep.state.(*sessionState)
	for c, id := range st.ids {
		k := st.steps[c]
		st.steps[c]++
		b := r.rhs[r.stepInput(c, k)]
		rec := post(ep.h, "/v1/sessions/"+id+"/step", mustJSON(map[string]any{"rhs": b, "include_solution": true}))
		var res service.StepResult
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil || rec.Code != http.StatusOK {
			return fmt.Errorf("session %s: step with solution: %d %v", id, rec.Code, err)
		}
		if err := checkSolution(r.own, b, res.X, r.tol, nil); err != nil {
			return fmt.Errorf("session %s step %d: %w", id, res.Step, err)
		}
	}
	return nil
}

// setupLayers times what a fresh service does for the session's operator:
// generate fv1, tune it, build its plan. It also fixes the probe options to
// the configuration the service resolved.
func (r *sessionStream) setupLayers(tr *tracer) (setupCost, error) {
	var c setupCost
	var tm mats.TestMatrix
	var err error
	c.generate = tr.timed("mats.generate", -1, -1, func() { tm, err = mats.Generate("fv1") }).Seconds()
	if err != nil {
		return c, err
	}
	r.a = tm.A
	b := make([]float64, r.a.Rows)
	r.a.MulVec(b, ones(r.a.Cols))
	var res tune.Result
	c.tune = tr.timed("tune.tune", -1, -1, func() { res, err = tune.Tune(r.a, b, tune.Config{Seed: 1}) }).Seconds()
	if err != nil {
		return c, err
	}
	c.probeSolves = res.ProbeSolves
	r.opt = core.Options{
		BlockSize: res.BlockSize, LocalIters: res.LocalIters, Omega: res.Omega,
		Method: res.Method, Beta: res.Beta,
		MaxGlobalIters: r.maxIters, Tolerance: r.tol, Seed: requestSeed(r.seed),
	}
	r.plan, err = buildPlan(tr, &c, r.a, res.BlockSize)
	return c, err
}

// matchView checks that the probe configuration is the one the service
// resolved for its sessions.
func (r *sessionStream) matchView(v service.SessionView) error {
	o := r.opt
	if v.BlockSize != o.BlockSize || v.LocalIters != o.LocalIters || v.Omega != o.Omega || v.Beta != o.Beta {
		return fmt.Errorf("session resolved block %d local %d omega %g beta %g, probe has %d/%d/%g/%g",
			v.BlockSize, v.LocalIters, v.Omega, v.Beta, o.BlockSize, o.LocalIters, o.Omega, o.Beta)
	}
	if v.Kernel != r.plan.Kernel().String() {
		return fmt.Errorf("session kernel %s, probe plan %s", v.Kernel, r.plan.Kernel())
	}
	return nil
}

func (r *sessionStream) localIters() int { return r.opt.LocalIters }
func (r *sessionStream) nnz() int        { return len(r.own.val) }

// ------------------------------------------------------------------- helpers

// forEach calls f(0), …, f(n−1) from the given number of goroutines and
// returns the first error.
func forEach(goroutines, n int, f func(i int) error) error {
	var next atomic.Int64
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				if err := f(i); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// buildPlan times what the plan cache does on a miss with analysis on (the
// daemon's default): build the core plan, then compute the spectral
// pre-flight report with the cache's default effort and seed.
func buildPlan(tr *tracer, c *setupCost, a *sparse.CSR, blockSize int) (*core.Plan, error) {
	var plan *core.Plan
	var err error
	c.planBuild += tr.timed("core.plan_build", -1, -1, func() {
		plan, err = core.NewPlanWithConfig(a, blockSize, false, core.PlanConfig{})
	}).Seconds()
	if err != nil {
		return nil, err
	}
	c.analyze += tr.timed("core.analyze", -1, -1, func() {
		_, _ = core.CheckConvergence(a, 32, 1) // advisory in the service too
	}).Seconds()
	return plan, nil
}

// timedResidual times one residual evaluation ‖b − A·x‖₂ (one SpMV), the
// unit of work an engine's per-iteration convergence check costs.
func timedResidual(tr *tracer, op, parent int, a *sparse.CSR, b, x []float64) float64 {
	y := make([]float64, a.Rows)
	return tr.timed("core.residual", op, parent, func() {
		a.MulVec(y, x)
		s := 0.0
		for i := range y {
			d := b[i] - y[i]
			s += d * d
		}
		y[0] = math.Sqrt(s)
	}).Seconds()
}

// withSolution returns body with include_solution set.
func withSolution(body []byte) []byte {
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		panic(err) // bodies are the benchmark's own JSON
	}
	m["include_solution"] = true
	return mustJSON(m)
}

// verifyOnes solves body (which must ask for the solution of b = A·1) and
// checks the returned iterate against the benchmark's own operator.
func verifyOnes(ep *epoch, body []byte, tol float64, own *matrix, b []float64) error {
	rec, v := jobOp(ep, body, tol)
	if rec.err != "" {
		return fmt.Errorf("%s", rec.err)
	}
	return checkSolution(own, b, v.Result.X, tol, ones(own.n))
}

// checkSolution recomputes ‖b − A·x‖₂ and, when the exact solution is
// known, the largest componentwise error.
func checkSolution(a *matrix, b, x []float64, tol float64, exact []float64) error {
	if len(x) != a.n {
		return fmt.Errorf("solution has %d entries, want %d", len(x), a.n)
	}
	res, allowance := a.residual(b, x)
	if !(res <= tol+allowance) {
		return fmt.Errorf("recomputed residual %.3e exceeds tolerance %.1e (+%.1e rounding)", res, tol, allowance)
	}
	for i := range exact {
		if e := math.Abs(x[i] - exact[i]); !(e <= 1e-6) {
			return fmt.Errorf("x[%d] = %.12g, exact %g", i, x[i], exact[i])
		}
	}
	return nil
}

// parallelEfficiency runs the goroutine engine on plan for a fixed number of
// global iterations with one worker and with one per CPU, and returns
// t₁ / (p·t_p).
func parallelEfficiency(tr *tracer, plan *core.Plan, b []float64) (float64, error) {
	p := runtime.GOMAXPROCS(0)
	run := func(workers int) (float64, error) {
		opt := core.Options{BlockSize: 448, LocalIters: 5, MaxGlobalIters: 10,
			Engine: core.EngineGoroutine, Workers: workers, Seed: 1}
		var err error
		d := tr.timed(fmt.Sprintf("core.parallel_w%d", workers), -1, -1, func() { _, err = core.SolveWithPlan(plan, b, opt) })
		return d.Seconds(), err
	}
	var t1, tp []float64
	for rep := 0; rep < 3; rep++ {
		a, err := run(1)
		if err != nil {
			return 0, err
		}
		c, err := run(p)
		if err != nil {
			return 0, err
		}
		t1, tp = append(t1, a), append(tp, c)
	}
	return median(t1) / (float64(p) * median(tp)), nil
}
