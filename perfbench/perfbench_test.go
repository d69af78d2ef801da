package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mats"
	"repro/internal/service"
	"repro/internal/sparse"
)

func TestP90RestsOnTenSamples(t *testing.T) {
	for _, w := range workloads {
		if got := beyond(w.minOps, 0.9); got < minBeyond {
			t.Errorf("%s: p90 leaves %d samples beyond it at %d ops, want ≥ %d", w.name, got, w.minOps, minBeyond)
		}
	}
	if got := beyond(100, 0.9); got != 10 {
		t.Errorf("beyond(100, 0.9) = %d, want 10", got)
	}
	if got := beyond(99, 0.9); got != 9 {
		t.Errorf("beyond(99, 0.9) = %d, want 9", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("quantile(%v) = %g, want %g", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
}

// TestClusteredOperatorDropsOnlyTheWindow checks that the operator the
// traced run times the clustered pre-flight on differs from upload operator
// 0 of the same seed only in the diagonal of the window's rows.
func TestClusteredOperatorDropsOnlyTheWindow(t *testing.T) {
	u, c := uploadOperator(3, 0), clusteredOperator(3)
	if len(u.a.val) != len(c.a.val) {
		t.Fatalf("%d entries, clustered %d", len(u.a.val), len(c.a.val))
	}
	rows := map[int]bool{}
	for i := 0; i < u.a.n; i++ {
		for p := u.a.rowPtr[i]; p < u.a.rowPtr[i+1]; p++ {
			if u.a.col[p] != c.a.col[p] {
				t.Fatalf("row %d: patterns differ", i)
			}
			if u.a.val[p] != c.a.val[p] {
				if u.a.col[p] != i {
					t.Fatalf("row %d: off-diagonal entry differs", i)
				}
				rows[i] = true
			}
		}
	}
	if len(rows) != hotRows {
		t.Errorf("%d diagonals differ, want the window's %d", len(rows), hotRows)
	}
}

func TestUploadOperatorsAreSeeded(t *testing.T) {
	a, b, c := uploadOperator(7, 3), uploadOperator(7, 3), uploadOperator(8, 3)
	if a.text != b.text {
		t.Fatal("same seed and index gave different Matrix Market payloads")
	}
	if a.text == c.text || a.text == uploadOperator(7, 4).text {
		t.Fatal("different seeds or indices gave identical payloads")
	}
	fp := func(u upload) string {
		m, err := sparse.ReadMatrixMarket(strings.NewReader(u.text))
		if err != nil {
			t.Fatal(err)
		}
		return service.Fingerprint(m)
	}
	if fp(a) != fp(b) || fp(a) == fp(c) {
		t.Fatal("fingerprints do not follow the seed")
	}
	if kb := len(a.text) >> 10; kb < 700 || kb > 1000 {
		t.Errorf("payload is %d KiB, want about 0.85 MB", kb)
	}
}

// TestUploadOperatorTextMatchesOwnCopy checks that the values the program
// parses are exactly the benchmark's own copy, so recomputed residuals use
// the operator that was solved.
func TestUploadOperatorTextMatchesOwnCopy(t *testing.T) {
	u := uploadOperator(1, 0)
	m, err := sparse.ReadMatrixMarket(strings.NewReader(u.text))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != u.a.n || len(m.Val) != len(u.a.val) {
		t.Fatalf("parsed %d rows %d entries, own copy %d rows %d entries", m.Rows, len(m.Val), u.a.n, len(u.a.val))
	}
	for i := range m.Val {
		if m.Val[i] != u.a.val[i] || m.ColIdx[i] != u.a.col[i] {
			t.Fatalf("entry %d: parsed (%d, %v), own (%d, %v)", i, m.ColIdx[i], m.Val[i], u.a.col[i], u.a.val[i])
		}
	}
	if !m.IsStrictlyDiagonallyDominant() {
		t.Error("upload operator is not strictly diagonally dominant")
	}
}

func TestSessionRHSIsSeeded(t *testing.T) {
	a := mustJSON(map[string]any{"rhs": sessionRHS(5, 100, 2)})
	b := mustJSON(map[string]any{"rhs": sessionRHS(5, 100, 2)})
	if !bytes.Equal(a, b) {
		t.Fatal("same seed gave different step bodies")
	}
	if bytes.Equal(a, mustJSON(map[string]any{"rhs": sessionRHS(6, 100, 2)})) {
		t.Fatal("different seeds gave identical step bodies")
	}
	if bytes.Equal(a, mustJSON(map[string]any{"rhs": sessionRHS(5, 100, 3)})) {
		t.Fatal("consecutive steps are identical")
	}
	if x, y := sessionRHS(5, 100, 0), sessionRHS(5, 100, sessionPeriod); x[17] != y[17] {
		t.Fatal("the drifting sequence is not periodic")
	}
}

func TestKernelsResolve(t *testing.T) {
	u := uploadOperator(1, 0)
	a, err := sparse.ReadMatrixMarket(strings.NewReader(u.text))
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewPlanWithConfig(a, 448, false, core.PlanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Kernel() != core.KernelCSR {
		t.Errorf("upload operator resolves to %s, want csr", p.Kernel())
	}
	fv1 := mats.MustGenerate("fv1")
	p, err = core.NewPlanWithConfig(fv1.A, 448, false, core.PlanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Kernel() != core.KernelStencil {
		t.Errorf("fv1 resolves to %s, want stencil", p.Kernel())
	}

	// And through the service, as the workload sends it.
	ep := newEpoch(0)
	defer shutdown(ep.svc)
	r := newUploadSolve(1).(*uploadSolve)
	rec, v := jobOp(ep, r.bodies[0], r.tol)
	if rec.err != "" {
		t.Fatal(rec.err)
	}
	if v.Result.Kernel != "csr" {
		t.Errorf("service solved the upload with kernel %q, want csr", v.Result.Kernel)
	}
}

func TestOwnTrefethenMatchesProgram(t *testing.T) {
	own, prog := trefethen(2000), mats.Trefethen(2000)
	if own.n != prog.Rows || len(own.val) != len(prog.Val) {
		t.Fatalf("own %d rows %d entries, program %d rows %d entries", own.n, len(own.val), prog.Rows, len(prog.Val))
	}
	for i := range own.val {
		if own.val[i] != prog.Val[i] || own.col[i] != prog.ColIdx[i] {
			t.Fatalf("entry %d differs", i)
		}
	}
}

func TestCheckSolutionRejectsWrongAnswers(t *testing.T) {
	u := uploadOperator(2, 1)
	b := u.a.mulVec(ones(u.a.n))
	if err := checkSolution(u.a, b, ones(u.a.n), 1e-8, ones(u.a.n)); err != nil {
		t.Fatalf("exact solution rejected: %v", err)
	}
	x := ones(u.a.n)
	x[1234] += 1e-4
	if err := checkSolution(u.a, b, x, 1e-8, nil); err == nil {
		t.Fatal("perturbed solution passed the residual check")
	}
	if err := checkSolution(u.a, b, x[:10], 1e-8, nil); err == nil {
		t.Fatal("short solution passed")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 10},
		{ID: 1, Parent: 0, Name: "a", Start: 1, End: 4},
		{ID: 2, Parent: 0, Name: "b", Start: 3, End: 6},  // overlaps a
		{ID: 3, Parent: 0, Name: "c", Start: 9, End: 12}, // runs past the parent
		{ID: 4, Parent: 1, Name: "d", Start: 1, End: 2},
	}
	got := selfTimes(spans)
	want := map[string]float64{"op": 10 - 5 - 1, "a": 2, "b": 3, "c": 3, "d": 1}
	for k, v := range want {
		if d := got[k] - v; d > 1e-12 || d < -1e-12 {
			t.Errorf("self(%s) = %g, want %g", k, got[k], v)
		}
	}
}

func TestCrossCheckFlagsCounterMismatch(t *testing.T) {
	s := sliceResult{
		ops:    []opRecord{{iters: 5, postEnd: time.Now()}, {iters: 7, postEnd: time.Now()}},
		before: counters{"core_global_iterations_total": 100, "service_plan_cache_hits_total": 3},
		after:  counters{"core_global_iterations_total": 112, "service_plan_cache_hits_total": 5},
	}
	if bad := crossCheck(s); len(bad) != 0 {
		t.Fatalf("consistent counters flagged: %v", bad)
	}
	s.after["core_global_iterations_total"] = 113
	s.after["service_plan_cache_misses_total"] = 1
	if bad := crossCheck(s); len(bad) != 2 {
		t.Fatalf("want both mismatches flagged, have %v", bad)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric and
// workload lists here in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found next to the benchmark directory")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", kind, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s[%d]: declared %s [%s], reported %s [%s]", kind, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: declared %s, program %s", i, spec.Workloads[i].Name, w.name)
		}
	}
}

// TestSmokeRuns runs every workload briefly, untraced and traced, and checks
// that the last line carries every metric with its unit and no failed op.
func TestSmokeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take about a minute")
	}
	// Span files land in a temporary directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, w := range workloads {
		for _, traced := range []string{"0", "1"} {
			var out bytes.Buffer
			code := run([]string{"--workload", w.name, "--seed", "4", "--seconds", "0.5", "--trace", traced}, &out, io.Discard)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d", w.name, traced, code)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line: %v", w.name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d\n%s", w.name, traced, res.Correct, res.Attempted, res.Failed, lines[0])
			}
			defs := endToEnd
			if traced == "1" {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %s: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Value == nil || m.Unit != d.unit {
					t.Errorf("%s trace %s: metric %s missing or without unit %s", w.name, traced, d.name, d.unit)
				}
			}
		}
	}
}
