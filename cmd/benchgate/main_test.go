package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goodReport is a healthy snapshot; degradedReport is the same suite run
// with every gated metric pushed past its threshold. The pair drives the
// verdict assertions in both directions.
func goodReport() Report {
	return Report{
		SchemaVersion: schemaVersion,
		Date:          "2026-08-01",
		GoVersion:     "go1.24",
		Quick:         true,
		Cases: []CaseResult{
			{Name: "Trefethen_2000/simulated/k5", Matrix: "Trefethen_2000", Engine: "simulated",
				N: 2000, BlockSize: 128, LocalIters: 5, Tolerance: 1e-6, Deterministic: true,
				Iterations: 25, TimeToTolerance: 0.012, ItersPerSec: 2083, AllocBytes: 400_000, Allocs: 120},
			{Name: "Trefethen_2000/goroutine/k5", Matrix: "Trefethen_2000", Engine: "goroutine",
				N: 2000, BlockSize: 128, LocalIters: 5, Tolerance: 1e-6, Deterministic: false,
				Iterations: 25, TimeToTolerance: 0.011, ItersPerSec: 2270, AllocBytes: 500_000, Allocs: 300},
		},
	}
}

func degradedReport() Report {
	r := goodReport()
	r.Date = "2026-08-02"
	// Deterministic case: +60% iterations (limit +10%), 3x time (limit
	// +100%), 2x allocations (limit +50%).
	r.Cases[0].Iterations = 40
	r.Cases[0].TimeToTolerance = 0.040
	r.Cases[0].ItersPerSec = 1000
	r.Cases[0].AllocBytes = 900_000
	r.Cases[0].Allocs = 280
	// Non-deterministic case: within its 5x-widened iteration allowance,
	// so it must NOT be flagged for iterations.
	r.Cases[1].Iterations = 30
	return r
}

func TestCompareFlagsDegradation(t *testing.T) {
	problems := Compare(goodReport(), degradedReport(), defaultLimits())
	byMetric := map[string]bool{}
	for _, p := range problems {
		if p.Case != "Trefethen_2000/simulated/k5" {
			t.Errorf("unexpected problem on %s: %s", p.Case, p)
			continue
		}
		byMetric[p.Metric] = true
	}
	for _, want := range []string{
		"iterations", "time_to_tolerance_seconds", "alloc_bytes", "allocs", "iters_per_sec (inverse)",
	} {
		if !byMetric[want] {
			t.Errorf("degraded run: metric %q not flagged; got %v", want, problems)
		}
	}
}

// TestCompareImprovementPasses is the other direction: a run that got
// *better* than the baseline must gate clean.
func TestCompareImprovementPasses(t *testing.T) {
	if problems := Compare(degradedReport(), goodReport(), defaultLimits()); len(problems) != 0 {
		t.Errorf("improved run flagged: %v", problems)
	}
	if problems := Compare(goodReport(), goodReport(), defaultLimits()); len(problems) != 0 {
		t.Errorf("identical run flagged: %v", problems)
	}
}

func TestCompareNondetAllowance(t *testing.T) {
	base, cur := goodReport(), goodReport()
	cur.Cases[1].Iterations = 30 // +20%: over 10% but under the 5x-widened 50%
	if problems := Compare(base, cur, defaultLimits()); len(problems) != 0 {
		t.Errorf("non-deterministic +20%% iterations flagged: %v", problems)
	}
	cur.Cases[1].Iterations = 40 // +60%: past even the widened allowance
	problems := Compare(base, cur, defaultLimits())
	if len(problems) != 1 || problems[0].Metric != "iterations" {
		t.Errorf("non-deterministic +60%% iterations: got %v, want one iterations problem", problems)
	}
}

func TestCompareCoverageAndSchema(t *testing.T) {
	base, cur := goodReport(), goodReport()
	cur.Cases = cur.Cases[:1]
	problems := Compare(base, cur, defaultLimits())
	if len(problems) != 1 || !strings.Contains(problems[0].Metric, "coverage") {
		t.Errorf("dropped case: got %v, want one coverage problem", problems)
	}

	// Quick baseline vs full run: intersection only, no coverage failure.
	cur.Quick = false
	if problems := Compare(base, cur, defaultLimits()); len(problems) != 0 {
		t.Errorf("cross-mode comparison flagged missing coverage: %v", problems)
	}

	// Schema bump: nothing gates.
	cur = degradedReport()
	cur.SchemaVersion = schemaVersion + 1
	if problems := Compare(goodReport(), cur, defaultLimits()); len(problems) != 0 {
		t.Errorf("cross-schema comparison gated: %v", problems)
	}
}

// TestRunVerdicts drives run() end to end against canned BENCH files in a
// temp dir and asserts the exit code in both directions. The current
// measurements are not rerun — the canned files exercise only the
// baseline-selection and gating paths, so -baseline points the comparison
// at a degraded (FAIL) and an older healthy (PASS) snapshot. A real
// measured run is too machine-dependent to assert here; the gating logic
// is what this test owns.
func TestRunVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r Report) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := writeReport(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	goodPath := write("BENCH_2026-08-01.json", goodReport())
	degradedPath := write("BENCH_2026-08-02.json", degradedReport())

	// Degraded current vs healthy baseline → regressions, exit 1.
	out := &strings.Builder{}
	if code := gate(goodPath, degradedReport(), defaultLimits(), out); code != 1 {
		t.Fatalf("degraded vs good: exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out.String(), "REGRESSION") || !strings.Contains(out.String(), "FAIL") {
		t.Errorf("degraded vs good: output lacks REGRESSION/FAIL lines:\n%s", out)
	}

	// Healthy current vs degraded baseline (an improvement) → exit 0.
	out.Reset()
	if code := gate(degradedPath, goodReport(), defaultLimits(), out); code != 0 {
		t.Fatalf("good vs degraded: exit %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out.String(), "PASS") {
		t.Errorf("good vs degraded: output lacks PASS line:\n%s", out)
	}
}

func TestLoadBaselinePicksNewest(t *testing.T) {
	dir := t.TempDir()
	old, recent := goodReport(), degradedReport()
	for _, f := range []struct {
		name string
		r    Report
	}{{"BENCH_2026-08-01.json", old}, {"BENCH_2026-08-02.json", recent}} {
		if err := writeReport(filepath.Join(dir, f.name), f.r); err != nil {
			t.Fatal(err)
		}
	}
	base, path, err := loadBaseline("", dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_2026-08-02.json" || base.Date != "2026-08-02" {
		t.Errorf("picked %s (date %s), want the lexically newest BENCH_2026-08-02.json", path, base.Date)
	}

	if base, _, err := loadBaseline("", t.TempDir()); err != nil || base != nil {
		t.Errorf("empty dir: base=%v err=%v, want nil/nil", base, err)
	}
}

func TestReadReportRejectsMissingSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_bad.json")
	if err := os.WriteFile(path, []byte(`{"date":"2026-08-01","cases":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readReport(path); err == nil || !strings.Contains(err.Error(), "schema_version") {
		t.Errorf("missing schema_version accepted: err=%v", err)
	}
}

// TestCommittedBaselineLoads guards the repo's own baseline: the committed
// BENCH_*.json at the repository root must parse, carry the current schema
// version, and cover the quick suite the CI gate runs.
func TestCommittedBaselineLoads(t *testing.T) {
	base, path, err := loadBaseline("", "../..")
	if err != nil {
		t.Fatal(err)
	}
	if base == nil {
		t.Fatal("no committed BENCH_*.json baseline at the repository root")
	}
	if base.SchemaVersion != schemaVersion {
		t.Fatalf("%s: schema %d, current is %d — regenerate the baseline", path, base.SchemaVersion, schemaVersion)
	}
	have := base.byName()
	for _, c := range suite(true) {
		if _, ok := have[c.Name]; !ok {
			t.Errorf("%s: quick-suite case %q missing — regenerate the baseline", path, c.Name)
		}
	}
}

// TestTuneProblems: a Result that differs between GOMAXPROCS settings
// always fails the tuner row; the speedup floor holds only where the row
// is gated.
func TestTuneProblems(t *testing.T) {
	for _, tc := range []struct {
		name string
		row  TuneScenario
		want int
	}{
		{"same, fast, gated", TuneScenario{CPUs: 4, Speedup: 1.8, SpeedupGated: true, SameResult: true}, 0},
		{"same, slow, not gated", TuneScenario{CPUs: 2, Speedup: 1.0, SameResult: true}, 0},
		{"same, slow, gated", TuneScenario{CPUs: 4, Speedup: 1.1, SpeedupGated: true, SameResult: true}, 1},
		{"different, not gated", TuneScenario{CPUs: 2, Speedup: 1.5}, 1},
		{"different, slow, gated", TuneScenario{CPUs: 8, Speedup: 1.0, SpeedupGated: true}, 2},
	} {
		if got := tuneProblems(tc.row); len(got) != tc.want {
			t.Errorf("%s: %d problems %q, want %d", tc.name, len(got), got, tc.want)
		}
	}
}

// TestMachineNote: a baseline without a machine block, or with another
// machine's, draws a note; the same machine draws none.
func TestMachineNote(t *testing.T) {
	here := &Machine{NumCPU: 2, GOMAXPROCS: 2, CPUModel: "model A"}
	same := *here
	other := Machine{NumCPU: 4, GOMAXPROCS: 4, CPUModel: "model B"}
	if note := machineNote(nil, here); note == "" {
		t.Error("baseline without a machine block drew no note")
	}
	if note := machineNote(&other, here); !strings.Contains(note, "model B") || !strings.Contains(note, "model A") {
		t.Errorf("other machine: note %q", note)
	}
	if note := machineNote(&same, here); note != "" {
		t.Errorf("same machine: note %q", note)
	}
}

// TestHostSweepProblem: the host Table 4 row fails when async-(9) costs
// under ×1.5 async-(1), the reading of a kernel that skips its sweeps.
func TestHostSweepProblem(t *testing.T) {
	row := func(k9 float64) HostSweepScenario {
		return HostSweepScenario{Cost: []HostSweepCost{
			{K: 1, Ratio: Spread{Median: 1, Min: 1, Max: 1}},
			{K: 9, Ratio: Spread{Median: k9, Min: k9, Max: k9}},
		}}
	}
	if p := hostSweepProblem(row(3.1)); p != "" {
		t.Errorf("×3.1 flagged: %s", p)
	}
	if p := hostSweepProblem(row(1.02)); p == "" {
		t.Error("×1.02 (sweeps skipped) passed")
	}
}

// TestResidualProblem: the residual-check cost row fails on an unconverged
// solve, on a gated solve that checked every iteration, and on a median
// time ratio above ×0.95.
func TestResidualProblem(t *testing.T) {
	ok := ResidualScenario{Tolerance: 1e-8, Ratio: Spread{Median: 0.75, Min: 0.7, Max: 0.8}}
	if p := residualProblem(ok); p != "" {
		t.Errorf("healthy row flagged: %s", p)
	}
	for name, row := range map[string]ResidualScenario{
		"unconverged":   {Tolerance: 1e-8, Unconverged: 1, Ratio: ok.Ratio},
		"fully checked": {Tolerance: 1e-8, FullyChecked: 3, Ratio: ok.Ratio},
		"no faster":     {Tolerance: 1e-8, Ratio: Spread{Median: 0.97, Min: 0.9, Max: 1.1}},
	} {
		if p := residualProblem(row); p == "" {
			t.Errorf("%s row passed", name)
		}
	}
}
