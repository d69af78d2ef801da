// Command benchgate is the repository's benchmark regression gate: it runs
// the paper-matrix suite (Trefethen, fv stencil, Chem97ZtZ analog) across
// the three execution engines, writes a schema-versioned BENCH_<date>.json
// snapshot (iterations and wall time to tolerance, iterations/second,
// allocations), compares the run against the newest committed BENCH_*.json
// baseline, and exits nonzero when a metric regressed beyond its threshold.
// The snapshot also carries the fleet scenarios — an in-process
// consistent-hash gateway over 1 and 3 solver nodes under calibrated
// open-loop load, plus a kill/revive rebalance — gating that 3 nodes
// out-complete 1, that cache affinity survives fleet scale, and that node
// churn sheds rather than errors (see fleet.go) — and the admission-
// certifier rows: certification latency, the predicted-vs-actual iteration
// ratios of the paper matrices (inside the PredictedFactor band of
// docs/CERTIFY.md), and the doomed-matrix row where a cached certificate
// rejection must beat the divergent solve by ≥100× (see certify.go) — and
// the session rows: the deterministic warm-vs-cold comparison (a k-step
// session must out-iterate k cold solves of the same slowly-varying
// sequence) and the batch-vs-sequential wall-time speedup, enforced on
// ≥4-core machines (see session.go) — and the sweep-kernel rows: the
// matrix-free stencil kernel against the packed-CSR
// baseline on fixed-sweep solves, with enforced speedup floors that a
// kernel made 1.5× slower fails (see kernel.go and docs/KERNELS.md) — and
// the update-rule rows: second-order Richardson (momentum) against damped
// Jacobi in iterations to tolerance on the paper matrices (richardson2
// must win on ≥2 of 3), async-smoothed multigrid against single-level
// damped Jacobi in modeled seconds per residual digit (multigrid must be
// cheaper), and the bounded-delay ring's tick counts per rule at
// MaxDelay ∈ {0, 2, 4} (momentum must converge wherever jacobi does; see
// method.go and docs/METHODS.md) — and the host Table 4 rows: async-(1)
// nanoseconds per nonzero and the cost of async-(k) relative to async-(1)
// on this machine's cores, where async-(9) must cost at least ×1.5 so a
// kernel that skips its local sweeps fails (see hostsweep.go).
//
// The paper's claims are performance claims — convergence per second, not
// just per iteration — so the repo's trajectory needs a measured baseline
// before any optimization can be trusted. Deterministic cases (the seeded
// simulated engine) gate tightly on iteration counts, which are exact;
// wall-time and allocation thresholds are loose enough for shared CI
// machines, and the non-deterministic engines get an extra iteration
// allowance (the paper's own 1000-run study shows their spread).
//
// Usage:
//
//	benchgate               # full suite, compare, write snapshot
//	benchgate -quick        # CI suite: small matrices, fewer repetitions
//	benchgate -dir .        # where baselines live and the snapshot is written
//
// Exit codes: 0 pass, 1 regression (or missing coverage), 2 error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	var (
		quick    = fs.Bool("quick", false, "small-matrix suite with fewer repetitions (CI)")
		dir      = fs.String("dir", ".", "directory holding BENCH_*.json baselines; the snapshot is written there")
		baseline = fs.String("baseline", "", "explicit baseline file (default: newest BENCH_*.json in -dir)")
		noWrite  = fs.Bool("no-write", false, "compare only; do not write a snapshot")
		limits   = defaultLimits()
	)
	fs.Float64Var(&limits.MaxTimeRegress, "max-time-regress", limits.MaxTimeRegress,
		"tolerated fractional wall-time increase (loose: machine variance)")
	fs.Float64Var(&limits.MaxIterRegress, "max-iter-regress", limits.MaxIterRegress,
		"tolerated fractional iteration-count increase for deterministic cases")
	fs.Float64Var(&limits.MaxAllocRegress, "max-alloc-regress", limits.MaxAllocRegress,
		"tolerated fractional allocated-bytes increase")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	base, basePath, err := loadBaseline(*baseline, *dir)
	if err != nil {
		fmt.Fprintf(out, "benchgate: %v\n", err)
		return 2
	}

	report := Report{
		SchemaVersion: schemaVersion,
		Date:          time.Now().UTC().Format("2006-01-02"),
		GoVersion:     runtime.Version(),
		Machine:       thisMachine(),
		Quick:         *quick,
	}
	for _, c := range suite(*quick) {
		fmt.Fprintf(out, "benchgate: running %-40s", c.Name)
		r, err := runCase(c)
		if err != nil {
			fmt.Fprintf(out, " ERROR: %v\n", err)
			return 2
		}
		fmt.Fprintf(out, " %4d iters  %8.1f iters/s  %9.2fms\n",
			r.Iterations, r.ItersPerSec, 1e3*r.TimeToTolerance)
		report.Cases = append(report.Cases, r)
	}
	report.TunedVsDefault = tunedVsDefault(report.Cases)
	for _, d := range report.TunedVsDefault {
		verdict := "tuned wins"
		if !d.TunedWins {
			verdict = "default wins"
		}
		fmt.Fprintf(out, "benchgate: tuned-vs-default %-16s iters ×%.2f  modeled ×%.2f  (%s)\n",
			d.Matrix, d.IterRatio, d.ModeledRatio, verdict)
	}
	figProblems := figure11(report.Cases, out)
	fleetRows, fleetProblems := runFleetSuite(*quick, out)
	report.Fleet = fleetRows
	certifyRows, certifyProblems := runCertifySuite(*quick, out)
	report.Certify = certifyRows
	sessionRows, sessionProblems := runSessionSuite(*quick, out)
	report.Sessions = sessionRows
	kernelRows, kernelProblems := runKernelSuite(*quick, out)
	report.Kernels = kernelRows
	methodRows, methodProblems := runMethodSuite(*quick, out)
	report.Methods = methodRows
	tuneRows, tuneProblems := runTuneSuite(*quick, out)
	report.Tune = tuneRows
	hostRows, hostProblems := runHostSweepSuite(*quick, out)
	report.HostSweep = hostRows
	inRun := figProblems + fleetProblems + certifyProblems + sessionProblems + kernelProblems +
		methodProblems + tuneProblems + hostProblems

	if !*noWrite {
		path := filepath.Join(*dir, "BENCH_"+report.Date+".json")
		if err := writeReport(path, report); err != nil {
			fmt.Fprintf(out, "benchgate: %v\n", err)
			return 2
		}
		fmt.Fprintf(out, "benchgate: wrote %s\n", path)
	}

	if base == nil {
		fmt.Fprintf(out, "benchgate: no baseline found; snapshot becomes the baseline\n")
		if inRun > 0 {
			return 1
		}
		return 0
	}
	code := verdict(*base, basePath, report, limits, out)
	if inRun > 0 && code == 0 {
		code = 1
	}
	return code
}

// figure11 gates the AMC device sweep against the shape of the paper's
// Figure 11, which is baseline-independent physics of the modeled topology
// coupled to the live iteration counts: two devices must beat one on
// modeled time, and three devices — whose exchanges cross the QPI socket
// bridge — must cost more than two. It prints one line per sweep row plus
// any violations, and returns the violation count.
func figure11(cases []CaseResult, out io.Writer) int {
	byDev := map[int]CaseResult{}
	for _, c := range cases {
		if c.Engine == "multigpu" && c.Strategy == "AMC" {
			byDev[c.Devices] = c
		}
	}
	g1, ok1 := byDev[1]
	g2, ok2 := byDev[2]
	g3, ok3 := byDev[3]
	if !ok1 || !ok2 || !ok3 {
		return 0 // sweep not in this suite
	}
	for _, c := range []CaseResult{g1, g2, g3} {
		fmt.Fprintf(out, "benchgate: figure11 AMC g%d  %4d iters  modeled %.4fs\n",
			c.Devices, c.Iterations, c.ModeledSeconds)
	}
	problems := 0
	if !(g2.ModeledSeconds < g1.ModeledSeconds) {
		fmt.Fprintf(out, "benchgate: REGRESSION figure11: 2 devices (%.4fs) must beat 1 (%.4fs)\n",
			g2.ModeledSeconds, g1.ModeledSeconds)
		problems++
	}
	if !(g3.ModeledSeconds > g2.ModeledSeconds) {
		fmt.Fprintf(out, "benchgate: REGRESSION figure11: 3 devices (%.4fs) must cost more than 2 (%.4fs) — QPI\n",
			g3.ModeledSeconds, g2.ModeledSeconds)
		problems++
	}
	return problems
}

// verdict prints the gate outcome and returns the process exit code.
func verdict(base Report, basePath string, current Report, lim Limits, out io.Writer) int {
	fmt.Fprintf(out, "benchgate: comparing against %s\n", basePath)
	if note := machineNote(base.Machine, current.Machine); note != "" {
		fmt.Fprintf(out, "benchgate: note: %s\n", note)
	}
	problems := Compare(base, current, lim)
	if len(problems) == 0 {
		fmt.Fprintf(out, "benchgate: PASS (%d cases gated)\n", len(current.Cases))
		return 0
	}
	for _, p := range problems {
		fmt.Fprintf(out, "benchgate: REGRESSION %s\n", p)
	}
	fmt.Fprintf(out, "benchgate: FAIL (%d regressions)\n", len(problems))
	return 1
}

// gate loads the baseline at basePath and runs the verdict against an
// already-measured report — the path the tests drive without re-running
// the suite.
func gate(basePath string, current Report, lim Limits, out io.Writer) int {
	base, err := readReport(basePath)
	if err != nil {
		fmt.Fprintf(out, "benchgate: %v\n", err)
		return 2
	}
	return verdict(*base, basePath, current, lim, out)
}

// loadBaseline resolves the comparison baseline: an explicit path, or the
// lexically newest BENCH_*.json in dir (the names embed ISO dates, so
// lexical order is date order). It must run before the snapshot is
// written, so a same-day rerun still compares against the committed state.
func loadBaseline(explicit, dir string) (*Report, string, error) {
	path := explicit
	if path == "" {
		matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
		if err != nil {
			return nil, "", err
		}
		if len(matches) == 0 {
			return nil, "", nil
		}
		sort.Strings(matches)
		path = matches[len(matches)-1]
	}
	r, err := readReport(path)
	if err != nil {
		return nil, "", fmt.Errorf("reading baseline %s: %w", path, err)
	}
	return r, path, nil
}
