package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/mats"
	"repro/internal/vecmath"
)

// HostSweepScenario is one host-measured row of the paper's Table 4: the
// cost of async-(k) against async-(1) when the block sweeps run on this
// machine's cores instead of the modeled GPU. Each rep solves the same
// fixed-iteration system once per k, interleaved, on the goroutine engine
// with one worker and no residual checks (Tolerance 0: only the final
// residual of each solve is computed), so the wall time is the block
// kernels' gathers, sweeps and publishes.
type HostSweepScenario struct {
	Name       string `json:"name"`
	Matrix     string `json:"matrix"`
	Kernel     string `json:"kernel"`
	N          int    `json:"n"`
	NNZ        int    `json:"nnz"`
	BlockSize  int    `json:"block_size"`
	Iterations int    `json:"iterations"`
	Reps       int    `json:"reps"`
	// NsPerNNZ is async-(1)'s wall time per nonzero per global iteration.
	NsPerNNZ Spread `json:"ns_per_nnz"`
	// Cost holds, per k, the rep-by-rep wall-time ratio of async-(k) to
	// the same rep's async-(1).
	Cost []HostSweepCost `json:"cost"`
}

// HostSweepCost is one k's cost relative to async-(1).
type HostSweepCost struct {
	K     int    `json:"k"`
	Ratio Spread `json:"ratio"`
}

// Spread is the median and range of a row's per-rep readings.
type Spread struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// hostSweepKs are the local-iteration counts of the paper's Table 4.
var hostSweepKs = []int{1, 2, 5, 9}

// hostSweepMinCost is the one in-run check: async-(9) must cost at least
// this multiple of async-(1), so a kernel that skips its local sweeps
// (×1.0) fails the row. Table 4's "local iterations almost come for free"
// holds on the GPU, where the sweeps run out of shared memory; on the host
// every sweep streams the block's entries again (×2.5–4.7 measured).
const hostSweepMinCost = 1.5

// runHostSweepSuite measures the host Table 4 rows and returns them with
// the count of gate violations. Nothing is compared against the baseline.
func runHostSweepSuite(quick bool, out io.Writer) ([]HostSweepScenario, int) {
	iters, reps := 40, 5
	if quick {
		iters, reps = 20, 3
	}
	var rows []HostSweepScenario
	problems := 0
	for _, name := range []string{"Trefethen_20000", "fv3"} {
		row, err := measureHostSweep(name, 448, iters, reps)
		if err != nil {
			fmt.Fprintf(out, "benchgate: REGRESSION hostsweep/%s: %v\n", name, err)
			problems++
			continue
		}
		fmt.Fprintf(out, "benchgate: %s  %s  async-(1) %.2f ns/nnz (%.2f–%.2f)", row.Name, row.Kernel,
			row.NsPerNNZ.Median, row.NsPerNNZ.Min, row.NsPerNNZ.Max)
		for _, c := range row.Cost[1:] {
			fmt.Fprintf(out, "  k=%d ×%.2f (%.2f–%.2f)", c.K, c.Ratio.Median, c.Ratio.Min, c.Ratio.Max)
		}
		fmt.Fprintln(out)
		if p := hostSweepProblem(row); p != "" {
			fmt.Fprintf(out, "benchgate: REGRESSION %s: %s\n", row.Name, p)
			problems++
		}
		rows = append(rows, row)
	}
	return rows, problems
}

// hostSweepProblem gates a measured row: async-(9) must cost at least
// hostSweepMinCost × async-(1).
func hostSweepProblem(row HostSweepScenario) string {
	for _, c := range row.Cost {
		if c.K == 9 && c.Ratio.Median < hostSweepMinCost {
			return fmt.Sprintf("async-(9) costs only ×%.2f async-(1) (floor ×%.1f): the local sweeps are not running",
				c.Ratio.Median, hostSweepMinCost)
		}
	}
	return ""
}

// measureHostSweep times the fixed-iteration solves of one matrix, every
// k once per rep, rotating which k runs first.
func measureHostSweep(name string, bs, iters, reps int) (HostSweepScenario, error) {
	tm, err := mats.Generate(name)
	if err != nil {
		return HostSweepScenario{}, err
	}
	a := tm.A
	plan, err := core.NewPlan(a, bs, false)
	if err != nil {
		return HostSweepScenario{}, err
	}
	row := HostSweepScenario{
		Name: "hostsweep/" + name, Matrix: name, Kernel: plan.Kernel().String(),
		N: a.Rows, NNZ: a.NNZ(), BlockSize: bs, Iterations: iters, Reps: reps,
	}
	b := make([]float64, a.Rows)
	a.MulVec(b, vecmath.Ones(a.Cols))
	secs := make([][]float64, len(hostSweepKs)) // secs[ki][rep]
	for rep := 0; rep < reps; rep++ {
		for j := range hostSweepKs {
			ki := (rep + j) % len(hostSweepKs)
			opt := core.Options{
				BlockSize: bs, LocalIters: hostSweepKs[ki], MaxGlobalIters: iters,
				Engine: core.EngineGoroutine, Workers: 1, Seed: 1,
			}
			start := time.Now()
			if _, err := core.SolveWithPlan(plan, b, opt); err != nil {
				return row, err
			}
			secs[ki] = append(secs[ki], time.Since(start).Seconds())
		}
	}
	perNNZ := make([]float64, reps)
	for rep, s := range secs[0] {
		perNNZ[rep] = 1e9 * s / float64(iters*row.NNZ)
	}
	row.NsPerNNZ = spreadOf(perNNZ)
	for ki, k := range hostSweepKs {
		ratios := make([]float64, reps)
		for rep := range ratios {
			ratios[rep] = secs[ki][rep] / secs[0][rep]
		}
		row.Cost = append(row.Cost, HostSweepCost{K: k, Ratio: spreadOf(ratios)})
	}
	return row, nil
}

// spreadOf summarizes readings (sorted in place).
func spreadOf(xs []float64) Spread {
	sort.Float64s(xs)
	n := len(xs)
	med := xs[n/2]
	if n%2 == 0 {
		med = (xs[n/2-1] + xs[n/2]) / 2
	}
	return Spread{Median: med, Min: xs[0], Max: xs[n-1]}
}
