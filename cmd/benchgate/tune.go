package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/mats"
	"repro/internal/tune"
	"repro/internal/vecmath"
)

// TuneScenario is one auto-tuner row of the snapshot: tune.Tune on one
// matrix at GOMAXPROCS 1 and at NumCPU, alternating which runs first, best
// wall time of each side. The grid and method stages run their probes side
// by side, so the parallel side should be faster wherever there are cores;
// the Result must be identical on both sides, always.
type TuneScenario struct {
	Name   string `json:"name"`
	Matrix string `json:"matrix"`
	N      int    `json:"n"`
	Reps   int    `json:"reps"`
	// CPUs is the parallel side's GOMAXPROCS (NumCPU).
	CPUs            int     `json:"cpus"`
	SerialSeconds   float64 `json:"serial_seconds"`
	ParallelSeconds float64 `json:"parallel_seconds"`
	// Speedup is serial/parallel; SpeedupGated records whether the
	// machine had enough cores for tuneSpeedupFloor to be enforced.
	Speedup      float64 `json:"speedup"`
	SpeedupGated bool    `json:"speedup_gated,omitempty"`
	// SameResult reports whether every run on both sides returned the same
	// Result; ProbeSolves is that Result's probe count.
	SameResult  bool `json:"same_result"`
	ProbeSolves int  `json:"probe_solves"`
}

// tuneSpeedupFloor is the enforced serial/parallel ratio on gated (≥4
// core) machines, as batchSpeedupFloor is for batches: 28 of a default
// search's 36 probes run side by side (five k probes per block size, then
// three β probes), so anything under this means the stages serialized.
const tuneSpeedupFloor = 1.3

// runTuneSuite measures the tuner row and returns it with the count of
// gate violations.
func runTuneSuite(quick bool, out io.Writer) ([]TuneScenario, int) {
	reps := 5
	if quick {
		reps = 3
	}
	tm, err := mats.Generate("fv1")
	if err != nil {
		fmt.Fprintf(out, "benchgate: REGRESSION tune/fv1: %v\n", err)
		return nil, 1
	}
	a := tm.A
	b := make([]float64, a.Rows)
	a.MulVec(b, vecmath.Ones(a.Cols))
	row := TuneScenario{Name: "tune/fv1", Matrix: "fv1", N: a.Rows, Reps: reps, CPUs: runtime.NumCPU(), SameResult: true}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	procs := [2]int{1, row.CPUs}
	var best [2]float64
	var first *tune.Result
	for rep := 0; rep < reps; rep++ {
		for k := range 2 {
			side := (rep + k) % 2 // alternate which side runs first
			runtime.GOMAXPROCS(procs[side])
			start := time.Now()
			res, err := tune.Tune(a, b, tune.Config{Seed: 1})
			elapsed := time.Since(start).Seconds()
			if err != nil {
				fmt.Fprintf(out, "benchgate: REGRESSION %s: tune at GOMAXPROCS %d: %v\n", row.Name, procs[side], err)
				return []TuneScenario{row}, 1
			}
			if first == nil {
				first = &res
			}
			row.SameResult = row.SameResult && res == *first
			if best[side] == 0 || elapsed < best[side] {
				best[side] = elapsed
			}
		}
	}
	row.SerialSeconds, row.ParallelSeconds = best[0], best[1]
	row.ProbeSolves = first.ProbeSolves
	if row.ParallelSeconds > 0 {
		row.Speedup = row.SerialSeconds / row.ParallelSeconds
	}
	row.SpeedupGated = row.CPUs >= 4
	gateNote := "gated"
	if !row.SpeedupGated {
		gateNote = fmt.Sprintf("not gated: %d cores", row.CPUs)
	}
	fmt.Fprintf(out, "benchgate: %s  %d probe solves  serial %.1fms  %d procs %.1fms  speedup ×%.2f (%s)\n",
		row.Name, row.ProbeSolves, 1e3*row.SerialSeconds, row.CPUs, 1e3*row.ParallelSeconds, row.Speedup, gateNote)
	problems := tuneProblems(row)
	for _, p := range problems {
		fmt.Fprintf(out, "benchgate: REGRESSION %s: %s\n", row.Name, p)
	}
	return []TuneScenario{row}, len(problems)
}

// tuneProblems gates a measured tuner row: a Result that differs between
// GOMAXPROCS settings always fails, and the speedup must reach
// tuneSpeedupFloor where the row is gated.
func tuneProblems(row TuneScenario) []string {
	var out []string
	if !row.SameResult {
		out = append(out, "tune.Tune returned different Results at GOMAXPROCS 1 and "+fmt.Sprint(row.CPUs))
	}
	if row.SpeedupGated && row.Speedup < tuneSpeedupFloor {
		out = append(out, fmt.Sprintf("only ×%.2f over GOMAXPROCS 1 (floor ×%.1f on %d cores)",
			row.Speedup, tuneSpeedupFloor, row.CPUs))
	}
	return out
}

// compareTune gates the tuner rows against the baseline for coverage
// only: their host seconds are gated in-run, side against side, not
// against another day's run on perhaps another machine.
func compareTune(base, current Report) []Problem {
	if len(base.Tune) == 0 || base.Quick != current.Quick {
		return nil
	}
	now := make(map[string]bool, len(current.Tune))
	for _, r := range current.Tune {
		now[r.Name] = true
	}
	var out []Problem
	for _, b := range base.Tune {
		if !now[b.Name] {
			out = append(out, Problem{Case: b.Name, Metric: "coverage (tune row missing from current run)"})
		}
	}
	return out
}

// Machine describes the host a report was measured on.
type Machine struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
}

// thisMachine describes the running host.
func thisMachine() *Machine {
	return &Machine{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: cpuModel()}
}

// cpuModel is the first "model name" of /proc/cpuinfo; "" where that is
// unreadable or has none.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if key, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return ""
}

// machineNote says why wall times may not compare: the baseline records
// no machine, or another one. It is "" when both reports name the same
// machine; the note changes no verdict.
func machineNote(base, current *Machine) string {
	switch {
	case base == nil:
		return "the baseline records no machine; its wall times may come from another host"
	case current != nil && *base != *current:
		return fmt.Sprintf("the baseline ran on another machine (%d CPUs, GOMAXPROCS %d, %q; this run %d, %d, %q); its wall times do not compare",
			base.NumCPU, base.GOMAXPROCS, base.CPUModel, current.NumCPU, current.GOMAXPROCS, current.CPUModel)
	}
	return ""
}
