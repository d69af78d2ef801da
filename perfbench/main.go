// Command perfbench is the repository's benchmark. It drives an in-process
// solver service (internal/service, configured as cmd/solverd builds it from
// its default flags) through the service's public HTTP handler with at most
// two closed-loop clients, observes job completion on the job's Done
// channel, and prints one JSON object as the last line of standard output:
// the end-to-end metrics of the workload, or with --trace 1 the per-layer
// metrics, with the operations attempted and failed.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload solve-large --seed 1 --seconds 30 --trace 0
//
// README.md in this directory documents the workloads, the metrics, the
// layer map and how to read a traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run. The latency is the 90th
// percentile, not the median: on a host whose speed flickers between two
// modes, the median moves with the share of fast time while the 90th
// percentile stays in the slow mode (README.md, "Host drift measured").
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_s_p90", "s"},
	{"mem_peak_mb", "MiB"},
}

// perLayer are the metrics of a traced run. A layer the workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"service.post_s", "s"},
	{"service.decode_s", "s"},
	{"sparse.parse_s", "s"},
	{"service.fingerprint_s", "s"},
	{"service.queue_wait_s", "s"},
	{"service.attempt_s", "s"},
	{"service.iterate_overhead_s", "s"},
	{"service.get_s", "s"},
	{"service.plan_hit_ratio", "ratio"},
	{"service.cert_hit_ratio", "ratio"},
	{"service.tune_hit_ratio", "ratio"},
	{"service.retained_kb_per_job", "KiB"},
	{"mats.generate_s", "s"},
	{"certify.certify_s", "s"},
	{"tune.tune_s", "s"},
	{"tune.probe_solves", "count"},
	{"core.plan_build_s", "s"},
	{"core.analyze_s", "s"},
	{"core.analyze_clustered_s", "s"},
	{"core.solve_s", "s"},
	{"core.iters", "count"},
	{"core.sweep_ns_per_nnz", "ns"},
	{"core.residual_share", "ratio"},
	{"core.block_sweeps_per_op", "count"},
	{"core.parallel_efficiency", "ratio"},
	{"core.step_s", "s"},
	{"core.warm_iters", "count"},
	{"gc.alloc_mb_per_op", "MiB"},
	{"gc.cycles_per_op", "count"},
	{"host.ref_ms", "ms"},
}

// minSetups is the fewest fresh services a run sets up, so setup_s is a
// median even when few epochs fit in the measured time.
const minSetups = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: solve-large, upload-solve or session-stream")
	seed := fs.Int64("seed", 1, "seed of the client-side inputs and request seeds")
	seconds := fs.Float64("seconds", 10, "measured seconds (summed over the run's services)")
	trace := fs.Int("trace", 0, "1: traced run, printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	res, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep := res.report(w, *seed)
	if *trace == 1 {
		path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed))
		if err := res.tr.write(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
		rep["spans_file"] = path
	}
	line, err := json.Marshal(map[string]any{"report": rep})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))

	defs, values := endToEnd, res.endToEnd(false)
	if *trace == 1 {
		defs, values = perLayer, res.perLayer(w)
	}
	out := map[string]any{}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.wrong = append(res.wrong, fmt.Sprintf("metric %s is not finite", d.name))
			v = 0
		}
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	attempted, failed := res.counts()
	final, err := json.Marshal(map[string]any{
		"correct":   len(res.wrong) == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(final))
	return 0
}

// runResult is everything one run measured.
type runResult struct {
	host    hostInfo
	slices  []sliceResult
	setups  []float64
	probes  []probeRec
	setup   setupCost
	wrong   []string // failed correctness checks: wrong answers, counter mismatches
	tr      *tracer
	runner  runner
	traced  bool
	elapsed float64
}

// measure runs fresh services one after another until the measured slices
// add up to budget. A traced run alternates untraced and traced services
// (half the budget each) and re-runs the inner layers of the traced ones.
func measure(w *workload, seed int64, budget time.Duration, traced bool) (*runResult, error) {
	start := time.Now()
	res := &runResult{host: collectHost("."), traced: traced, runner: w.newRunner(seed)}
	res.host.RefStartMS = refLoopMS()
	r := res.runner
	if traced {
		res.tr = newTracer()
		var err error
		if res.setup, err = r.setupLayers(res.tr); err != nil {
			return nil, fmt.Errorf("setup layers: %w", err)
		}
	}
	var nextID atomic.Int64
	var spent [2]time.Duration // measured time of untraced [0] and traced [1] slices
	for e := 0; ; e++ {
		kind, want := 0, budget
		if traced {
			want = budget / 2
			if spent[1] < spent[0] {
				kind = 1
			}
		}
		if spent[kind] >= want {
			break
		}
		s, ep, err := runEpoch(w, r, e, want-spent[kind], kind == 1, res.tr, &nextID)
		if err != nil {
			return nil, err
		}
		res.setups = append(res.setups, s.setupSeconds)
		res.wrong = append(res.wrong, crossCheck(s)...)
		if kind == 1 {
			if err := res.probeEpoch(w, ep, s); err != nil {
				shutdown(ep.svc)
				return nil, err
			}
		}
		shutdown(ep.svc)
		res.slices = append(res.slices, s)
		spent[kind] += time.Duration(s.seconds * float64(time.Second))
	}
	for len(res.setups) < minSetups {
		runtime.GC()
		t0 := time.Now()
		ep := newEpoch(len(res.setups))
		err := r.warmUp(ep)
		res.setups = append(res.setups, time.Since(t0).Seconds())
		shutdown(ep.svc)
		if err != nil {
			return nil, fmt.Errorf("setup-only service: %w", err)
		}
	}
	res.host.RefEndMS = refLoopMS()
	res.elapsed = time.Since(start).Seconds()
	return res, nil
}

// probeEpoch re-runs the inner layers on the first successful ops of a
// traced slice and fetches full solutions for a sample of inputs.
func (res *runResult) probeEpoch(w *workload, ep *epoch, s sliceResult) error {
	ops := append([]opRecord(nil), s.ops...)
	sort.Slice(ops, func(i, j int) bool { return ops[i].id < ops[j].id })
	var sample []opRecord
	for _, o := range ops {
		if o.err == "" && len(sample) < w.probeOps {
			sample = append(sample, o)
		}
	}
	p, err := res.runner.probe(ep, sample, res.tr)
	if err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}
	res.probes = append(res.probes, p...)
	if err := res.runner.verify(ep); err != nil {
		res.wrong = append(res.wrong, "solution check: "+err.Error())
	}
	return nil
}

// crossCheck compares the service's counters over a slice with what the
// slice's operations reported.
func crossCheck(s sliceResult) []string {
	var bad []string
	iters, jobs, failed := 0, 0, 0
	for _, o := range s.ops {
		iters += o.iters
		if !o.postEnd.IsZero() {
			jobs++
		}
		if o.err != "" {
			failed++
		}
		if o.wrong {
			bad = append(bad, "wrong answer: "+o.err)
		}
	}
	if failed == 0 {
		if d := delta(s.before, s.after, "core_global_iterations_total"); d != float64(iters) {
			bad = append(bad, fmt.Sprintf("core_global_iterations_total moved %g, operations reported %d", d, iters))
		}
	}
	lookups := delta(s.before, s.after, "service_plan_cache_hits_total") + delta(s.before, s.after, "service_plan_cache_misses_total")
	if lookups != float64(jobs) {
		bad = append(bad, fmt.Sprintf("plan-cache hits+misses moved %g over %d job attempts", lookups, jobs))
	}
	return bad
}

func (res *runResult) counts() (attempted, failed int) {
	for _, s := range res.slices {
		for _, o := range s.ops {
			attempted++
			if o.err != "" {
				failed++
			}
		}
	}
	return attempted, failed
}
