package main

import "math"

// latencies returns the latencies of the successful ops of the traced or
// untraced slices.
func (res *runResult) latencies(traced bool) []float64 {
	var xs []float64
	for _, s := range res.slices {
		if s.traced != traced {
			continue
		}
		for _, o := range s.ops {
			if o.err == "" {
				xs = append(xs, o.latency())
			}
		}
	}
	return xs
}

// endToEnd computes the end-to-end metrics over the traced or untraced
// slices.
func (res *runResult) endToEnd(traced bool) map[string]float64 {
	lat := res.latencies(traced)
	var peak uint64
	for _, s := range res.slices {
		if s.traced == traced {
			peak = max(peak, s.peakRSS)
		}
	}
	return map[string]float64{
		"setup_s":       median(res.setups),
		"latency_s_p90": quantile(lat, 0.9),
		"mem_peak_mb":   float64(peak) / (1 << 20),
	}
}

// ungated computes, over the untraced slices, the figures the report prints
// but the benchmark does not gate: the median latency and the closed-loop
// throughput, which move with the share of time the host runs fast, and
// the highest percentile with minBeyond samples beyond it, which rests on
// preemption spikes.
func (res *runResult) ungated() map[string]float64 {
	lat := res.latencies(false)
	var secs float64
	for _, s := range res.slices {
		if !s.traced {
			secs += s.seconds
		}
	}
	m := map[string]float64{"latency_s_p50": round(median(lat), 6)}
	if secs > 0 {
		m["ops_per_s"] = round(float64(len(lat))/secs, 4)
	}
	for _, p := range []float64{0.99, 0.98, 0.95, 0.9} {
		if n := beyond(len(lat), p); n >= minBeyond {
			m["tail_percentile"], m["tail_samples"] = p, float64(n)
			m["latency_s_tail"] = round(quantile(lat, p), 6)
			break
		}
	}
	return m
}

// tracedOps returns the ops of the traced slices by op id.
func (res *runResult) tracedOps() map[int]opRecord {
	ops := map[int]opRecord{}
	for _, s := range res.slices {
		if s.traced {
			for _, o := range s.ops {
				ops[o.id] = o
			}
		}
	}
	return ops
}

// perLayer computes the per-layer metrics of a traced run.
func (res *runResult) perLayer(w *workload) map[string]float64 {
	ops := res.tracedOps()
	var post, queue, attempt, getS []float64
	for _, o := range ops {
		if o.err != "" {
			continue
		}
		if o.postEnd.IsZero() { // session step: one POST, timed by the service as well
			post = append(post, o.latency())
			attempt = append(attempt, o.stepWall)
			continue
		}
		post = append(post, o.postEnd.Sub(o.start).Seconds())
		queue = append(queue, o.started.Sub(o.created).Seconds())
		attempt = append(attempt, o.finished.Sub(o.started).Seconds())
		getS = append(getS, o.end.Sub(o.getStart).Seconds())
	}
	var decode, parse, fprint, solve, resid, step, overhead []float64
	var iters, warm []float64
	for _, p := range res.probes {
		decode = append(decode, p.decode)
		if p.parse > 0 {
			parse = append(parse, p.parse)
			fprint = append(fprint, p.fprint)
		}
		solve = append(solve, p.solve)
		resid = append(resid, p.residual)
		iters = append(iters, float64(p.solveIters))
		o := ops[p.op]
		if p.stepIters > 0 {
			step = append(step, p.step)
			warm = append(warm, float64(p.stepIters))
			overhead = append(overhead, o.stepWall-p.step)
		} else if p.solveIters > 0 {
			// Scale the probe to the service's iteration count: the
			// goroutine engine's count varies by one between runs.
			overhead = append(overhead, o.finished.Sub(o.started).Seconds()-p.solve*float64(o.iters)/float64(p.solveIters))
		}
	}

	var nOps float64
	d := counters{}
	var alloc, cycles, retained float64
	for _, s := range res.slices {
		if !s.traced {
			continue
		}
		nOps += float64(len(s.ops))
		for k, v := range s.after {
			d[k] += v - s.before[k]
		}
		alloc += float64(s.gcAfter.allocBytes - s.gcBefore.allocBytes)
		cycles += float64(s.gcAfter.cycles - s.gcBefore.cycles)
		retained += s.retained
	}
	ratio := func(hits, lookups float64) float64 {
		if lookups == 0 {
			return 1 // no lookups, so no cold work
		}
		return hits / lookups
	}
	m := map[string]float64{
		"service.post_s":             median(post),
		"service.decode_s":           median(decode),
		"sparse.parse_s":             median(parse),
		"service.fingerprint_s":      median(fprint),
		"service.queue_wait_s":       median(queue),
		"service.attempt_s":          median(attempt),
		"service.iterate_overhead_s": median(overhead),
		"service.get_s":              median(getS),
		"service.plan_hit_ratio": ratio(d["service_plan_cache_hits_total"],
			d["service_plan_cache_hits_total"]+d["service_plan_cache_misses_total"]),
		"service.cert_hit_ratio": ratio(d["service_certify_cache_hits_total"]+d["service_certify_coalesced_total"],
			d["service_certify_cache_hits_total"]+d["service_certify_coalesced_total"]+d["service_certify_checks_total"]),
		"service.tune_hit_ratio": ratio(d["service_tune_cache_hits_total"],
			d["service_tune_cache_hits_total"]+d["service_tune_searches_total"]),
		"mats.generate_s":          res.setup.generate,
		"certify.certify_s":        res.setup.certify,
		"tune.tune_s":              res.setup.tune,
		"tune.probe_solves":        float64(res.setup.probeSolves),
		"core.plan_build_s":        res.setup.planBuild,
		"core.analyze_s":           res.setup.analyze,
		"core.analyze_clustered_s": res.setup.analyzeClustered,
		"core.solve_s":             median(solve),
		"core.iters":               median(iters),
		"core.parallel_efficiency": res.setup.parallelEfficiency,
		"core.step_s":              median(step),
		"core.warm_iters":          median(warm),
		"host.ref_ms":              median([]float64{res.host.RefStartMS, res.host.RefEndMS}),
	}
	if nOps > 0 {
		m["service.retained_kb_per_job"] = retained / nOps / 1024
		m["core.block_sweeps_per_op"] = d["core_block_sweeps_total"] / nOps
		m["gc.alloc_mb_per_op"] = alloc / nOps / (1 << 20)
		m["gc.cycles_per_op"] = cycles / nOps
	}
	if it := m["core.iters"]; it > 0 && m["core.solve_s"] > 0 {
		sweeps := it * float64(res.runner.localIters()) * float64(res.runner.nnz())
		m["core.sweep_ns_per_nnz"] = m["core.solve_s"] / sweeps * 1e9
		m["core.residual_share"] = it * median(resid) / m["core.solve_s"]
	}
	return m
}

// graft names, per workload, the inner-layer calls the service makes inside
// each handler or job span on one op's path (read from internal/service:
// the POST handler decodes the body and Submit resolves the matrix; the
// worker resolves it again before it solves). The probes timed each call on
// the same input; grafting their durations into the op's span tree lets the
// enclosing span's self time show what the model leaves unexplained.
var graft = map[string]map[string][]string{
	"solve-large": {
		"service.post":    {"service.decode"},
		"service.attempt": {"core.solve"},
	},
	"upload-solve": {
		"service.post":    {"service.decode", "sparse.parse", "service.fingerprint"},
		"service.attempt": {"sparse.parse", "service.fingerprint", "core.solve"},
	},
	"session-stream": {
		"service.post": {"service.decode", "core.step"},
	},
}

// attribution builds each probed op's span tree (the op's own spans plus the
// grafted probe durations laid end to end inside their parent) and returns
// the mean self time per op of every span name, the mean op latency, and
// whether the calls grafted into some parent span exceed it by more than a
// quarter on average (the path model no longer matches the program).
func (res *runResult) attribution(w *workload) (self map[string]float64, opMean float64, stale bool) {
	byOp := map[int][]span{}
	res.tr.mu.Lock()
	for _, s := range res.tr.spans {
		if s.Op >= 0 && (s.Name == "op" || isOpChild(s.Name)) {
			byOp[s.Op] = append(byOp[s.Op], s)
		}
	}
	next := len(res.tr.spans) // ids for grafted spans, above every recorded one
	res.tr.mu.Unlock()
	ops := res.tracedOps()
	self = map[string]float64{}
	// Per parent span name, summed over ops: grafted time beyond the parent,
	// and the parent's own duration.
	excess, parentDur := map[string]float64{}, map[string]float64{}
	n := 0
	for _, p := range res.probes {
		tree := append([]span(nil), byOp[p.op]...)
		durs := map[string]float64{
			"service.decode": p.decode, "sparse.parse": p.parse,
			"service.fingerprint": p.fprint, "core.step": p.step,
			"core.solve": p.solve,
		}
		if o := ops[p.op]; p.solveIters > 0 && o.iters > 0 {
			durs["core.solve"] = p.solve * float64(o.iters) / float64(p.solveIters)
		}
		for _, parent := range byOp[p.op] {
			at := parent.Start
			for _, name := range graft[w.name][parent.Name] {
				d := durs[name]
				tree = append(tree, span{ID: next, Parent: parent.ID, Op: p.op, Name: name, Start: at, End: at + d})
				next++
				at += d
			}
		}
		for name, v := range selfTimes(tree) {
			self[name] += v
		}
		for _, s := range byOp[p.op] {
			if s.Name == "op" {
				opMean += s.dur()
			}
			for _, name := range graft[w.name][s.Name] {
				excess[s.Name] += durs[name]
			}
			if len(graft[w.name][s.Name]) > 0 {
				excess[s.Name] -= s.dur()
				parentDur[s.Name] += s.dur()
			}
		}
		n++
	}
	if n == 0 {
		return self, 0, stale
	}
	for k := range self {
		self[k] /= float64(n)
	}
	for name, v := range excess {
		// The probes ran at other moments than their ops, and the host's
		// speed drifts (see README.md), so only an excess beyond a quarter
		// of the parent marks a path the table no longer describes.
		stale = stale || v > 0.25*parentDur[name]
	}
	return self, opMean / float64(n), stale
}

func isOpChild(name string) bool {
	switch name {
	case "service.post", "service.queue_wait", "service.attempt", "service.get":
		return true
	}
	return false
}

// focus checks the workload's stated focus on the traced run: the share of
// an op (or of setup) that the workload exists to exercise.
func (res *runResult) focus(w *workload, self map[string]float64, opMean float64) map[string]any {
	var part, whole float64
	var what string
	switch w.name {
	case "solve-large":
		what = "core self time / op latency"
		part, whole = self["core.solve"], opMean
	case "upload-solve":
		what = "(decode + parse + fingerprint) self time / op latency"
		part, whole = self["service.decode"]+self["sparse.parse"]+self["service.fingerprint"], opMean
	case "session-stream":
		what = "tune.tune_s / setup_s"
		part, whole = res.setup.tune, median(res.setups)
	}
	share := 0.0
	if whole > 0 {
		share = part / whole
	}
	f := map[string]any{"what": what, "share": round(share, 4), "majority": share > 0.5}
	if w.name == "session-stream" && whole > 0 {
		// The spectral pre-flight competes with the tuner for set-up.
		f["analyze_share"] = round(res.setup.analyze/whole, 4)
	}
	return f
}

// report collects what a reader needs beside the metrics: the host and
// build, the run's shape, the tail percentile's support, the counter
// cross-checks and, for a traced run, the self-time attribution, the focus
// check and the tracing overhead.
func (res *runResult) report(w *workload, seed int64) map[string]any {
	lat := res.latencies(false)
	rep := map[string]any{
		"workload":        w.name,
		"seed":            seed,
		"clients":         w.clients,
		"host":            res.host,
		"services":        len(res.setups),
		"setup_samples_s": roundAll(res.setups, 4),
		"elapsed_s":       round(res.elapsed, 2),
		"p90_samples":     beyond(len(lat), 0.9),
		"ops_measured":    len(lat),
		"ungated":         res.ungated(),
	}
	var epochP50 []float64
	for _, s := range res.slices {
		var xs []float64
		for _, o := range s.ops {
			if o.err == "" {
				xs = append(xs, o.latency())
			}
		}
		epochP50 = append(epochP50, round(median(xs), 6))
	}
	rep["service_p50_s"] = epochP50
	if beyond(len(lat), 0.9) < minBeyond {
		rep["p90_warning"] = "fewer than 10 samples beyond the 90th percentile"
	}
	var sweeps, ops float64
	for _, s := range res.slices {
		sweeps += delta(s.before, s.after, "core_block_sweeps_total")
		ops += float64(len(s.ops))
	}
	if ops > 0 {
		rep["block_sweeps_per_op"] = round(sweeps/ops, 3)
	}
	var failures []string
	for _, s := range res.slices {
		for _, o := range s.ops {
			if o.err != "" && len(failures) < 5 {
				failures = append(failures, o.err)
			}
		}
	}
	if len(failures) > 0 {
		rep["failures"] = failures
	}
	if len(res.wrong) > 0 {
		rep["wrong"] = res.wrong
	}
	if !res.traced {
		return rep
	}
	untraced, traced := res.endToEnd(false), res.endToEnd(true)
	rep["end_to_end_untraced"] = roundMap(untraced)
	rep["end_to_end_traced"] = roundMap(traced)
	if u := untraced["latency_s_p90"]; u > 0 {
		rep["tracing_overhead"] = round(traced["latency_s_p90"]/u-1, 4)
	}
	self, opMean, stale := res.attribution(w)
	shares := map[string]float64{}
	for k, v := range self {
		if opMean > 0 {
			shares[k] = round(v/opMean, 4)
		}
	}
	rep["self_share_of_op"] = shares
	rep["op_mean_s"] = round(opMean, 6)
	rep["focus"] = res.focus(w, self, opMean)
	if stale {
		rep["graft_warning"] = "the calls grafted into a span exceed it by more than a quarter: the path model in graft is out of date"
	}
	rep["probed_ops"] = len(res.probes)
	return rep
}

func round(v float64, digits int) float64 {
	p := math.Pow(10, float64(digits))
	return math.Round(v*p) / p
}

func roundAll(xs []float64, digits int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = round(x, digits)
	}
	return out
}

func roundMap(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = round(v, 6)
	}
	return out
}
