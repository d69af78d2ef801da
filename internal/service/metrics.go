package service

import (
	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/metrics"
	"repro/internal/multigpu"
)

// instrument builds the service's metrics registry. Every queue, worker
// and plan-cache series is a callback reading the same source /statsz
// serializes (the queue channel, the cache counters, the outcome atomics),
// so GET /metricsz and GET /statsz agree by construction — there is no
// second set of books to drift.
//
// The solver-level sink (engine counters + residual ring) and the modeled
// device's gauges are registered in the same registry; runAttempt attaches
// the sink to every solve and updates the occupancy gauge per launch.
func (s *Service) instrument() {
	reg := metrics.NewRegistry()
	s.reg = reg
	s.solveMetrics = core.NewSolveMetrics(reg, 512)
	s.perf = gpusim.CalibratedModel()
	s.occupancy = s.perf.Instrument(reg)

	reg.GaugeFunc("service_queue_depth", "Jobs queued and not yet running.",
		func() float64 { return float64(s.queue.Depth()) })
	reg.GaugeFunc("service_queue_capacity", "Bound of the job queue.",
		func() float64 { return float64(s.queue.Capacity()) })
	reg.GaugeFunc("service_workers", "Solver worker-pool size.",
		func() float64 { return float64(s.queue.Workers()) })
	reg.GaugeFunc("service_busy_workers", "Workers currently running a job.",
		func() float64 { return float64(s.queue.Busy()) })

	reg.CounterFunc("service_jobs_submitted_total", "Jobs accepted into the queue.",
		s.submits.Load)
	reg.CounterFunc("service_jobs_done_total", "Jobs finished successfully.",
		s.dones.Load)
	reg.CounterFunc("service_jobs_failed_total", "Jobs finished with a non-cancellation error.",
		s.fails.Load)
	reg.CounterFunc("service_jobs_canceled_total", "Jobs canceled by client or deadline.",
		s.cancels.Load)
	reg.CounterFunc("service_jobs_rejected_total", "Submissions refused (validation, full queue, shutdown).",
		s.rejected.Load)
	reg.CounterFunc("service_job_retries_total", "Solve attempts beyond each job's first.",
		s.retries.Load)

	reg.CounterFunc("service_plan_cache_hits_total", "Plan-cache lookups served from cache.",
		func() uint64 { return s.cache.Stats().Hits })
	reg.CounterFunc("service_plan_cache_misses_total", "Plan-cache lookups that built a plan.",
		func() uint64 { return s.cache.Stats().Misses })
	reg.CounterFunc("service_plan_cache_evictions_total", "Plans evicted to respect the cache bounds.",
		func() uint64 { return s.cache.Stats().Evictions })
	reg.GaugeFunc("service_plan_cache_entries", "Plans resident in the cache.",
		func() float64 { return float64(s.cache.Stats().Entries) })
	reg.GaugeFunc("service_plan_cache_bytes", "Estimated bytes of resident plans.",
		func() float64 { return float64(s.cache.Stats().Bytes) })

	for _, strat := range []multigpu.Strategy{multigpu.AMC, multigpu.DC, multigpu.DK} {
		strat := strat
		reg.CounterFunc("service_device_solves_total",
			"Multi-device solve attempts by communication strategy.",
			s.deviceSolves[strat].Load, "strategy", strat.String())
	}

	for _, kern := range []core.KernelKind{core.KernelCSR, core.KernelStencil, core.KernelSELL} {
		kern := kern
		reg.CounterFunc("service_kernel_solves_total",
			"Solve attempts by resolved sweep kernel.",
			s.kernelSolves[kern].Load, "kernel", kern.String())
	}

	for _, rule := range []core.RuleKind{core.RuleJacobi, core.RuleRichardson2} {
		rule := rule
		reg.CounterFunc("service_method_solves_total",
			"Solve attempts by resolved update method.",
			s.methodSolves[rule].Load, "method", rule.String())
	}
	reg.CounterFunc("service_method_solves_total",
		"Solve attempts by resolved update method.",
		s.methodSolves[methodIdxMultigrid].Load, "method", methodMultigrid)

	s.wallHist = reg.Histogram("service_job_wall_seconds",
		"Wall time of finished jobs, attempts and backoff included.", nil)
	reg.GaugeFunc("service_draining", "1 once BeginDrain/Shutdown stopped admissions, else 0.",
		func() float64 {
			if s.Draining() {
				return 1
			}
			return 0
		})

	reg.CounterFunc("service_tune_searches_total", "Full auto-tune parameter searches executed.",
		func() uint64 { return s.cache.TuneStats().Searches })
	reg.CounterFunc("service_tune_cache_hits_total", "Auto-tune lookups served from the fingerprint cache.",
		func() uint64 { return s.cache.TuneStats().Hits })
	reg.CounterFunc("service_tune_probe_solves_total", "Short probe solves run by auto-tune searches.",
		func() uint64 { return s.cache.TuneStats().ProbeSolves })
	reg.CounterFunc("service_tune_cache_evictions_total", "Tunings evicted to respect the cache entry bound.",
		func() uint64 { return s.cache.TuneStats().Evictions })

	reg.CounterFunc("service_certify_checks_total", "Full admission certifications executed (certificate-cache misses).",
		func() uint64 { return s.cache.CertifyStats().Checks })
	reg.CounterFunc("service_certify_cache_hits_total", "Admission lookups served from the resident certificate cache.",
		func() uint64 { return s.cache.CertifyStats().Hits })
	reg.CounterFunc("service_certify_coalesced_total", "Admission lookups that joined an in-flight certification.",
		func() uint64 { return s.cache.CertifyStats().Coalesced })
	reg.CounterFunc("service_certify_cache_evictions_total", "Certificates evicted to respect the cache entry bound.",
		func() uint64 { return s.cache.CertifyStats().Evictions })
	reg.GaugeFunc("service_certify_cache_entries", "Certificates resident in the cache.",
		func() float64 { return float64(s.cache.CertifyStats().Entries) })
	reg.CounterFunc("service_certify_rejections_total", "Enforce-mode submissions refused with a divergent certificate (422).",
		s.certRejected.Load)
	reg.CounterFunc("service_certify_fallbacks_total", "Enforce-mode divergent verdicts rerouted to the GMRES fallback.",
		s.certFallbacks.Load)

	reg.GaugeFunc("service_session_active", "Solve sessions currently accepting steps.",
		func() float64 { return float64(s.sessions.activeCount()) })
	reg.CounterFunc("service_sessions_created_total", "Solve sessions created.",
		s.sessions.created.Load)
	reg.CounterFunc("service_sessions_expired_total", "Sessions reaped by the idle-TTL sweep.",
		s.sessions.expired.Load)
	reg.CounterFunc("service_sessions_closed_total", "Sessions closed by the client.",
		s.sessions.closed.Load)
	reg.CounterFunc("service_session_steps_total", "Session steps finished successfully.",
		s.sessions.steps.Load)
	reg.CounterFunc("service_session_step_failures_total", "Session steps finished with an error.",
		s.sessions.stepFails.Load)
	reg.GaugeFunc("service_session_inflight_steps", "Session steps currently executing.",
		func() float64 { return float64(s.sessions.inflight.Load()) })

	reg.CounterFunc("service_batch_jobs_total", "Batched solve jobs accepted (one queue slot each).",
		s.batchSubmits.Load)
	reg.CounterFunc("service_batch_systems_total", "Systems carried by accepted batch jobs.",
		s.batchSystems.Load)
	reg.CounterFunc("service_batch_system_failures_total", "Per-system failures inside finished batch jobs.",
		s.batchSystemFails.Load)
}

// Metrics returns the service's metrics registry (the /metricsz source).
func (s *Service) Metrics() *metrics.Registry { return s.reg }

// SolveMetrics returns the solver-level sink attached to every job's
// solve: per-engine counters and the bounded residual-history ring.
func (s *Service) SolveMetrics() *core.SolveMetrics { return s.solveMetrics }
