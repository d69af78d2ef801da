// Command solverd serves block-asynchronous solves over HTTP: a bounded
// job queue drained by a solver worker pool, with a per-matrix plan cache
// that amortizes setup (block partition, block views, inverse diagonal,
// subdomain LU factors) across requests and a certificate cache that
// certifies each matrix once.
//
// Endpoints:
//
//	POST   /v1/solve     submit a solve (JSON body; see service.SolveRequest).
//	                     "tune": "auto" runs the per-matrix parameter search;
//	                     "devices" + "strategy" (amc|dc|dk) route the job onto
//	                     the live multi-device executor, validated against the
//	                     modeled topology at submit time
//	POST   /v1/batch     submit N right-hand sides sharing one matrix as a
//	                     single job occupying one queue slot, solved with
//	                     bounded cross-system parallelism and per-system
//	                     convergence reporting (see service.BatchRequest)
//	GET    /v1/jobs      list jobs
//	GET    /v1/jobs/{id} job status / progress / result
//	DELETE /v1/jobs/{id} cancel a queued or running job
//	POST   /v1/sessions  create a streaming solve session: one plan +
//	                     tuning + certificate resolved once, then each
//	                     POST /v1/sessions/{id}/step solves a new
//	                     right-hand side warm-started from the previous
//	                     iterate ("stream": "sse" or "json" streams live
//	                     residual progress); idle sessions expire after
//	                     -session-ttl (see docs/SESSIONS.md)
//	GET    /v1/sessions  list sessions; GET/DELETE /v1/sessions/{id}
//	                     inspect / close one
//	GET    /healthz      liveness
//	GET    /readyz       readiness: 503 the moment a drain begins, so a
//	                     fleet gateway stops routing here while in-flight
//	                     jobs finish
//	GET    /statsz       queue depth, worker utilization, plan-cache hit rate
//	GET    /metricsz     Prometheus text exposition of the same counters,
//	                     plus per-engine solver counters, residual tracing
//	                     and modeled-device gauges
//
// With -pprof the standard net/http/pprof profiling handlers are mounted
// under /debug/pprof/ (off by default: profiles expose internals).
//
// On SIGINT/SIGTERM the daemon stops accepting work and drains in-flight
// solves, canceling whatever is still running when -drain-timeout expires.
//
// Usage:
//
//	solverd -addr :8080 -workers 4 -queue-depth 64
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "HTTP listen address")
		workers      = flag.Int("workers", 4, "solver worker pool size")
		queueDepth   = flag.Int("queue-depth", 64, "bounded job queue depth")
		cacheEntries = flag.Int("cache-entries", 64, "entry bound of each per-matrix cache: plans, certificates, tunings and named matrices (negative: unlimited)")
		cacheBytes   = flag.Int64("cache-bytes", 0, "plan cache byte bound (0: unlimited)")
		analyze      = flag.Bool("analyze", true, "render each solve's analysis advice from the matrix's convergence certificate (certified once per matrix)")
		jobTimeout   = flag.Duration("job-timeout", 0, "default per-job wall-time bound (0: none)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "shutdown drain bound before canceling jobs")
		maxAttempts  = flag.Int("max-attempts", 1, "runs per job before a divergent/non-converged failure is terminal")
		retryBase    = flag.Duration("retry-base", 100*time.Millisecond, "backoff before the first retry (doubles per attempt)")
		retryMax     = flag.Duration("retry-max", 5*time.Second, "backoff cap")
		chaos        = flag.Bool("chaos", false, "admit chaos-injection requests (X-Chaos header / chaos JSON block)")
		enablePprof  = flag.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/")
		sessionTTL   = flag.Duration("session-ttl", 5*time.Minute, "idle lifetime of a solve session before the reaper expires it")
		maxSessions  = flag.Int("max-sessions", 256, "bound on concurrently active solve sessions")
		maxBatchSys  = flag.Int("max-batch-systems", 1024, "bound on right-hand sides per batch request")
		maxBatchWork = flag.Int("max-batch-workers", 8, "cap on per-batch cross-system solver parallelism")
	)
	flag.Parse()

	svc := service.New(service.Config{
		QueueDepth:      *queueDepth,
		Workers:         *workers,
		DefaultTimeout:  *jobTimeout,
		MaxAttempts:     *maxAttempts,
		RetryBaseDelay:  *retryBase,
		RetryMaxDelay:   *retryMax,
		EnableChaos:     *chaos,
		SessionTTL:      *sessionTTL,
		MaxSessions:     *maxSessions,
		MaxBatchSystems: *maxBatchSys,
		MaxBatchWorkers: *maxBatchWork,
		Cache: service.CacheConfig{
			MaxEntries:      *cacheEntries,
			MaxBytes:        *cacheBytes,
			AnalyzeSpectrum: *analyze,
		},
	})
	handler := service.NewHandler(svc)
	if *enablePprof {
		// Mount the pprof handlers explicitly rather than through the
		// package's DefaultServeMux side effects, so the profiling surface
		// exists only behind the flag.
		outer := http.NewServeMux()
		outer.HandleFunc("/debug/pprof/", pprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
		outer.Handle("/", handler)
		handler = outer
		log.Printf("solverd: pprof enabled at /debug/pprof/")
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           logRequests(handler),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		log.Printf("solverd: listening on %s (%d workers, queue depth %d)", *addr, *workers, *queueDepth)
		errCh <- srv.ListenAndServe()
	}()

	select {
	case <-ctx.Done():
		log.Printf("solverd: signal received, draining (bound %s)", *drainTimeout)
	case err := <-errCh:
		log.Printf("solverd: server error: %v", err)
		os.Exit(1)
	}

	// Flip readiness first and keep the listener up while the queue
	// drains: a routing gateway probing /readyz sees the 503 and stops
	// sending work here, while status polls for already-accepted jobs
	// keep being answered. Only then tear the HTTP server down.
	svc.BeginDrain()
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := svc.Shutdown(drainCtx); err != nil {
		log.Printf("solverd: drain incomplete, in-flight jobs canceled: %v", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("solverd: http shutdown: %v", err)
	}
	st := svc.Stats()
	log.Printf("solverd: exiting — %d submitted, %d done, %d failed, %d canceled, plan-cache hit rate %.0f%%",
		st.Submitted, st.Done, st.Failed, st.Canceled, 100*st.PlanHitRate)
}

// logRequests is a minimal access log.
func logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		log.Printf("%s %s %d %s", r.Method, r.URL.Path, rec.status, time.Since(start).Round(time.Microsecond))
	})
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}
