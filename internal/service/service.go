package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gpusim"
	"repro/internal/mats"
	"repro/internal/memo"
	"repro/internal/metrics"
	"repro/internal/multigpu"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/tune"
	"repro/internal/vecmath"
)

// SolverSpec is the solver configuration every submission shares: the
// POST /v1/solve, /v1/sessions and /v1/batch bodies (SolveRequest,
// SessionRequest, BatchRequest) embed it, so its fields sit at the top
// level of each JSON body. Exactly one of Matrix (a generated paper-matrix
// name, see mats.Names) or MatrixMarket (an inline Matrix Market payload)
// selects the system.
type SolverSpec struct {
	Matrix       string `json:"matrix,omitempty"`
	MatrixMarket string `json:"matrix_market,omitempty"`

	// Tune is "" (off) or "auto": run the per-matrix parameter search and
	// solve with the winning (block size, local iterations, ω). Tunings
	// are cached by matrix fingerprint, so only the first solve of a
	// matrix pays for the probe solves. Explicitly set BlockSize,
	// LocalIters or Omega override the tuned value for that parameter.
	// Incompatible with ExactLocal (the tuner searches Jacobi sweeps).
	Tune string `json:"tune,omitempty"`

	// BlockSize may be 0 only with Tune: "auto" or Method: "multigrid".
	BlockSize      int     `json:"block_size,omitempty"`
	LocalIters     int     `json:"local_iters,omitempty"`
	Omega          float64 `json:"omega,omitempty"`
	MaxGlobalIters int     `json:"max_global_iters"`
	Tolerance      float64 `json:"tolerance,omitempty"`
	// Method selects the solver method: "" or "jacobi" (the paper's damped
	// block-Jacobi update), "richardson2" (second-order Richardson — the
	// same block sweeps plus a momentum term β(x_k − x_{k−1})), or
	// "multigrid" (geometric V-cycles with an auto-tuned asynchronous
	// smoother; solve-only, restricted to the five-point Poisson operator
	// on odd square grids). Beta is richardson2's momentum coefficient in
	// [0, 1); 0 selects the service default 0.3.
	Method string  `json:"method,omitempty"`
	Beta   float64 `json:"beta,omitempty"`
	// Stencil declares the stencil structure of the submitted matrix —
	// offsets and coefficients the caller knows exactly (typically for
	// uploaded Matrix Market operators the detector would otherwise have to
	// rediscover, or boundary-heavy ones it would reject). A declared
	// stencil implies the stencil kernel under kernel "auto" and fails the
	// solve if no row of the matrix matches it.
	Stencil *StencilDecl `json:"stencil,omitempty"`
	// Kernel selects the sweep-kernel dispatch: "" or "auto" (detect
	// stencil structure and fall back to packed CSR), "csr" or "stencil".
	// An explicit "stencil" on a matrix without constant-coefficient
	// structure fails the solve at plan build. Kernel dispatch is
	// bit-transparent: every choice produces the identical iterate.
	Kernel string `json:"kernel,omitempty"`
	// Precision is "" or "f64" (exact doubles) or "f32" (float32 iterate
	// storage with float64 accumulation and residual checks).
	Precision string `json:"precision,omitempty"`
	// Seed is the scheduler seed (0: a per-run stream). A batch derives
	// system j's seed as core.BatchSeed(seed, j); a session step may
	// override it.
	Seed int64 `json:"seed,omitempty"`

	// Certify selects the admission-time convergence pre-flight: "" or
	// "off" (skip), "warn" (certify and echo the certificate in the
	// result), or "enforce" (additionally refuse matrices certified
	// divergent with a structured 422 at submission — before the job ever
	// queues — unless a solve's Fallback reroutes them). Certificates are
	// cached by matrix fingerprint, so a warm daemon answers in
	// cache-lookup time.
	Certify string `json:"certify,omitempty"`
}

// SolveRequest is one solve submission (the POST /v1/solve body): the
// shared SolverSpec plus the fields only a single solve has.
type SolveRequest struct {
	SolverSpec
	// RHS overrides the right-hand side; default is b = A·1 (the paper's
	// convention, exact solution = ones).
	RHS []float64 `json:"rhs,omitempty"`
	// ExactLocal replaces the local sweeps with exact subdomain solves.
	ExactLocal bool `json:"exact_local,omitempty"`
	// Engine is "simulated" (default) or "goroutine". Incompatible with
	// Devices (a multi-device job runs on the sharded executor).
	Engine string `json:"engine,omitempty"`
	// Devices > 0 routes the job to the live multi-device executor with
	// that many GPUs (bounded by the modeled topology's maximum) and
	// reports the modeled wall time in the result. 0 (default) solves on
	// the single-device engines.
	Devices int `json:"devices,omitempty"`
	// Strategy selects the inter-GPU communication scheme for a Devices
	// job: "amc" (default), "dc" or "dk". Must be empty when Devices is 0.
	Strategy string `json:"strategy,omitempty"`
	// TimeoutSeconds bounds the solve's wall time (0: service default).
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
	// IncludeSolution returns the iterate X in the job result.
	IncludeSolution bool `json:"include_solution,omitempty"`
	// RecordHistory returns the per-iteration residual history.
	RecordHistory bool `json:"record_history,omitempty"`
	// Chaos perturbs the solve's schedule (requires Config.EnableChaos).
	// HTTP clients can also set it via the X-Chaos header.
	Chaos *ChaosSpec `json:"chaos,omitempty"`
	// Fallback is "" or "gmres": with certify=enforce, a divergent-verdict
	// matrix is rerouted to the synchronous GMRES solver instead of being
	// rejected — the job then reports `"fallback": "gmres"` in its result.
	// Requires certify=enforce; incompatible with tune/devices.
	Fallback string `json:"fallback,omitempty"`
}

// StencilDecl is the request-level stencil declaration: parallel offset and
// coefficient arrays with the sparse.StencilSpec contract (strictly
// ascending offsets including 0, nonzero diagonal coefficient).
type StencilDecl struct {
	Offsets []int     `json:"offsets"`
	Coeffs  []float64 `json:"coeffs"`
}

// spec converts the declaration to the sparse package's spec (nil-safe).
func (d *StencilDecl) spec() *sparse.StencilSpec {
	if d == nil {
		return nil
	}
	return &sparse.StencilSpec{Offsets: d.Offsets, Coeffs: d.Coeffs}
}

// defaultBeta is the momentum coefficient of richardson2 requests that
// leave beta unset — the middle of the tuner's probe grid, a conservative
// heavy-ball weight that accelerates the paper matrices without risking
// the β → 1 divergence edge.
const defaultBeta = 0.3

// methodMultigrid is the method name of the V-cycle route, which runs
// outside the core engines (so it is not a core.RuleKind);
// methodIdxMultigrid is its methodSolves slot, after the two rule kinds.
const (
	methodMultigrid    = "multigrid"
	methodIdxMultigrid = 2
)

// methodKind parses the request's solver method. multigrid reports true
// for the V-cycle route; otherwise the rule is the core update rule the
// engines run with.
func (r SolverSpec) methodKind() (rule core.RuleKind, multigrid bool, err error) {
	m := strings.ToLower(strings.TrimSpace(r.Method))
	if m == methodMultigrid {
		return core.RuleJacobi, true, nil
	}
	k, err := core.ParseRule(m)
	if err != nil {
		return 0, false, fmt.Errorf(`service: unknown method %q (want "jacobi", "richardson2" or "multigrid")`, r.Method)
	}
	return k, false, nil
}

// resolvedBeta returns the momentum coefficient the solve runs with: the
// request's beta, or defaultBeta for richardson2 requests that leave it
// unset. Callers must have validated the method first.
func (r SolverSpec) resolvedBeta(rule core.RuleKind) float64 {
	if r.Beta != 0 {
		return r.Beta
	}
	if rule == core.RuleRichardson2 {
		return defaultBeta
	}
	return 0
}

// tuneAuto parses the request's tune mode.
func (r SolverSpec) tuneAuto() (bool, error) {
	switch strings.ToLower(strings.TrimSpace(r.Tune)) {
	case "":
		return false, nil
	case "auto":
		return true, nil
	default:
		return false, fmt.Errorf("service: unknown tune mode %q (want \"auto\" or empty)", r.Tune)
	}
}

// parseEngine parses a solve or session request's engine name.
func parseEngine(name string) (core.EngineKind, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "simulated":
		return core.EngineSimulated, nil
	case "goroutine":
		return core.EngineGoroutine, nil
	default:
		return 0, fmt.Errorf("service: unknown engine %q (want \"simulated\" or \"goroutine\")", name)
	}
}

// kernelKind parses the request's sweep-kernel dispatch name.
func (r SolverSpec) kernelKind() (core.KernelKind, error) {
	k, err := core.ParseKernel(strings.ToLower(strings.TrimSpace(r.Kernel)))
	if err != nil {
		return 0, fmt.Errorf("service: %w", err)
	}
	return k, nil
}

// precisionKind parses the request's iterate storage precision, returning
// the normalized name ("" maps to f64).
func (r SolverSpec) precisionKind() (string, error) {
	switch strings.ToLower(strings.TrimSpace(r.Precision)) {
	case "", core.PrecF64:
		return core.PrecF64, nil
	case core.PrecF32:
		return core.PrecF32, nil
	default:
		return "", fmt.Errorf("service: unknown precision %q (want \"f64\" or \"f32\")", r.Precision)
	}
}

// strategyKind parses the request's communication strategy (AMC when
// empty, the paper's default exchange scheme).
func (r SolveRequest) strategyKind() (multigpu.Strategy, error) {
	switch strings.ToLower(strings.TrimSpace(r.Strategy)) {
	case "", "amc":
		return multigpu.AMC, nil
	case "dc":
		return multigpu.DC, nil
	case "dk":
		return multigpu.DK, nil
	default:
		return 0, fmt.Errorf("service: unknown strategy %q (want \"amc\", \"dc\" or \"dk\")", r.Strategy)
	}
}

// DefaultMaxMatrixRows is Config.MaxMatrixRows's default. solverd sets no
// other value, so the fleet gateway applies it too.
const DefaultMaxMatrixRows = 1 << 20

// Config configures a Service. Zero values select the defaults.
type Config struct {
	// QueueDepth bounds the number of queued-but-not-running jobs
	// (default 64).
	QueueDepth int
	// Workers is the solver worker-pool size (default 4).
	Workers int
	// DefaultTimeout bounds jobs that set no TimeoutSeconds (0: none).
	DefaultTimeout time.Duration
	// Cache configures the plan cache.
	Cache CacheConfig
	// MaxMatrixRows refuses an inline or named matrix with more rows,
	// before anything is sized from it (default DefaultMaxMatrixRows;
	// negative: unlimited).
	MaxMatrixRows int
	// MaxAttempts is how often a job is run before its failure becomes
	// terminal: divergent or non-converged attempts are retried with
	// capped exponential backoff (default 1 = no retries).
	MaxAttempts int
	// RetryBaseDelay is the backoff before the first retry; attempt n
	// waits RetryBaseDelay << (n-1), capped at RetryMaxDelay. Defaults
	// 100ms and 5s.
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// EnableChaos admits requests carrying a ChaosSpec. Off by default:
	// chaos injection is a debugging feature, not for production traffic.
	EnableChaos bool

	// SessionTTL is the idle lifetime of a solve session: a session with no
	// in-flight step and no step activity for this long is reaped (default
	// 5m; negative disables the reaper).
	SessionTTL time.Duration
	// SessionReapInterval is the reaper's scan period (default 1s).
	SessionReapInterval time.Duration
	// MaxSessions bounds concurrently active sessions (default 256).
	MaxSessions int
	// MaxBatchSystems bounds the number of systems one batch request may
	// carry (default 1024).
	MaxBatchSystems int
	// MaxBatchWorkers caps the per-batch cross-system solver parallelism a
	// request may ask for (default 8; requests beyond it are clamped, not
	// rejected).
	MaxBatchWorkers int
}

func (c Config) withDefaults() Config {
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.MaxMatrixRows == 0 {
		c.MaxMatrixRows = DefaultMaxMatrixRows
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 1
	}
	if c.RetryBaseDelay <= 0 {
		c.RetryBaseDelay = 100 * time.Millisecond
	}
	if c.RetryMaxDelay <= 0 {
		c.RetryMaxDelay = 5 * time.Second
	}
	if c.SessionTTL == 0 {
		c.SessionTTL = 5 * time.Minute
	}
	if c.SessionReapInterval <= 0 {
		c.SessionReapInterval = time.Second
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 256
	}
	if c.MaxBatchSystems == 0 {
		c.MaxBatchSystems = 1024
	}
	if c.MaxBatchWorkers == 0 {
		c.MaxBatchWorkers = 8
	}
	return c
}

// retryDelay is the capped exponential backoff before retry n (the
// attempt that just failed was attempt n).
func (c Config) retryDelay(attempt int) time.Duration {
	d := c.RetryBaseDelay
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= c.RetryMaxDelay {
			return c.RetryMaxDelay
		}
	}
	if d > c.RetryMaxDelay {
		return c.RetryMaxDelay
	}
	return d
}

// Stats is the /statsz payload: queue, worker and plan-cache counters.
type Stats struct {
	QueueDepth    int        `json:"queue_depth"`
	QueueCapacity int        `json:"queue_capacity"`
	Workers       int        `json:"workers"`
	BusyWorkers   int        `json:"busy_workers"`
	Submitted     uint64     `json:"jobs_submitted"`
	Done          uint64     `json:"jobs_done"`
	Failed        uint64     `json:"jobs_failed"`
	Canceled      uint64     `json:"jobs_canceled"`
	Rejected      uint64     `json:"jobs_rejected"`
	Retries       uint64     `json:"job_retries"`
	PlanCache     CacheStats `json:"plan_cache"`
	PlanHitRate   float64    `json:"plan_hit_rate"`
	TuneCache     TuneStats  `json:"tune_cache"`
	// CertCache is the admission-certificate cache; CertRejected and
	// CertFallbacks count enforce-mode divergent verdicts answered with a
	// 422 and rerouted to GMRES, respectively.
	CertCache     CertifyStats `json:"cert_cache"`
	CertRejected  uint64       `json:"cert_rejected"`
	CertFallbacks uint64       `json:"cert_fallbacks"`
	// DeviceSolves counts multi-device solve attempts per communication
	// strategy (same atomics /metricsz exposes as
	// service_device_solves_total).
	DeviceSolves map[string]uint64 `json:"device_solves"`
	// KernelSolves counts solve attempts per resolved sweep kernel (same
	// atomics /metricsz exposes as service_kernel_solves_total).
	KernelSolves map[string]uint64 `json:"kernel_solves"`
	// MethodSolves counts solve attempts per resolved method — "jacobi",
	// "richardson2" and "multigrid" (same atomics /metricsz exposes as
	// service_method_solves_total).
	MethodSolves map[string]uint64 `json:"method_solves"`
	// Sessions is the streaming solve-session store (see sessions.go).
	Sessions SessionStats `json:"sessions"`
	// Batch is the batched-solve accounting (see batch.go).
	Batch BatchStats `json:"batch"`
}

// Service is the long-running solver: a plan cache, a bounded job queue
// and a registry of every job it accepted.
type Service struct {
	cfg   Config
	cache *PlanCache
	queue *Queue

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // insertion order, for listing
	mats     *memo.Cache[string, namedMatrix]
	closed   bool
	nextID   atomic.Uint64
	submits  atomic.Uint64
	dones    atomic.Uint64
	fails    atomic.Uint64
	cancels  atomic.Uint64
	rejected atomic.Uint64
	retries  atomic.Uint64
	// certRejected / certFallbacks count enforce-mode divergent verdicts
	// refused with a CertificateError and rerouted to GMRES.
	certRejected  atomic.Uint64
	certFallbacks atomic.Uint64
	// sessions is the streaming solve-session store (see sessions.go).
	sessions *sessionStore
	// Batch accounting (see batch.go): accepted batch jobs, systems they
	// carried, and per-system failures inside finished batches.
	batchSubmits     atomic.Uint64
	batchSystems     atomic.Uint64
	batchSystemFails atomic.Uint64
	// deviceSolves counts multi-device solve attempts per communication
	// strategy, indexed by multigpu.Strategy.
	deviceSolves [3]atomic.Uint64
	// kernelSolves counts solve attempts per resolved sweep kernel,
	// indexed by core.KernelKind (the Auto slot stays 0 — attempts are
	// counted under the kernel the plan actually resolved to).
	kernelSolves [3]atomic.Uint64
	// methodSolves counts solve attempts per resolved method: slots 0 and 1
	// are core.RuleJacobi / core.RuleRichardson2 (counted after tuning, so
	// a tuned richardson2 pick lands in its own slot), slot 2 the multigrid
	// route.
	methodSolves [3]atomic.Uint64

	// Observability (see metrics.go): the registry behind GET /metricsz,
	// the solver-level sink attached to every solve, and the modeled
	// device's occupancy gauge.
	reg          *metrics.Registry
	solveMetrics *core.SolveMetrics
	perf         gpusim.PerfModel
	occupancy    *metrics.Gauge
	// wallHist observes finished jobs' wall seconds (attempts and backoff
	// included); RetryAfterSeconds reads its median to price a 429.
	wallHist *metrics.Histogram
}

// namedMatrix caches a generated matrix and its fingerprint so repeated
// requests by name skip both generation and hashing.
type namedMatrix struct {
	a  *sparse.CSR
	fp string
}

// New creates a Service and starts its worker pool.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	cache := NewPlanCache(cfg.Cache)
	s := &Service{
		cfg:   cfg,
		cache: cache,
		jobs:  make(map[string]*Job),
		// Named matrices are one more per-matrix cache, under the same
		// entry bound as the plans built from them.
		mats: memo.New[string, namedMatrix](cache.cfg.MaxEntries, 0, nil),
	}
	s.queue = NewQueue(cfg.QueueDepth, cfg.Workers, s.runJob)
	s.sessions = newSessionStore(cfg)
	s.sessions.startReaper()
	s.instrument()
	return s
}

// Cache exposes the plan cache (introspection and tests).
func (s *Service) Cache() *PlanCache { return s.cache }

// Submit validates the request, resolves its matrix and enqueues a job.
// It reports ErrQueueFull without blocking when the queue is at capacity
// and ErrShuttingDown after Shutdown started.
func (s *Service) Submit(req SolveRequest) (*Job, error) {
	if err := s.validate(req); err != nil {
		s.rejected.Add(1)
		return nil, err
	}
	a, fp, err := s.resolveMatrix(req.SolverSpec)
	if err != nil {
		s.rejected.Add(1)
		return nil, err
	}
	// The admission pre-flight runs synchronously in Submit so an
	// enforce-mode refusal answers the POST itself (422 with the
	// certificate) instead of surfacing later as a failed job. The
	// certificate — whatever the verdict — rides on the job for the
	// result echo.
	fallback, _ := req.fallbackGMRES()
	cert, gmres, err := s.admitCertified(req.SolverSpec, fallback, a, fp)
	if err != nil {
		s.rejected.Add(1)
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.rejected.Add(1)
		return nil, ErrShuttingDown
	}
	id := fmt.Sprintf("job-%06d", s.nextID.Add(1))
	j := newJob(id, req, a, fp, s.countOutcome)
	j.cert, j.gmresFallback = cert, gmres
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()

	if err := s.queue.Submit(j); err != nil {
		s.mu.Lock()
		delete(s.jobs, id)
		s.order = s.order[:len(s.order)-1]
		s.mu.Unlock()
		s.rejected.Add(1)
		return nil, err
	}
	s.submits.Add(1)
	return j, nil
}

func (s *Service) validate(req SolveRequest) error {
	if (req.Matrix == "") == (req.MatrixMarket == "") {
		return errors.New("service: exactly one of matrix or matrix_market must be set")
	}
	tuning, err := req.tuneAuto()
	if err != nil {
		return err
	}
	if tuning && req.ExactLocal {
		return errors.New("service: tune=auto is incompatible with exact_local (the tuner searches Jacobi sweep counts)")
	}
	rule, mgrid, err := req.methodKind()
	if err != nil {
		return err
	}
	if req.Beta < 0 || req.Beta >= 1 {
		return fmt.Errorf("service: beta must be in [0, 1), have %g", req.Beta)
	}
	if req.Beta != 0 && rule != core.RuleRichardson2 {
		return errors.New("service: beta requires method=richardson2 (the momentum term belongs to the second-order rule)")
	}
	if mgrid {
		switch {
		case req.ExactLocal:
			return errors.New("service: method=multigrid is incompatible with exact_local (the smoother runs Jacobi sweeps)")
		case tuning:
			return errors.New("service: method=multigrid auto-tunes its smoother; leave tune unset")
		case req.Engine != "":
			return errors.New("service: method=multigrid selects its own execution (engine must be empty)")
		case req.Kernel != "":
			return errors.New("service: method=multigrid resolves its smoother kernels itself (kernel must be empty)")
		case req.Precision != "":
			return errors.New("service: method=multigrid runs f64 V-cycles (precision must be empty)")
		case req.Devices > 0:
			return errors.New("service: method=multigrid is incompatible with devices")
		case req.Chaos != nil:
			return errors.New("service: method=multigrid does not accept chaos injection")
		case req.Fallback != "":
			return errors.New("service: method=multigrid is incompatible with fallback")
		case req.Stencil != nil:
			return errors.New("service: method=multigrid infers the operator itself (stencil must be empty)")
		}
	}
	if req.Stencil != nil {
		if err := req.Stencil.spec().Validate(); err != nil {
			return fmt.Errorf("service: stencil declaration: %w", err)
		}
		switch strings.ToLower(strings.TrimSpace(req.Kernel)) {
		case "", "auto", "stencil":
		default:
			return fmt.Errorf("service: stencil declaration requires kernel auto or stencil, have %q", req.Kernel)
		}
	}
	if req.BlockSize < 0 || (req.BlockSize == 0 && !tuning && !mgrid) {
		return fmt.Errorf("service: block_size must be positive (or set tune=auto), have %d", req.BlockSize)
	}
	if req.MaxGlobalIters <= 0 {
		return fmt.Errorf("service: max_global_iters must be positive, have %d", req.MaxGlobalIters)
	}
	if req.LocalIters < 0 || (req.LocalIters == 0 && !req.ExactLocal && !tuning && !mgrid) {
		return fmt.Errorf("service: local_iters must be positive (or set exact_local or tune=auto), have %d", req.LocalIters)
	}
	if req.TimeoutSeconds < 0 {
		return fmt.Errorf("service: timeout_seconds must be nonnegative, have %g", req.TimeoutSeconds)
	}
	if _, err := parseEngine(req.Engine); err != nil {
		return err
	}
	if _, err := req.kernelKind(); err != nil {
		return err
	}
	if _, err := req.precisionKind(); err != nil {
		return err
	}
	strat, err := req.strategyKind()
	if err != nil {
		return err
	}
	if req.Devices < 0 {
		return fmt.Errorf("service: devices must be nonnegative, have %d", req.Devices)
	}
	if req.Devices == 0 && req.Strategy != "" {
		return errors.New("service: strategy requires devices > 0")
	}
	if req.Devices > 0 {
		if req.Engine != "" {
			return errors.New("service: engine and devices are mutually exclusive (a devices job runs on the sharded executor)")
		}
		if tuning {
			return errors.New("service: tune=auto is incompatible with devices (the tuner searches the single-device engines)")
		}
		// The dimension does not influence which configurations exist, so
		// any n validates the strategy/device-count combination here.
		if _, err := multigpu.CommTime(multigpu.Supermicro(), strat, req.Devices, 1); err != nil {
			return err
		}
	}
	if req.Chaos != nil {
		if !s.cfg.EnableChaos {
			return ErrChaosDisabled
		}
		if _, err := fault.NewChaos(req.Chaos.config(1)); err != nil {
			return err
		}
	}
	mode, err := req.certifyMode()
	if err != nil {
		return err
	}
	gmres, err := req.fallbackGMRES()
	if err != nil {
		return err
	}
	if gmres {
		if mode != certify.ModeEnforce {
			return errors.New("service: fallback requires certify=enforce (the fallback only triggers on an enforced divergent verdict)")
		}
		if tuning {
			return errors.New("service: fallback is incompatible with tune=auto (the tuner probes the asynchronous engines)")
		}
		if req.Devices > 0 {
			return errors.New("service: fallback is incompatible with devices (GMRES runs on the synchronous single-device solver)")
		}
	}
	return nil
}

// resolveMatrix returns the system matrix and its fingerprint. Named
// matrices are generated and fingerprinted once, then served from a
// per-service cache. Inline payloads are parsed and hashed per call, and
// it is called once per job or session, at admission: the job or session
// keeps the operator for every attempt or step. Both apply the row limit
// before anything is sized.
func (s *Service) resolveMatrix(req SolverSpec) (*sparse.CSR, string, error) {
	var rl *sparse.RowLimitError
	if req.Matrix != "" {
		nm, _, err := s.mats.Get(req.Matrix, func() (namedMatrix, error) {
			tm, err := mats.GenerateLimit(req.Matrix, s.cfg.MaxMatrixRows)
			if err != nil {
				return namedMatrix{}, err
			}
			return namedMatrix{a: tm.A, fp: Fingerprint(tm.A)}, nil
		})
		if errors.As(err, &rl) {
			return nil, "", fmt.Errorf("service: matrix %q has %d rows, limit %d", req.Matrix, rl.Rows, rl.Limit)
		}
		if err != nil {
			return nil, "", fmt.Errorf("service: %w", err)
		}
		return nm.a, nm.fp, nil
	}
	a, err := sparse.ReadMatrixMarketLimit(strings.NewReader(req.MatrixMarket), s.cfg.MaxMatrixRows)
	if errors.As(err, &rl) {
		return nil, "", fmt.Errorf("service: inline matrix has %d rows, limit %d", rl.Rows, rl.Limit)
	}
	if err != nil {
		return nil, "", fmt.Errorf("service: parsing matrix_market payload: %w", err)
	}
	if a.Rows != a.Cols {
		return nil, "", fmt.Errorf("service: matrix must be square, have %dx%d", a.Rows, a.Cols)
	}
	return a, Fingerprint(a), nil
}

// Job returns a job by ID.
func (s *Service) Job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return j, nil
}

// Jobs lists snapshots of every accepted job in submission order.
func (s *Service) Jobs() []JobView {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	views := make([]JobView, len(jobs))
	for i, j := range jobs {
		views[i] = j.Snapshot()
	}
	return views
}

// Cancel cancels a job by ID (see Job.Cancel for the semantics).
func (s *Service) Cancel(id string) error {
	j, err := s.Job(id)
	if err != nil {
		return err
	}
	j.Cancel(fmt.Errorf("%w: canceled by client", core.ErrCanceled))
	return nil
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	cs := s.cache.Stats()
	return Stats{
		QueueDepth:    s.queue.Depth(),
		QueueCapacity: s.queue.Capacity(),
		Workers:       s.queue.Workers(),
		BusyWorkers:   s.queue.Busy(),
		Submitted:     s.submits.Load(),
		Done:          s.dones.Load(),
		Failed:        s.fails.Load(),
		Canceled:      s.cancels.Load(),
		Rejected:      s.rejected.Load(),
		Retries:       s.retries.Load(),
		PlanCache:     cs,
		PlanHitRate:   cs.HitRate(),
		TuneCache:     s.cache.TuneStats(),
		CertCache:     s.cache.CertifyStats(),
		CertRejected:  s.certRejected.Load(),
		CertFallbacks: s.certFallbacks.Load(),
		DeviceSolves: map[string]uint64{
			multigpu.AMC.String(): s.deviceSolves[multigpu.AMC].Load(),
			multigpu.DC.String():  s.deviceSolves[multigpu.DC].Load(),
			multigpu.DK.String():  s.deviceSolves[multigpu.DK].Load(),
		},
		KernelSolves: map[string]uint64{
			core.KernelCSR.String():     s.kernelSolves[core.KernelCSR].Load(),
			core.KernelStencil.String(): s.kernelSolves[core.KernelStencil].Load(),
		},
		MethodSolves: map[string]uint64{
			core.RuleJacobi.String():      s.methodSolves[core.RuleJacobi].Load(),
			core.RuleRichardson2.String(): s.methodSolves[core.RuleRichardson2].Load(),
			methodMultigrid:               s.methodSolves[methodIdxMultigrid].Load(),
		},
		Sessions: s.sessions.stats(),
		Batch: BatchStats{
			Submitted:      s.batchSubmits.Load(),
			Systems:        s.batchSystems.Load(),
			SystemFailures: s.batchSystemFails.Load(),
		},
	}
}

// BeginDrain stops accepting new jobs without waiting for the queue:
// Submit reports ErrShuttingDown and Draining flips to true (the /readyz
// probe turns 503) while queued and running solves continue. Call it the
// moment shutdown is decided, before the blocking Shutdown, so a gateway
// health-checking readiness stops routing here while the drain runs.
func (s *Service) BeginDrain() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// Draining reports whether the service has stopped accepting jobs (via
// BeginDrain or Shutdown). Liveness is unaffected: a draining service
// still answers status, stats and metrics requests.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// RetryAfterSeconds estimates how long a rejected client should wait
// before resubmitting: the current backlog (queued + running jobs) divided
// across the worker pool, priced at the observed median job wall time.
// Before any job finished the estimate falls back to 1s, and the result is
// clamped to [1s, 60s] so the header stays sane under pathological queues.
func (s *Service) RetryAfterSeconds() int {
	perJob := s.wallHist.Quantile(0.5)
	if perJob <= 0 {
		perJob = 1
	}
	backlog := s.queue.Depth() + s.queue.Busy()
	workers := s.queue.Workers()
	if workers < 1 {
		workers = 1
	}
	est := perJob * float64(backlog) / float64(workers)
	switch {
	case est < 1:
		return 1
	case est > 60:
		return 60
	default:
		return int(math.Ceil(est))
	}
}

// Shutdown stops accepting jobs and drains the queue: queued and running
// solves finish normally. If ctx expires first, the remaining jobs are
// canceled (taking effect within one global iteration) and Shutdown
// returns ctx's error once they unwind.
func (s *Service) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	s.sessions.stopReaper()

	drained := make(chan struct{})
	go func() {
		s.queue.Drain()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		jobs := make([]*Job, 0, len(s.jobs))
		for _, j := range s.jobs {
			jobs = append(jobs, j)
		}
		s.mu.Unlock()
		for _, j := range jobs {
			if !j.State().Terminal() {
				j.Cancel(fmt.Errorf("%w: service shutdown", core.ErrCanceled))
			}
		}
		<-drained
		return ctx.Err()
	}
}

// runJob executes one dequeued job on a worker. The job's deadline spans
// every attempt: divergent or non-converged attempts are retried with
// capped exponential backoff up to Config.MaxAttempts, and the attempt
// count is part of the job's status.
func (s *Service) runJob(j *Job) {
	req := j.req

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutSeconds > 0 {
		timeout = time.Duration(req.TimeoutSeconds * float64(time.Second))
	}
	ctx := context.Background()
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	if !j.start(cancel) {
		return // canceled while queued, and counted then
	}
	started := time.Now()

	var result *JobResult
	var err error
	attempt := 1
	for ; ; attempt++ {
		j.setAttempt(attempt)
		result, err = s.runAttempt(ctx, j, attempt)
		if err == nil || attempt == s.cfg.MaxAttempts || !retryable(err) {
			break
		}
		s.retries.Add(1)
		if !sleepCtx(ctx, s.cfg.retryDelay(attempt)) {
			err = fmt.Errorf("%w: %v while backing off after attempt %d: %v",
				core.ErrCanceled, ctx.Err(), attempt, err)
			break
		}
	}
	if err != nil && attempt > 1 {
		err = fmt.Errorf("service: giving up after %d attempts: %w", attempt, err)
	}
	if result != nil {
		result.Attempts = attempt
		result.WallTime = time.Since(started).Seconds()
	}
	s.wallHist.Observe(time.Since(started).Seconds())
	j.finish(result, err, errors.Is(err, core.ErrCanceled))
}

// retryable reports whether a failed attempt is worth repeating: the
// asynchronous iteration failing to contract is schedule-dependent, so a
// rerun (with fresh chaos perturbations) may converge. Bad requests,
// cancellations and plan errors are not retried.
func retryable(err error) bool {
	return errors.Is(err, core.ErrDiverged) || errors.Is(err, core.ErrNotConverged)
}

// sleepCtx sleeps d unless ctx expires first; it reports whether the full
// backoff elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// runAttempt performs one solve attempt on the operator admitted with the
// job: get or build the plan (the cache hit is what a warm daemon buys),
// then iterate with the job's context threaded into the engine.
func (s *Service) runAttempt(ctx context.Context, j *Job, attempt int) (*JobResult, error) {
	if j.batch != nil {
		return s.runBatchAttempt(ctx, j)
	}
	req, a, fp := j.req, j.a, j.fp

	engine, err := parseEngine(req.Engine)
	if err != nil {
		return nil, err
	}
	_, mgrid, err := req.methodKind()
	if err != nil {
		return nil, err
	}

	b := req.RHS
	if b == nil {
		b = make([]float64, a.Rows)
		a.MulVec(b, vecmath.Ones(a.Cols))
	} else if len(b) != a.Rows {
		return nil, fmt.Errorf("service: rhs length %d does not match dimension %d", len(b), a.Rows)
	}

	if j.gmresFallback {
		return s.runGMRESFallback(j, a, fp, b)
	}
	if mgrid {
		return s.runMultigridAttempt(ctx, j, a, fp, b)
	}

	base := core.Options{
		ExactLocal:    req.ExactLocal,
		RecordHistory: req.RecordHistory,
		Engine:        engine,
		Ctx:           ctx,
	}
	if req.Chaos != nil {
		// Each attempt gets a shifted chaos seed so retries explore a
		// different perturbation of the schedule.
		c, err := fault.NewChaos(req.Chaos.config(attempt))
		if err != nil {
			return nil, err
		}
		base.Chaos = &core.ChaosHooks{Delay: c.Delay, Reorder: c.Reorder, StaleRead: c.StaleRead}
	}
	rs, err := s.resolve(req.SolverSpec, a, fp, b, base)
	if err != nil {
		return nil, err
	}
	opt, plan, hit := rs.opt, rs.plan, rs.hit
	// The advice is settled before iterating, so a cancel still ends the
	// job within one sweep.
	var analysis string
	if s.cache.cfg.AnalyzeSpectrum {
		analysis = s.analysis(j, a, fp)
	}

	nb := plan.Prepared.NumBlocks()
	s.perf.SetOccupancy(s.occupancy, nb)
	j.setProgress(Progress{NumBlocks: nb, PlanHit: hit})
	opt.OnResidual = func(iter int, residual float64) {
		j.setProgress(Progress{GlobalIteration: iter, Residual: residual, NumBlocks: nb, PlanHit: hit})
	}

	var res core.Result
	var modeled float64
	var strat multigpu.Strategy
	if req.Devices > 0 {
		if strat, err = req.strategyKind(); err != nil {
			return nil, err
		}
		s.deviceSolves[strat].Add(1)
		var mres multigpu.Result
		mres, err = multigpu.SolveWithPlan(plan.Prepared, b, opt,
			s.perf, multigpu.Supermicro(), strat, req.Devices)
		res, modeled = mres.Result, mres.ModeledSeconds
	} else {
		res, err = core.SolveWithPlan(plan.Prepared, b, opt)
	}
	result := rs.result(fp, j.cert)
	result.Converged = res.Converged
	result.GlobalIterations = res.GlobalIterations
	result.Residual = res.Residual
	result.NumBlocks = res.NumBlocks
	result.Devices = req.Devices
	result.ModeledSeconds = modeled
	result.Analysis = analysis
	if req.Devices > 0 {
		result.Strategy = strat.String()
	}
	if req.RecordHistory {
		result.History = res.History
	}
	if req.IncludeSolution {
		result.X = res.X
	}
	if j.cert != nil && j.cert.PredictedIters > 0 {
		result.PredictedVsActual = float64(res.GlobalIterations) / float64(j.cert.PredictedIters)
	}
	if err == nil && req.Tolerance > 0 && !res.Converged {
		err = fmt.Errorf("service: %w after %d global iterations (residual %.3e, tolerance %.3e)",
			core.ErrNotConverged, res.GlobalIterations, res.Residual, req.Tolerance)
	}
	return result, err
}

// resolvedSpec is a SolverSpec resolved against its matrix: the core
// options every solve of it runs with, tuned values filled in, the plan
// those solves share, and the cache outcomes the results report.
type resolvedSpec struct {
	opt   core.Options
	plan  *Plan
	hit   bool
	tuned *TunedParams
}

// resolve is the one path from a validated spec to core options and a
// plan, shared by solves, sessions and batches: parse the kernel,
// precision and method, fill in the tuned parameters (tune=auto; the tuner
// probes with b), fetch or build the plan, and count the attempt under its
// resolved kernel and method. opt carries the caller's own fields (engine,
// context, hooks); resolve sets the spec's.
func (s *Service) resolve(spec SolverSpec, a *sparse.CSR, fp string, b []float64, opt core.Options) (resolvedSpec, error) {
	kernel, err := spec.kernelKind()
	if err != nil {
		return resolvedSpec{}, err
	}
	precision, err := spec.precisionKind()
	if err != nil {
		return resolvedSpec{}, err
	}
	rule, _, err := spec.methodKind()
	if err != nil {
		return resolvedSpec{}, err
	}
	opt.BlockSize, opt.LocalIters, opt.Omega = spec.BlockSize, spec.LocalIters, spec.Omega
	opt.Method, opt.Beta = rule, spec.resolvedBeta(rule)
	opt.MaxGlobalIters, opt.Tolerance = spec.MaxGlobalIters, spec.Tolerance
	opt.Precision, opt.Seed, opt.Metrics = precision, spec.Seed, s.solveMetrics

	var rs resolvedSpec
	if tuning, _ := spec.tuneAuto(); tuning {
		// The search is seeded by a constant, not the request, so every
		// request of a matrix resolves to the same cached tuning.
		tr, tuneHit, err := s.cache.GetOrTune(a, fp, b, tune.Config{Seed: analysisSeed})
		if err != nil {
			return resolvedSpec{}, fmt.Errorf("service: auto-tune: %w", err)
		}
		if opt.BlockSize == 0 {
			opt.BlockSize = tr.BlockSize
		}
		if opt.LocalIters == 0 {
			opt.LocalIters = tr.LocalIters
		}
		if opt.Omega == 0 {
			opt.Omega = tr.Omega
		}
		if spec.Method == "" && spec.Beta == 0 {
			// The method stage's pick applies only when the request left the
			// rule entirely to the tuner.
			opt.Method, opt.Beta = tr.Method, tr.Beta
		}
		rs.tuned = &TunedParams{
			BlockSize:       opt.BlockSize,
			LocalIters:      opt.LocalIters,
			Omega:           opt.Omega,
			Method:          opt.Method.String(),
			Beta:            opt.Beta,
			SecondsPerDigit: tr.SecondsPerDigit,
			CacheHit:        tuneHit,
		}
	}

	stencil := spec.Stencil.spec()
	rs.plan, rs.hit, err = s.cache.GetOrBuild(a, keyWithFingerprint(fp, opt, kernel, stencil), stencil)
	if err != nil {
		return resolvedSpec{}, err
	}
	s.kernelSolves[rs.plan.Prepared.Kernel()].Add(1)
	s.methodSolves[opt.Method].Add(1)
	rs.opt = opt
	return rs, nil
}

// result starts the JobResult of a solve or batch run on the resolved
// spec: the plan, tuning, kernel, precision and method fields, plus the
// fingerprint and admission certificate.
func (rs resolvedSpec) result(fp string, cert *certify.Certificate) *JobResult {
	return &JobResult{
		PlanHit:     rs.hit,
		Fingerprint: fp,
		Tuned:       rs.tuned,
		Kernel:      rs.plan.Prepared.Kernel().String(),
		Precision:   rs.opt.Precision,
		Method:      rs.opt.Method.String(),
		Beta:        rs.opt.Beta,
		Certificate: cert,
	}
}

// runGMRESFallback executes the synchronous GMRES reroute of an
// enforce-mode divergent verdict: restarted GMRES(30) with the Jacobi
// preconditioner, the same iteration budget and tolerance the relaxation
// would have used. The certificate that triggered the reroute is echoed
// on the result.
func (s *Service) runGMRESFallback(j *Job, a *sparse.CSR, fp string, b []float64) (*JobResult, error) {
	req := j.req
	prec, err := solver.NewJacobiPreconditioner(a)
	if err != nil {
		return nil, fmt.Errorf("service: gmres fallback: %w", err)
	}
	res, err := solver.GMRES(a, b, gmresFallbackRestart, prec, solver.Options{
		MaxIterations: req.MaxGlobalIters,
		Tolerance:     req.Tolerance,
		RecordHistory: req.RecordHistory,
	})
	result := &JobResult{
		Converged:        res.Converged,
		GlobalIterations: res.Iterations,
		Residual:         res.Residual,
		Fingerprint:      fp,
		Certificate:      j.cert,
		Fallback:         "gmres",
	}
	if req.RecordHistory {
		result.History = res.History
	}
	if req.IncludeSolution {
		result.X = res.X
	}
	if err == nil && req.Tolerance > 0 && !res.Converged {
		err = fmt.Errorf("service: %w after %d GMRES iterations (residual %.3e, tolerance %.3e)",
			core.ErrNotConverged, res.Iterations, res.Residual, req.Tolerance)
	}
	return result, err
}

// gmresFallbackRestart is the Krylov restart length of the fallback
// solver — the paper's baseline GMRES(30) configuration.
const gmresFallbackRestart = 30

// countOutcome bumps the outcome counter of a job's terminal state; each
// job calls it once, before its Done channel closes.
func (s *Service) countOutcome(st JobState) {
	switch st {
	case JobCanceled:
		s.cancels.Add(1)
	case JobFailed:
		s.fails.Add(1)
	default:
		s.dones.Add(1)
	}
}
