package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/sparse"
	"repro/internal/vecmath"
)

// Sentinel errors of the session store.
var (
	// ErrUnknownSession is reported for session IDs the service never
	// issued; the HTTP layer maps it to 404.
	ErrUnknownSession = errors.New("service: unknown session")
	// ErrTooManySessions is reported when Config.MaxSessions active
	// sessions already exist; the HTTP layer maps it to 429.
	ErrTooManySessions = errors.New("service: session limit reached")
)

// SessionGoneError reports a step (or lookup) against a session that
// existed but is no longer live — closed by the client or reaped by the
// idle-TTL sweep. It carries the matrix fingerprint so a client (or the
// fleet gateway, which surfaces its own session-lost variant) can re-create
// the session on the right node without re-deriving the routing key. The
// HTTP layer maps it to a structured 410.
type SessionGoneError struct {
	ID          string
	Fingerprint string
	State       SessionState
}

// Error implements the error interface.
func (e *SessionGoneError) Error() string {
	return fmt.Sprintf("service: session %s is %s", e.ID, e.State)
}

// SessionState is the lifecycle state of a solve session.
type SessionState int

const (
	// SessionActive: accepting steps.
	SessionActive SessionState = iota
	// SessionExpired: reaped by the idle-TTL sweep; kept as a queryable
	// tombstone, steps answer 410.
	SessionExpired
	// SessionClosed: deleted by the client; tombstone like Expired.
	SessionClosed
)

// String implements fmt.Stringer (the API's state vocabulary).
func (st SessionState) String() string {
	switch st {
	case SessionActive:
		return "active"
	case SessionExpired:
		return "expired"
	case SessionClosed:
		return "closed"
	default:
		return "unknown"
	}
}

// SessionRequest is the POST /v1/sessions body: one system (the shared
// SolverSpec — matrix, solver configuration, optional tuning and admission
// certification) that a stream of per-step right-hand sides will be solved
// against. The plan, tuning and certificate are resolved once at creation;
// every step reuses them and warm-starts from the previous step's iterate.
// Sessions run the core engines, so method "multigrid" is rejected, and
// the momentum trail of "richardson2" carries across steps with the warm
// iterate. The spec's Seed is every step's default seed.
type SessionRequest struct {
	SolverSpec
	// Engine is "simulated" (default) or "goroutine".
	Engine string `json:"engine,omitempty"`
	// TTLSeconds overrides the service's idle session TTL (0: the
	// Config.SessionTTL default). A session idle this long with no step in
	// flight is reaped; in-flight steps always finish first.
	TTLSeconds float64 `json:"ttl_seconds,omitempty"`
}

// StepRequest is the POST /v1/sessions/{id}/step body: the next
// right-hand side of the stream.
type StepRequest struct {
	RHS []float64 `json:"rhs"`
	// Seed overrides the session's scheduler seed for this step.
	Seed int64 `json:"seed,omitempty"`
	// Stream selects the response shape: "" (one JSON document when the
	// step finishes), "sse" (Server-Sent Events: `progress` events with the
	// live residual, then one `result` or `error` event) or "json" (chunked
	// JSON lines with the same payloads).
	Stream string `json:"stream,omitempty"`
	// ProgressEvery spaces streamed progress events to every N-th global
	// iteration (default 1). Ignored without Stream.
	ProgressEvery int `json:"progress_every,omitempty"`
	// TimeoutSeconds bounds the step's wall time (0: service default).
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
	// IncludeSolution returns the step's iterate X in the result.
	IncludeSolution bool `json:"include_solution,omitempty"`
}

// StepResult reports one finished session step.
type StepResult struct {
	SessionID string `json:"session_id"`
	// Step is the 1-based index of this step within the session.
	Step             int     `json:"step"`
	Converged        bool    `json:"converged"`
	GlobalIterations int     `json:"global_iterations"`
	Residual         float64 `json:"residual"`
	// WarmStart reports whether the step started from the previous step's
	// iterate (false only for a session's first step).
	WarmStart bool      `json:"warm_start"`
	X         []float64 `json:"x,omitempty"`
	WallTime  float64   `json:"wall_seconds"`
}

// StepProgress is one streamed progress sample of a running step.
type StepProgress struct {
	GlobalIteration int     `json:"global_iteration"`
	Residual        float64 `json:"residual"`
}

// SessionView is an immutable snapshot of a session, safe to serialize.
type SessionView struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	Fingerprint string `json:"fingerprint"`
	// Steps counts finished successful steps; FailedSteps counts steps that
	// returned an error; InflightSteps is the number currently executing.
	Steps         uint64 `json:"steps"`
	FailedSteps   uint64 `json:"failed_steps"`
	InflightSteps int    `json:"inflight_steps"`
	// WarmStart reports whether the next step would warm-start.
	WarmStart  bool    `json:"warm_start"`
	BlockSize  int     `json:"block_size"`
	LocalIters int     `json:"local_iters"`
	Omega      float64 `json:"omega"`
	Engine     string  `json:"engine"`
	// Kernel is the resolved sweep kernel every step runs (what a "kernel":
	// "auto" request dispatched to); Precision the iterate storage precision.
	Kernel    string `json:"kernel,omitempty"`
	Precision string `json:"precision,omitempty"`
	// Method is the update rule every step runs; Beta its momentum
	// coefficient (0 for jacobi).
	Method      string               `json:"method,omitempty"`
	Beta        float64              `json:"beta,omitempty"`
	Tuned       *TunedParams         `json:"tuned,omitempty"`
	Certificate *certify.Certificate `json:"certificate,omitempty"`
	TTLSeconds  float64              `json:"ttl_seconds"`
	Created     time.Time            `json:"created"`
	LastUsed    time.Time            `json:"last_used"`
}

// SessionStats is the session slice of /statsz.
type SessionStats struct {
	Active        int    `json:"active"`
	Created       uint64 `json:"created"`
	Expired       uint64 `json:"expired"`
	Closed        uint64 `json:"closed"`
	Steps         uint64 `json:"steps"`
	StepFailures  uint64 `json:"step_failures"`
	InflightSteps int64  `json:"inflight_steps"`
}

// session is one live (or tombstoned) solve session. Two locks split the
// concerns: stepMu serializes the solves themselves — warm-starting makes
// steps ordered by definition — while mu guards the metadata (state,
// counters, timestamps) so status and reaper reads never wait behind a
// running solve.
type session struct {
	id  string
	fp  string
	ttl time.Duration

	// Immutable after creation.
	a      *sparse.CSR
	opt    core.Options // per-step option template (no Ctx/hooks; Seed is the default)
	tuned  *TunedParams
	cert   *certify.Certificate
	kernel string // resolved sweep kernel (survives the plan drop)

	stepMu sync.Mutex // serializes step execution

	mu        sync.Mutex
	state     SessionState
	core      *core.Session // dropped (with the plan ref) once not active
	plan      *Plan
	inflight  int
	steps     uint64
	stepFails uint64
	created   time.Time
	lastUsed  time.Time
}

// view snapshots the session.
func (ss *session) view() SessionView {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	v := SessionView{
		ID:            ss.id,
		State:         ss.state.String(),
		Fingerprint:   ss.fp,
		Steps:         ss.steps,
		FailedSteps:   ss.stepFails,
		InflightSteps: ss.inflight,
		WarmStart:     ss.core != nil && ss.core.Steps() > 0,
		BlockSize:     ss.opt.BlockSize,
		LocalIters:    ss.opt.LocalIters,
		Omega:         ss.opt.Omega,
		Engine:        ss.opt.Engine.String(),
		Kernel:        ss.kernel,
		Precision:     string(ss.opt.Precision),
		Method:        ss.opt.Method.String(),
		Beta:          ss.opt.Beta,
		Tuned:         ss.tuned,
		Certificate:   ss.cert,
		TTLSeconds:    ss.ttl.Seconds(),
		Created:       ss.created,
		LastUsed:      ss.lastUsed,
	}
	return v
}

// gone builds the structured 410 error for a non-active session.
func (ss *session) gone() *SessionGoneError {
	return &SessionGoneError{ID: ss.id, Fingerprint: ss.fp, State: ss.state}
}

// beginStep admits one step: only active sessions accept, and an admitted
// step is guaranteed to run to completion — release (close or reap) defers
// resource teardown until the in-flight count returns to zero.
func (ss *session) beginStep() error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.state != SessionActive {
		return ss.gone()
	}
	ss.inflight++
	ss.lastUsed = time.Now()
	return nil
}

// endStep balances beginStep and performs the deferred teardown when the
// session left the active state while this step ran.
func (ss *session) endStep(failed bool) {
	ss.mu.Lock()
	ss.inflight--
	ss.lastUsed = time.Now()
	if failed {
		ss.stepFails++
	} else {
		ss.steps++
	}
	if ss.state != SessionActive && ss.inflight == 0 {
		ss.releaseLocked()
	}
	ss.mu.Unlock()
}

// transition moves an active session to a terminal state; resources are
// freed immediately when no step is in flight, otherwise by the last
// in-flight step's endStep. It reports whether the transition happened.
func (ss *session) transition(to SessionState) bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.state != SessionActive {
		return false
	}
	ss.state = to
	if ss.inflight == 0 {
		ss.releaseLocked()
	}
	return true
}

// releaseLocked drops the warm iterate and plan references of a terminal
// session (the tombstone keeps only metadata). Callers hold ss.mu.
func (ss *session) releaseLocked() {
	ss.core = nil
	ss.plan = nil
	ss.a = nil
}

// idleExpired reports whether the reaper may expire the session now: idle
// past its TTL with no in-flight step (the reaper never kills a running
// step).
func (ss *session) idleExpired(now time.Time) bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.state == SessionActive && ss.inflight == 0 && now.Sub(ss.lastUsed) > ss.ttl
}

// sessionStore owns every session the service issued, the idle reaper and
// the session counters.
type sessionStore struct {
	cfg Config

	mu       sync.Mutex
	sessions map[string]*session
	order    []string

	nextID    atomic.Uint64
	created   atomic.Uint64
	expired   atomic.Uint64
	closed    atomic.Uint64
	steps     atomic.Uint64
	stepFails atomic.Uint64
	inflight  atomic.Int64

	reapStop chan struct{}
	reapDone chan struct{}
	stopOnce sync.Once
}

func newSessionStore(cfg Config) *sessionStore {
	return &sessionStore{
		cfg:      cfg,
		sessions: make(map[string]*session),
		reapStop: make(chan struct{}),
		reapDone: make(chan struct{}),
	}
}

// startReaper launches the idle-TTL sweep (no-op when the TTL is negative).
func (st *sessionStore) startReaper() {
	if st.cfg.SessionTTL < 0 {
		close(st.reapDone)
		return
	}
	go func() {
		defer close(st.reapDone)
		t := time.NewTicker(st.cfg.SessionReapInterval)
		defer t.Stop()
		for {
			select {
			case <-st.reapStop:
				return
			case now := <-t.C:
				st.reap(now)
			}
		}
	}()
}

// stopReaper halts the sweep and waits for it to unwind.
func (st *sessionStore) stopReaper() {
	st.stopOnce.Do(func() { close(st.reapStop) })
	<-st.reapDone
}

// reap expires every session idle past its TTL. Sessions with an in-flight
// step are skipped — they re-qualify once the step finishes and the idle
// clock runs out again.
func (st *sessionStore) reap(now time.Time) {
	st.mu.Lock()
	candidates := make([]*session, 0, len(st.sessions))
	for _, ss := range st.sessions {
		candidates = append(candidates, ss)
	}
	st.mu.Unlock()
	for _, ss := range candidates {
		if ss.idleExpired(now) && ss.transition(SessionExpired) {
			st.expired.Add(1)
		}
	}
}

// activeCount counts sessions currently accepting steps.
func (st *sessionStore) activeCount() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for _, ss := range st.sessions {
		ss.mu.Lock()
		if ss.state == SessionActive {
			n++
		}
		ss.mu.Unlock()
	}
	return n
}

// stats snapshots the session counters.
func (st *sessionStore) stats() SessionStats {
	return SessionStats{
		Active:        st.activeCount(),
		Created:       st.created.Load(),
		Expired:       st.expired.Load(),
		Closed:        st.closed.Load(),
		Steps:         st.steps.Load(),
		StepFailures:  st.stepFails.Load(),
		InflightSteps: st.inflight.Load(),
	}
}

// get returns a session by ID (live or tombstoned).
func (st *sessionStore) get(id string) (*session, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	ss, ok := st.sessions[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	return ss, nil
}

// CreateSession validates the request, resolves the matrix, runs the
// admission pre-flight, tunes (when asked) and builds or fetches the plan,
// then registers a fresh active session. The setup cost lands here, once,
// so every step is pure iteration — the session analogue of a warm plan
// cache.
func (s *Service) CreateSession(req SessionRequest) (SessionView, error) {
	view, err := s.createSession(req)
	if err != nil {
		s.rejected.Add(1)
	}
	return view, err
}

func (s *Service) createSession(req SessionRequest) (SessionView, error) {
	if err := s.validate(SolveRequest{SolverSpec: req.SolverSpec, Engine: req.Engine}); err != nil {
		return SessionView{}, err
	}
	if req.TTLSeconds < 0 {
		return SessionView{}, fmt.Errorf("service: ttl_seconds must be nonnegative, have %g", req.TTLSeconds)
	}
	a, fp, err := s.resolveMatrix(req.SolverSpec)
	if err != nil {
		return SessionView{}, err
	}
	cert, _, err := s.admitCertified(req.SolverSpec, false, a, fp)
	if err != nil {
		return SessionView{}, err
	}
	if _, mgrid, _ := req.methodKind(); mgrid {
		return SessionView{}, errors.New("service: sessions run the core engines; method=multigrid is solve-only")
	}
	engine, err := parseEngine(req.Engine)
	if err != nil {
		return SessionView{}, err
	}
	b := make([]float64, a.Rows)
	a.MulVec(b, vecmath.Ones(a.Cols))
	rs, err := s.resolve(req.SolverSpec, a, fp, b, core.Options{Engine: engine})
	if err != nil {
		return SessionView{}, err
	}

	ttl := s.cfg.SessionTTL
	if req.TTLSeconds > 0 {
		ttl = time.Duration(req.TTLSeconds * float64(time.Second))
	}

	st := s.sessions
	st.mu.Lock()
	if s.Draining() {
		st.mu.Unlock()
		return SessionView{}, ErrShuttingDown
	}
	active := 0
	for _, ss := range st.sessions {
		ss.mu.Lock()
		if ss.state == SessionActive {
			active++
		}
		ss.mu.Unlock()
	}
	if active >= s.cfg.MaxSessions {
		st.mu.Unlock()
		return SessionView{}, fmt.Errorf("%w: %d active", ErrTooManySessions, active)
	}
	now := time.Now()
	ss := &session{
		id:       fmt.Sprintf("sess-%06d", st.nextID.Add(1)),
		fp:       fp,
		ttl:      ttl,
		a:        a,
		opt:      rs.opt,
		tuned:    rs.tuned,
		cert:     cert,
		state:    SessionActive,
		kernel:   rs.plan.Prepared.Kernel().String(),
		core:     core.NewSession(rs.plan.Prepared),
		plan:     rs.plan,
		created:  now,
		lastUsed: now,
	}
	st.sessions[ss.id] = ss
	st.order = append(st.order, ss.id)
	st.mu.Unlock()
	st.created.Add(1)
	return ss.view(), nil
}

// Session returns a session snapshot by ID.
func (s *Service) Session(id string) (SessionView, error) {
	ss, err := s.sessions.get(id)
	if err != nil {
		return SessionView{}, err
	}
	return ss.view(), nil
}

// Sessions lists snapshots of every session in creation order (tombstones
// included).
func (s *Service) Sessions() []SessionView {
	st := s.sessions
	st.mu.Lock()
	list := make([]*session, 0, len(st.order))
	for _, id := range st.order {
		list = append(list, st.sessions[id])
	}
	st.mu.Unlock()
	views := make([]SessionView, len(list))
	for i, ss := range list {
		views[i] = ss.view()
	}
	return views
}

// CloseSession deletes a session: the state flips to closed immediately
// (new steps answer 410), in-flight steps finish, and the warm iterate and
// plan references are dropped with the last of them. Closing a tombstone
// reports the 410 it already answers with.
func (s *Service) CloseSession(id string) (SessionView, error) {
	ss, err := s.sessions.get(id)
	if err != nil {
		return SessionView{}, err
	}
	if !ss.transition(SessionClosed) {
		return SessionView{}, ss.gone()
	}
	s.sessions.closed.Add(1)
	return ss.view(), nil
}

// StepSession runs the next step of a session: admission (410 for
// tombstones), serialization behind any earlier step, then one warm-started
// solve. progress, when non-nil, receives the engine's own exact residual
// check after every global iteration (core.Options.OnResidual), so the last
// sample equals the step's result — the hook behind the streaming response
// modes. Steps, unlike queued jobs, run without the residual gate
// (jobResidualEvery): they check every iteration, so a stream carries one
// frame per iteration and the hook adds no SpMV.
func (s *Service) StepSession(id string, req StepRequest, progress func(StepProgress)) (StepResult, error) {
	ss, err := s.sessions.get(id)
	if err != nil {
		return StepResult{}, err
	}
	if len(req.RHS) == 0 {
		return StepResult{}, errors.New("service: step rhs must be non-empty")
	}
	if req.TimeoutSeconds < 0 {
		return StepResult{}, fmt.Errorf("service: timeout_seconds must be nonnegative, have %g", req.TimeoutSeconds)
	}
	if err := ss.beginStep(); err != nil {
		return StepResult{}, err
	}
	st := s.sessions
	st.inflight.Add(1)
	started := time.Now()

	// Steps are ordered by definition (each warm-starts from the last), so
	// concurrent steppers of one session queue here, first come first
	// served; sessions never share this lock.
	ss.stepMu.Lock()
	res, warm, stepIdx, err := s.runStep(ss, req, progress)
	ss.stepMu.Unlock()

	ss.endStep(err != nil)
	st.inflight.Add(-1)
	if err != nil {
		st.stepFails.Add(1)
		return StepResult{}, err
	}
	st.steps.Add(1)
	out := StepResult{
		SessionID:        ss.id,
		Step:             stepIdx,
		Converged:        res.Converged,
		GlobalIterations: res.GlobalIterations,
		Residual:         res.Residual,
		WarmStart:        warm,
		WallTime:         time.Since(started).Seconds(),
	}
	if req.IncludeSolution {
		out.X = res.X
	}
	return out, nil
}

// runStep executes one admitted, serialized step. Callers hold ss.stepMu.
func (s *Service) runStep(ss *session, req StepRequest, progress func(StepProgress)) (core.Result, bool, int, error) {
	ss.mu.Lock()
	sess, a := ss.core, ss.a
	ss.mu.Unlock()
	if sess == nil {
		// Closed while we waited for the step lock AND the teardown already
		// ran — only possible when endStep released between our beginStep
		// and here, which beginStep's inflight count prevents; keep the
		// guard anyway so a logic slip degrades to a clean 410.
		return core.Result{}, false, 0, ss.gone()
	}
	if len(req.RHS) != a.Rows {
		return core.Result{}, false, 0, fmt.Errorf("service: step rhs length %d does not match dimension %d", len(req.RHS), a.Rows)
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutSeconds > 0 {
		timeout = time.Duration(req.TimeoutSeconds * float64(time.Second))
	}
	ctx := context.Background()
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	opt := ss.opt
	opt.Ctx = ctx
	if req.Seed != 0 {
		opt.Seed = req.Seed
	}
	if progress != nil {
		opt.OnResidual = func(iter int, residual float64) {
			progress(StepProgress{GlobalIteration: iter, Residual: residual})
		}
	}

	warm := sess.Steps() > 0
	res, err := sess.Step(req.RHS, opt)
	if err != nil {
		return res, warm, 0, err
	}
	if opt.Tolerance > 0 && !res.Converged {
		// Unlike a failed step, a non-converged one HAS advanced the warm
		// iterate (core adopted it); report the condition as an error but
		// after adoption, so the next step continues from the best iterate.
		return res, warm, sess.Steps(), fmt.Errorf("service: %w after %d global iterations (residual %.3e, tolerance %.3e)",
			core.ErrNotConverged, res.GlobalIterations, res.Residual, opt.Tolerance)
	}
	return res, warm, sess.Steps(), nil
}
