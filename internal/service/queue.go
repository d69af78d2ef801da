package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/certify"
	"repro/internal/sparse"
)

// Sentinel errors of the job queue.
var (
	// ErrQueueFull is reported by Submit when the bounded queue has no
	// room; the HTTP layer maps it to 429 Too Many Requests.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrShuttingDown is reported by Submit after Shutdown started.
	ErrShuttingDown = errors.New("service: shutting down")
	// ErrUnknownJob is reported for job IDs the service never issued.
	ErrUnknownJob = errors.New("service: unknown job")
)

// JobState is the lifecycle state of a submitted solve.
type JobState int

const (
	// JobQueued: accepted, waiting for a worker.
	JobQueued JobState = iota
	// JobRunning: a worker is iterating.
	JobRunning
	// JobDone: finished successfully (converged, or ran its iteration
	// budget with no tolerance set).
	JobDone
	// JobFailed: finished with an error (divergence, non-convergence
	// against a tolerance, bad plan, ...).
	JobFailed
	// JobCanceled: canceled by the client or by its deadline, either
	// while queued or mid-iteration.
	JobCanceled
)

// String implements fmt.Stringer (the API's state vocabulary).
func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	case JobCanceled:
		return "canceled"
	default:
		return "unknown"
	}
}

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// Progress is a point-in-time snapshot of a running solve, updated by
// every exact residual check of the engine (core.Options.OnResidual). A
// queued job runs under the residual gate (jobResidualEvery), so progress
// advances at its exact checks, not every global iteration; a
// record_history job checks, and reports, every iteration.
type Progress struct {
	// GlobalIteration is the global iteration of the last exact check.
	GlobalIteration int `json:"global_iteration"`
	// Residual is the engine's exact ‖b−Ax‖₂ at that iteration (0 until
	// first measured); the stop is always decided by an exact check, so a
	// finished block-asynchronous solve's last value equals its result's
	// (GlobalIterations, Residual).
	Residual float64 `json:"residual"`
	// NumBlocks is the subdomain count of the plan (0 until planned).
	NumBlocks int `json:"num_blocks,omitempty"`
	// PlanHit reports whether the job's plan came from the cache.
	PlanHit bool `json:"plan_hit"`
}

// JobResult is the outcome of a finished solve.
type JobResult struct {
	Converged        bool      `json:"converged"`
	GlobalIterations int       `json:"global_iterations"`
	Residual         float64   `json:"residual"`
	History          []float64 `json:"history,omitempty"`
	X                []float64 `json:"x,omitempty"`
	NumBlocks        int       `json:"num_blocks"`
	PlanHit          bool      `json:"plan_hit"`
	// Fingerprint is the content hash of the solved matrix — the key the
	// plan/tune caches and the fleet gateway's consistent-hash ring route
	// by. Clients (and the gateway itself) can compare it against the ring
	// to verify placement and debug cache-affinity misses.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Attempts is how many runs the job took (retries included).
	Attempts int     `json:"attempts"`
	WallTime float64 `json:"wall_seconds"`
	// Devices, Strategy and ModeledSeconds describe a multi-device job:
	// the device count, the communication strategy it exchanged boundary
	// components with, and the modeled wall time of the execution
	// (per-iteration topology cost × iterations). Zero/empty for
	// single-device jobs.
	Devices        int     `json:"devices,omitempty"`
	Strategy       string  `json:"strategy,omitempty"`
	ModeledSeconds float64 `json:"modeled_seconds,omitempty"`
	// Analysis is the paper's pre-flight advice, rendered from the
	// matrix's convergence certificate when the cache's AnalyzeSpectrum
	// is set ("rho(|B|)=… asynchronous convergence guaranteed"). It is
	// advisory: empty when certification failed.
	Analysis string `json:"analysis,omitempty"`
	// Tuned reports the auto-tuned parameters of a "tune": "auto" job
	// (nil for explicitly configured jobs).
	Tuned *TunedParams `json:"tuned,omitempty"`
	// Certificate echoes the admission certificate of a certify=warn or
	// certify=enforce job (nil when certification was off).
	Certificate *certify.Certificate `json:"certificate,omitempty"`
	// PredictedVsActual is GlobalIterations / Certificate.PredictedIters —
	// how the certifier's priced budget compared to the solve it admitted.
	// 0 when no prediction applied (certify off, no Converges verdict, or
	// a fallback run).
	PredictedVsActual float64 `json:"predicted_vs_actual,omitempty"`
	// Kernel is the sweep-kernel dispatch the plan resolved to ("csr" or
	// "stencil") — under kernel "auto" this reports what the detector
	// actually chose. Precision echoes the iterate storage precision the
	// solve ran with ("f64" or "f32"). Both empty for fallback runs, which
	// bypass the block-asynchronous kernels.
	Kernel    string `json:"kernel,omitempty"`
	Precision string `json:"precision,omitempty"`
	// Method echoes the solver method the attempt ran with ("jacobi",
	// "richardson2" or "multigrid"); Beta the resolved momentum coefficient
	// (0 outside richardson2). Empty/zero for fallback runs.
	Method string  `json:"method,omitempty"`
	Beta   float64 `json:"beta,omitempty"`
	// Fallback is "gmres" when an enforce-mode divergent verdict rerouted
	// the job to the synchronous GMRES solver; empty otherwise.
	Fallback string `json:"fallback,omitempty"`
	// Batch carries the per-system outcomes of a batched job (POST
	// /v1/batch); nil for single-system jobs.
	Batch *BatchSummary `json:"batch,omitempty"`
}

// JobView is an immutable snapshot of a job, safe to serialize.
type JobView struct {
	ID       string     `json:"id"`
	State    string     `json:"state"`
	Progress Progress   `json:"progress"`
	Error    string     `json:"error,omitempty"`
	Result   *JobResult `json:"result,omitempty"`
	// Attempts is the current (or final) run count, retries included;
	// 0 while the job is still queued.
	Attempts int       `json:"attempts"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
}

// Job is one submitted solve moving through the queue. All mutation goes
// through its methods; concurrent Snapshot/Cancel are safe.
type Job struct {
	id string
	// req is the submitted request without its Matrix Market text: the job
	// keeps the operator parsed from it instead (a).
	req SolveRequest
	// a and fp are the operator and fingerprint Submit resolved for
	// admission, set before the queue send. Every attempt solves a, so an
	// upload is parsed and hashed once per job. The terminal transition
	// drops a (under mu), so a finished job holds neither the text nor the
	// operator; the worker reads it only while the job is running.
	a  *sparse.CSR
	fp string

	mu       sync.Mutex
	state    JobState
	progress Progress
	result   *JobResult
	attempts int
	err      error
	created  time.Time
	started  time.Time
	finished time.Time
	cancel   context.CancelFunc // set while running

	done     chan struct{}
	doneOnce sync.Once
	// count, if non-nil, is told the terminal state once, before done
	// closes, so a caller woken by Done already finds its job in the
	// service's outcome counters.
	count func(JobState)

	// cert and gmresFallback are the admission pre-flight outcome, set in
	// Submit before the job enters the queue (the channel send orders them
	// before any worker read) and immutable afterwards.
	cert          *certify.Certificate
	gmresFallback bool
	// batch marks a batched job (SubmitBatch): the worker fans out over its
	// systems via core.SolveBatch instead of running one solve. Set before
	// the queue send, immutable afterwards.
	batch *BatchRequest
}

func newJob(id string, req SolveRequest, a *sparse.CSR, fp string, count func(JobState)) *Job {
	req.MatrixMarket = ""
	return &Job{id: id, req: req, a: a, fp: fp, created: time.Now(), done: make(chan struct{}), count: count}
}

// ID returns the service-assigned job identifier.
func (j *Job) ID() string { return j.id }

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Err returns the terminal error (nil while non-terminal or on success).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Result returns the terminal result, or nil.
func (j *Job) Result() *JobResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Snapshot returns a serializable view of the job.
func (j *Job) Snapshot() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:       j.id,
		State:    j.state.String(),
		Progress: j.progress,
		Result:   j.result,
		Attempts: j.attempts,
		Created:  j.created,
		Started:  j.started,
		Finished: j.finished,
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	return v
}

// start transitions Queued → Running and installs the cancel function.
// It returns false when the job was canceled while queued (the worker
// then skips it).
func (j *Job) start(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobQueued {
		return false
	}
	j.state = JobRunning
	j.started = time.Now()
	j.cancel = cancel
	return true
}

// setAttempt publishes the run count before an attempt starts.
func (j *Job) setAttempt(n int) {
	j.mu.Lock()
	if !j.state.Terminal() {
		j.attempts = n
	}
	j.mu.Unlock()
}

// setProgress publishes an iteration snapshot (no-op once terminal).
func (j *Job) setProgress(p Progress) {
	j.mu.Lock()
	if !j.state.Terminal() {
		j.progress = p
	}
	j.mu.Unlock()
}

// finish moves the job to its terminal state. canceled selects
// JobCanceled over JobFailed for non-nil errors.
func (j *Job) finish(result *JobResult, err error, canceled bool) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.result = result
	j.err = err
	switch {
	case canceled:
		j.state = JobCanceled
	case err != nil:
		j.state = JobFailed
	default:
		j.state = JobDone
	}
	j.finished = time.Now()
	j.cancel = nil
	j.a = nil
	st := j.state
	j.mu.Unlock()
	j.settle(st)
}

// settle publishes a terminal transition just made under j.mu: the outcome
// count first, then Done.
func (j *Job) settle(st JobState) {
	if j.count != nil {
		j.count(st)
	}
	j.doneOnce.Do(func() { close(j.done) })
}

// Cancel requests cancellation: a queued job goes terminal immediately; a
// running job has its context canceled and goes terminal at the engine's
// next global-iteration boundary. Canceling a terminal job is a no-op.
func (j *Job) Cancel(reason error) {
	j.mu.Lock()
	switch j.state {
	case JobQueued:
		j.state = JobCanceled
		j.err = reason
		j.finished = time.Now()
		j.a = nil
		j.mu.Unlock()
		j.settle(JobCanceled)
	case JobRunning:
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	default:
		j.mu.Unlock()
	}
}

// Queue is a bounded job queue drained by a fixed worker pool.
type Queue struct {
	ch      chan *Job
	run     func(*Job)
	workers int
	busy    atomic.Int64

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

// NewQueue starts workers goroutines draining a queue of the given depth;
// each dequeued job is handed to run.
func NewQueue(depth, workers int, run func(*Job)) *Queue {
	if depth <= 0 {
		depth = 64
	}
	if workers <= 0 {
		workers = 4
	}
	q := &Queue{ch: make(chan *Job, depth), run: run, workers: workers}
	for i := 0; i < workers; i++ {
		q.wg.Add(1)
		go func() {
			defer q.wg.Done()
			for j := range q.ch {
				q.busy.Add(1)
				q.run(j)
				q.busy.Add(-1)
			}
		}()
	}
	return q
}

// Submit enqueues a job without blocking; it reports ErrQueueFull when
// the queue is at capacity and ErrShuttingDown after Close.
func (q *Queue) Submit(j *Job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrShuttingDown
	}
	select {
	case q.ch <- j:
		return nil
	default:
		return ErrQueueFull
	}
}

// Close stops accepting jobs; queued jobs still run.
func (q *Queue) Close() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		close(q.ch)
	}
	q.mu.Unlock()
}

// Drain closes the queue and blocks until every accepted job finished.
func (q *Queue) Drain() {
	q.Close()
	q.wg.Wait()
}

// Depth returns the number of queued (not yet running) jobs.
func (q *Queue) Depth() int { return len(q.ch) }

// Capacity returns the queue bound.
func (q *Queue) Capacity() int { return cap(q.ch) }

// Workers returns the pool size.
func (q *Queue) Workers() int { return q.workers }

// Busy returns the number of workers currently running a job.
func (q *Queue) Busy() int { return int(q.busy.Load()) }
