package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

// newService builds the service the way cmd/solverd builds it from its
// default flags: 4 workers, queue depth 64, 64 cached plans, spectral
// pre-flight analysis on, one attempt per job.
func newService() *service.Service {
	return service.New(service.Config{
		QueueDepth:      64,
		Workers:         4,
		MaxAttempts:     1,
		RetryBaseDelay:  100 * time.Millisecond,
		RetryMaxDelay:   5 * time.Second,
		SessionTTL:      5 * time.Minute,
		MaxSessions:     256,
		MaxBatchSystems: 1024,
		MaxBatchWorkers: 8,
		Cache: service.CacheConfig{
			MaxEntries:      64,
			AnalyzeSpectrum: true,
		},
	})
}

// newEpoch starts a fresh service and its HTTP handler.
func newEpoch(index int) *epoch {
	svc := newService()
	return &epoch{index: index, svc: svc, h: service.NewHandler(svc)}
}

// epoch is one fresh service: warmed up, measured for a bounded number of
// operations, then shut down before the next epoch starts.
type epoch struct {
	index int
	svc   *service.Service
	h     http.Handler
	// state is the workload's per-epoch client state (session ids).
	state any
}

// opRecord is one measured operation.
type opRecord struct {
	id     int // run-wide op id (shared by the op's spans)
	client int
	input  int // index of the input the op sent (operator or step)
	start  time.Time
	end    time.Time
	err    string // empty when the op succeeded and its answer checked out
	// wrong marks an answer that contradicts itself: reported converged
	// with a residual above the tolerance.
	wrong bool

	// Job operations: the POST and GET calls and the job's own timestamps.
	postEnd, getStart          time.Time
	created, started, finished time.Time
	// Reported by the program.
	iters    int
	stepWall float64 // session step: the service's own step timing
}

func (r opRecord) latency() float64 { return r.end.Sub(r.start).Seconds() }

// post sends a request through the service's public HTTP handler.
func post(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

func get(h http.Handler, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// jobOp runs one solve: POST /v1/solve, wait on the job's Done channel (no
// polling), GET /v1/jobs/{id}. It checks that the job converged to within
// tol and returns the decoded view.
func jobOp(ep *epoch, body []byte, tol float64) (opRecord, *service.JobView) {
	var r opRecord
	r.start = time.Now()
	rec := post(ep.h, "/v1/solve", body)
	r.postEnd = time.Now()
	if rec.Code != http.StatusAccepted {
		r.end = r.postEnd
		r.err = fmt.Sprintf("POST /v1/solve: %d %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		return r, nil
	}
	var sub struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		r.end = time.Now()
		r.err = "decoding submit response: " + err.Error()
		return r, nil
	}
	j, err := ep.svc.Job(sub.JobID)
	if err != nil {
		r.end = time.Now()
		r.err = err.Error()
		return r, nil
	}
	<-j.Done()
	r.getStart = time.Now()
	rec = get(ep.h, "/v1/jobs/"+sub.JobID)
	r.end = time.Now()
	var v service.JobView
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		r.err = "decoding job view: " + err.Error()
		return r, nil
	}
	r.created, r.started, r.finished = v.Created, v.Started, v.Finished
	switch {
	case rec.Code != http.StatusOK:
		r.err = fmt.Sprintf("GET job: %d", rec.Code)
	case v.State != "done" || v.Result == nil:
		r.err = fmt.Sprintf("job %s ended %s: %s", v.ID, v.State, v.Error)
	case !v.Result.Converged:
		r.err = fmt.Sprintf("job %s did not converge", v.ID)
	case !(v.Result.Residual <= tol):
		r.err = fmt.Sprintf("job %s residual %g above tolerance %g", v.ID, v.Result.Residual, tol)
		r.wrong = true
	default:
		r.iters = v.Result.GlobalIterations
	}
	return r, &v
}

// sliceResult is what one epoch's measured slice produced.
type sliceResult struct {
	ops          []opRecord
	seconds      float64
	setupSeconds float64
	peakRSS      uint64
	gcBefore     gcStats
	gcAfter      gcStats
	before       counters
	after        counters
	retained     float64 // live-heap growth over the slice, bytes
	traced       bool
}

// runEpoch builds a fresh service, warms it up (timed: one set-up sample)
// and measures up to w.epochOps operations or until budget runs out. It
// returns the live epoch: the caller probes it on a traced run, then shuts
// it down. nextID numbers ops run-wide.
func runEpoch(w *workload, r runner, index int, budget time.Duration, traced bool, tr *tracer, nextID *atomic.Int64) (sliceResult, *epoch, error) {
	var res sliceResult
	res.traced = traced
	// Collect the previous service's garbage first, so its collection is
	// not charged to this service's set-up.
	runtime.GC()
	t0 := time.Now()
	ep := newEpoch(index)
	if err := r.warmUp(ep); err != nil {
		shutdown(ep.svc)
		return res, nil, fmt.Errorf("epoch %d warm-up: %w", index, err)
	}
	res.setupSeconds = time.Since(t0).Seconds()

	// Start the slice from a collected heap with freed memory returned to
	// the OS, so its peak resident size reflects the slice's own working set.
	debug.FreeOSMemory()
	heap0 := liveHeap()
	res.before = scrape(ep.h)
	res.gcBefore = readGC()
	rss := startRSS()

	var (
		mu    sync.Mutex
		taken atomic.Int64
		wg    sync.WaitGroup
	)
	sliceStart := time.Now()
	deadline := sliceStart.Add(budget)
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(taken.Add(1) - 1)
				if i >= w.epochOps || (i > 0 && time.Now().After(deadline)) {
					return
				}
				rec := r.op(ep, c, i)
				rec.id = int(nextID.Add(1) - 1)
				rec.client = c
				if traced {
					recordOpSpans(tr, rec)
				}
				mu.Lock()
				res.ops = append(res.ops, rec)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	res.seconds = time.Since(sliceStart).Seconds()
	res.peakRSS = rss.finish()
	res.gcAfter = readGC()
	res.after = scrape(ep.h)
	res.retained = float64(liveHeap()) - float64(heap0)
	return res, ep, nil
}

// recordOpSpans turns an op's timestamps into spans: the op itself, the
// POST and GET handler calls, and the job's queue wait and attempt taken
// from its own Created/Started/Finished timestamps.
func recordOpSpans(tr *tracer, r opRecord) {
	root := tr.add("op", r.id, -1, r.start, r.end)
	if r.postEnd.IsZero() {
		tr.add("service.post", r.id, root, r.start, r.end)
		return
	}
	tr.add("service.post", r.id, root, r.start, r.postEnd)
	if !r.started.IsZero() {
		tr.add("service.queue_wait", r.id, root, r.created, r.started)
		tr.add("service.attempt", r.id, root, r.started, r.finished)
	}
	if !r.getStart.IsZero() {
		tr.add("service.get", r.id, root, r.getStart, r.end)
	}
}

// shutdown drains the service with the daemon's default drain bound.
func shutdown(svc *service.Service) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = svc.Shutdown(ctx) // a drain past the bound cancels the stragglers itself
}
