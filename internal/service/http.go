package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"repro/internal/certify"
	"repro/internal/core"
)

// NewHandler returns the daemon's HTTP API:
//
//	POST   /v1/solve     submit a solve (SolveRequest JSON) → 202 + job ID
//	GET    /v1/jobs      list all jobs
//	GET    /v1/jobs/{id} job status, progress and (when finished) result
//	DELETE /v1/jobs/{id} cancel a queued or running job
//	GET    /healthz      liveness probe
//	GET    /readyz       readiness probe: 503 once a drain began
//	GET    /statsz       queue depth, worker utilization, plan-cache rates
//	GET    /metricsz     the same counters (plus engine/device series) in
//	                     Prometheus text exposition format
//
// Errors are JSON objects {"error": "..."} with conventional status codes
// (400 invalid request, including a body cut short, 404 unknown job, 413
// body over 256 MiB, 422 certified divergent — the body then also carries
// the certificate — 429 queue full, 503 shutdown).
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", func(w http.ResponseWriter, r *http.Request) {
		var req SolveRequest
		if !decodeBody(w, r, &req) {
			return
		}
		// X-Chaos is the debug side channel for schedule perturbation;
		// it overrides any chaos block in the body and is rejected with
		// 403 unless the daemon enables chaos.
		if h := r.Header.Get("X-Chaos"); h != "" {
			spec, err := ParseChaosHeader(h)
			if err != nil {
				writeError(w, http.StatusBadRequest, err)
				return
			}
			req.Chaos = spec
		}
		j, err := s.Submit(req)
		if err != nil {
			if ce := errCertificate(err); ce != nil {
				// A certified-divergent refusal is not a generic 400: the
				// 422 body carries the certificate so the client (and the
				// gateway, which never fails these over) can see the proof.
				writeJSON(w, http.StatusUnprocessableEntity, certErrorResponse{
					Error:       err.Error(),
					Certificate: ce.Certificate,
				})
				return
			}
			status := submitStatus(err)
			if status == http.StatusTooManyRequests {
				// Price the 429 from the live backlog and the observed
				// solve-duration distribution instead of a constant.
				w.Header().Set("Retry-After", strconv.Itoa(s.RetryAfterSeconds()))
			}
			writeError(w, status, err)
			return
		}
		w.Header().Set("Location", "/v1/jobs/"+j.ID())
		writeJSON(w, http.StatusAccepted, submitResponse{
			JobID:     j.ID(),
			State:     j.State().String(),
			StatusURL: "/v1/jobs/" + j.ID(),
		})
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, jobListResponse{Jobs: s.Jobs()})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, err := s.Job(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, j.Snapshot())
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if err := s.Cancel(id); err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		j, err := s.Job(id)
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, j.Snapshot())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		// Readiness is distinct from liveness: the moment a drain begins
		// this flips to 503 so a routing gateway stops sending work here,
		// while /healthz keeps answering 200 for the process supervisor.
		if s.Draining() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	mux.HandleFunc("GET /statsz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.Handle("GET /metricsz", s.Metrics().Handler())
	registerSessionRoutes(mux, s)
	registerBatchRoutes(mux, s)
	return mux
}

// maxRequestBytes bounds a request body (inline Matrix Market payloads are
// the large case: ~30 bytes per nonzero).
const maxRequestBytes = 256 << 20

type submitResponse struct {
	JobID     string `json:"job_id"`
	State     string `json:"state"`
	StatusURL string `json:"status_url"`
}

type jobListResponse struct {
	Jobs []JobView `json:"jobs"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// certErrorResponse is the structured 422 body of an admission refusal.
type certErrorResponse struct {
	Error       string              `json:"error"`
	Certificate certify.Certificate `json:"certificate"`
}

// submitStatus maps Submit errors to HTTP status codes.
func submitStatus(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrShuttingDown):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrChaosDisabled):
		return http.StatusForbidden
	case errors.Is(err, core.ErrCanceled):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // client gone: nothing useful to do
}

func writeError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests && w.Header().Get("Retry-After") == "" {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
