package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// registerSessionRoutes adds the streaming solve-session API:
//
//	POST   /v1/sessions           create a session (SessionRequest JSON) → 201
//	GET    /v1/sessions           list all sessions (tombstones included)
//	GET    /v1/sessions/{id}      session state and counters
//	POST   /v1/sessions/{id}/step solve the next RHS (StepRequest JSON);
//	                              "stream": "sse" or "json" streams the live
//	                              residual, otherwise one JSON document
//	DELETE /v1/sessions/{id}      close the session (410 for later steps)
//
// A step against an expired or closed session answers a structured 410
// whose body carries the session's fingerprint — the key a client (or the
// gateway) needs to re-create it in the right place. Unknown IDs are 404.
func registerSessionRoutes(mux *http.ServeMux, s *Service) {
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		var req SessionRequest
		if !decodeBody(w, r, &req) {
			return
		}
		v, err := s.CreateSession(req)
		if err != nil {
			writeSubmitError(w, s, err)
			return
		}
		w.Header().Set("Location", "/v1/sessions/"+v.ID)
		writeJSON(w, http.StatusCreated, v)
	})
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, sessionListResponse{Sessions: s.Sessions()})
	})
	mux.HandleFunc("GET /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		v, err := s.Session(r.PathValue("id"))
		if err != nil {
			writeSessionError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, v)
	})
	mux.HandleFunc("DELETE /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		v, err := s.CloseSession(r.PathValue("id"))
		if err != nil {
			writeSessionError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, v)
	})
	mux.HandleFunc("POST /v1/sessions/{id}/step", func(w http.ResponseWriter, r *http.Request) {
		var req StepRequest
		if !decodeBody(w, r, &req) {
			return
		}
		switch strings.ToLower(strings.TrimSpace(req.Stream)) {
		case "":
			res, err := s.StepSession(r.PathValue("id"), req, nil)
			if err != nil {
				writeSessionError(w, err)
				return
			}
			writeJSON(w, http.StatusOK, res)
		case "sse":
			streamStep(w, s, r.PathValue("id"), req, sseEncoder{})
		case "json":
			streamStep(w, s, r.PathValue("id"), req, jsonLineEncoder{})
		default:
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("service: unknown stream mode %q (want \"sse\", \"json\" or empty)", req.Stream))
		}
	})
}

// registerBatchRoutes adds the batched many-small-systems API:
//
//	POST /v1/batch submit N systems sharing one structure (BatchRequest
//	               JSON) → 202 + job ID; the finished job's result carries
//	               the per-system outcomes under "batch"
func registerBatchRoutes(mux *http.ServeMux, s *Service) {
	mux.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, r *http.Request) {
		var req BatchRequest
		if !decodeBody(w, r, &req) {
			return
		}
		j, err := s.SubmitBatch(req)
		if err != nil {
			writeSubmitError(w, s, err)
			return
		}
		w.Header().Set("Location", "/v1/jobs/"+j.ID())
		writeJSON(w, http.StatusAccepted, submitResponse{
			JobID:     j.ID(),
			State:     j.State().String(),
			StatusURL: "/v1/jobs/" + j.ID(),
		})
	})
}

// decodeBody reads and unmarshals a bounded JSON request body, answering
// the appropriate 4xx itself; it reports whether the caller may proceed.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		writeError(w, ReadErrorStatus(err), fmt.Errorf("service: reading request: %w", err))
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: decoding request: %w", err))
		return false
	}
	return true
}

// ReadErrorStatus is the HTTP status for a request body that could not be
// read through http.MaxBytesReader: 413 when the body exceeds the bound,
// 400 for any other failure, such as a body cut short or aborted by the
// client.
func ReadErrorStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// writeSubmitError maps a Submit/SubmitBatch/CreateSession error onto the
// HTTP surface, including the structured 422 certificate body and the
// priced 429 Retry-After (shared with POST /v1/solve).
func writeSubmitError(w http.ResponseWriter, s *Service, err error) {
	if ce := errCertificate(err); ce != nil {
		writeJSON(w, http.StatusUnprocessableEntity, certErrorResponse{
			Error:       err.Error(),
			Certificate: ce.Certificate,
		})
		return
	}
	status := submitStatus(err)
	if errors.Is(err, ErrTooManySessions) {
		status = http.StatusTooManyRequests
	}
	if status == http.StatusTooManyRequests && !errors.Is(err, ErrTooManySessions) {
		w.Header().Set("Retry-After", fmt.Sprint(s.RetryAfterSeconds()))
	}
	writeError(w, status, err)
}

// sessionGoneResponse is the structured 410 body: the code distinguishes
// an idle-TTL expiry from a client close (the gateway's failover variant
// uses "session-lost"), and the fingerprint lets the caller re-create the
// session without re-deriving its routing key.
type sessionGoneResponse struct {
	Error       string `json:"error"`
	Code        string `json:"code"`
	SessionID   string `json:"session_id"`
	Fingerprint string `json:"fingerprint"`
}

type sessionListResponse struct {
	Sessions []SessionView `json:"sessions"`
}

// writeSessionError maps session lookup/step errors: 404 unknown, 410
// gone (structured), 409 canceled, 422 solve failures, 400 otherwise.
func writeSessionError(w http.ResponseWriter, err error) {
	var gone *SessionGoneError
	if errors.As(err, &gone) {
		writeJSON(w, http.StatusGone, sessionGoneResponse{
			Error:       err.Error(),
			Code:        "session-" + gone.State.String(),
			SessionID:   gone.ID,
			Fingerprint: gone.Fingerprint,
		})
		return
	}
	writeError(w, sessionErrStatus(err), err)
}

func sessionErrStatus(err error) int {
	switch {
	case errors.Is(err, ErrUnknownSession):
		return http.StatusNotFound
	case isSolveFailure(err):
		return http.StatusUnprocessableEntity
	default:
		return submitStatus(err)
	}
}
