package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/sched"
)

// DefaultMaxBody is the request-size limit for POST /v1/jobs (netlists of
// dozens of devices are a few tens of KB; 8 MiB leaves two orders of
// magnitude of headroom).
const DefaultMaxBody = 8 << 20

// Server is the HTTP/JSON front end over a Manager.
//
// Endpoints:
//
//	POST   /v1/jobs             submit a placement job
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        job status (+ result when done)
//	GET    /v1/jobs/{id}/result placement JSON only (byte-identical to cmd/placer)
//	GET    /v1/jobs/{id}/events live NDJSON stream of obs solver events
//	DELETE /v1/jobs/{id}        cancel
//	GET    /healthz             liveness + queue occupancy
//	GET    /metrics             Prometheus text exposition of the registry
type Server struct {
	m       *Manager
	maxBody int64
	mux     *http.ServeMux
}

// NewServer wraps m. maxBody <= 0 selects DefaultMaxBody.
func NewServer(m *Manager, maxBody int64) *Server {
	if maxBody <= 0 {
		maxBody = DefaultMaxBody
	}
	s := &Server{m: m, maxBody: maxBody, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the routing handler.
func (s *Server) Handler() http.Handler { return s.mux }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) // header already sent; nothing useful to do on error
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// errorBody is the structured JSON error payload. Reason is a stable
// machine-readable slug on submit rejections (invalid, queue_full,
// tenant_quota, draining); RetryAfterSec mirrors the Retry-After header on
// backpressure responses so clients parsing only the body still back off.
type errorBody struct {
	Error         string `json:"error"`
	Reason        string `json:"reason,omitempty"`
	Tenant        string `json:"tenant,omitempty"`
	RetryAfterSec int    `json:"retry_after_sec,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req SubmitRequest
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body over the %d-byte limit", tooLarge.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "parsing request: %v", err)
		return
	}
	job, err := s.m.Submit(req)
	switch {
	case errors.Is(err, ErrTenantQuota):
		// The tenant's own backlog is the bottleneck: give in-flight jobs a
		// moment to finish before the client retries.
		var quota *sched.QuotaError
		body := errorBody{Error: err.Error(), Reason: "tenant_quota", RetryAfterSec: 2}
		if errors.As(err, &quota) {
			body.Tenant = quota.Tenant
		}
		w.Header().Set("Retry-After", "2")
		writeJSON(w, http.StatusTooManyRequests, body)
		return
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests,
			errorBody{Error: err.Error(), Reason: "queue_full", RetryAfterSec: 1})
		return
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable,
			errorBody{Error: err.Error(), Reason: "draining"})
		return
	case err != nil:
		writeJSON(w, http.StatusBadRequest,
			errorBody{Error: err.Error(), Reason: "invalid"})
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID())
	writeJSON(w, http.StatusAccepted, job.Status())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.m.Jobs()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.m.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return nil, false
	}
	return j, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	st := j.Status()
	switch {
	case st.State == StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.Write(st.Result.Placement)
	case st.State.Terminal():
		writeError(w, http.StatusConflict, "job %s %s: %s", st.ID, st.State, st.Error)
	default:
		writeError(w, http.StatusConflict, "job %s is %s; result not ready", st.ID, st.State)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	s.m.Cancel(j.ID()) // only fails for unknown IDs, excluded above
	writeJSON(w, http.StatusOK, j.Status())
}

// handleEvents streams the job's telemetry as NDJSON: the full history
// first, then live events as the solvers emit them, terminating when the
// job's tracer closes (one final "summary" event) or the client goes away.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	cur := 0
	for {
		batch, done, wake := j.Sink().After(cur)
		for i := range batch {
			if err := enc.Encode(&batch[i]); err != nil {
				return // client went away
			}
		}
		cur += len(batch)
		if len(batch) > 0 {
			if flusher != nil {
				flusher.Flush()
			}
			continue
		}
		if done {
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.m.Health()
	status := "ok"
	if h.Draining {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      status,
		"workers":     h.Workers,
		"queue_depth": h.QueueDepth,
		"queue_cap":   h.QueueCap,
		"running":     h.Running,
	})
}

// handleMetrics serves the registry in the Prometheus text exposition. The
// query string is ignored, so a scraper still sending ?format=prometheus
// gets the same text.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.m.WritePrometheus(w) // header already sent; nothing useful to do on error
}
