package serve

// The HTTP+JSON surface. Every endpoint is registered through the
// route table in serve.go and documented in docs/API.md (test-enforced
// both ways). Handlers translate between the wire types below and the
// registry; all simulation work happens on the scheduler, so handlers
// stay fast even while tenants are mid-round.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"netscatter/internal/sim"
)

// CreateResponse answers POST /v1/deployments.
type CreateResponse struct {
	ID int64 `json:"id"`
}

// DeploymentInfo is one tenant's control-plane view.
type DeploymentInfo struct {
	ID         int64            `json:"id"`
	Name       string           `json:"name,omitempty"`
	State      string           `json:"state"` // "idle" | "running" | "quarantined"
	Continuous bool             `json:"continuous"`
	Pending    int              `json:"pending"`
	Rounds     int              `json:"rounds"`
	Adversity  bool             `json:"adversity"`
	Soft       bool             `json:"soft_combining"`
	LastError  string           `json:"last_error,omitempty"`
	CreatedAt  time.Time        `json:"created_at"`
	Config     DeploymentConfig `json:"config"`
}

// StatsResponse answers GET /v1/deployments/{id}/stats.
type StatsResponse struct {
	ID         int64        `json:"id"`
	State      string       `json:"state"`
	Continuous bool         `json:"continuous"`
	Pending    int          `json:"pending"`
	Adversity  bool         `json:"adversity"`
	Soft       bool         `json:"soft_combining"`
	Stats      sim.Snapshot `json:"stats"`
}

// StepRequest asks for rounds to be enqueued (default 1).
type StepRequest struct {
	Rounds int `json:"rounds,omitempty"`
}

// StepResponse reports the backlog after a step/run/pause request.
type StepResponse struct {
	Pending    int  `json:"pending"`
	Continuous bool `json:"continuous"`
}

// ConfigRequest toggles per-tenant options. Nil fields are untouched.
// Adversity processes are fixed the first time they are enabled;
// setting adversity again reattaches the same trajectory, and
// disable_adversity reverts to plain rounds (trajectory state is
// retained for the next enable).
type ConfigRequest struct {
	SoftCombining    *bool            `json:"soft_combining,omitempty"`
	Adversity        *AdversityConfig `json:"adversity,omitempty"`
	DisableAdversity bool             `json:"disable_adversity,omitempty"`
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, code int, format string, args ...any) {
	if code == http.StatusTooManyRequests {
		s.metrics.throttled.Add(1)
	}
	s.metrics.httpErrors.Add(1)
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// maxBodyBytes caps every JSON request body. Valid bodies are well
// under 1 KiB; the cap bounds what one request can make the server
// read.
const maxBodyBytes = 64 << 10

// decodeBody decodes r's JSON body into v. A body over maxBodyBytes is
// refused with 413; an unknown field, a malformed value or trailing
// data after it with 400. An empty body leaves v as it was when
// allowEmpty is set and is malformed otherwise. False means the error
// response was written.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, what string, v any, allowEmpty bool) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	switch {
	case allowEmpty && errors.Is(err, io.EOF):
		return true
	case err == nil:
		// Reading on to the end applies the cap to the whole body, not
		// only to the value.
		if _, err = dec.Token(); errors.Is(err, io.EOF) {
			return true
		} else if err == nil {
			err = errors.New("trailing data after the JSON value")
		}
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		s.writeError(w, http.StatusRequestEntityTooLarge, "%s body exceeds %d bytes", what, maxBodyBytes)
	} else {
		s.writeError(w, http.StatusBadRequest, "malformed %s: %v", what, err)
	}
	return false
}

// tenantFromPath resolves {id}; nil means the response was written.
func (s *Server) tenantFromPath(w http.ResponseWriter, r *http.Request) *tenant {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "malformed deployment id %q", r.PathValue("id"))
		return nil
	}
	t := s.reg.get(id)
	if t == nil {
		s.writeError(w, http.StatusNotFound, "no deployment %d", id)
		return nil
	}
	return t
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.metrics.snapshot()
	m["deployments_active"] = int64(s.reg.count())
	m["queued_turns"] = int64(s.sched.Queued())
	m["goroutines"] = int64(runtime.NumGoroutine())
	m["uptime_seconds"] = int64(time.Since(s.start).Seconds())
	writeJSON(w, http.StatusOK, m)
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var cfg DeploymentConfig
	if !s.decodeBody(w, r, "deployment config", &cfg, false) {
		return
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(s.cfg.MaxDevices); err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	t, err := buildTenant(cfg)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "building deployment: %v", err)
		return
	}
	id, err := s.reg.add(t, s.cfg.MaxDeployments)
	if err != nil {
		s.writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	}
	s.metrics.created.Add(1)
	writeJSON(w, http.StatusCreated, CreateResponse{ID: id})
}

// stateLocked names t's scheduling state. Callers hold t.mu.
func (t *tenant) stateLocked() string {
	switch {
	case t.quarantined:
		return "quarantined"
	case t.scheduled:
		return "running"
	}
	return "idle"
}

func (t *tenant) info() DeploymentInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	return DeploymentInfo{
		ID:         t.id,
		Name:       t.cfg.Name,
		State:      t.stateLocked(),
		Continuous: t.continuous,
		Pending:    t.pending,
		Rounds:     t.acc.Rounds(),
		Adversity:  t.advOn,
		Soft:       t.softOn,
		LastError:  t.lastErr,
		CreatedAt:  t.created,
		Config:     t.cfg,
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	tenants := s.reg.all()
	out := make([]DeploymentInfo, 0, len(tenants))
	for _, t := range tenants {
		out = append(out, t.info())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleDetail(w http.ResponseWriter, r *http.Request) {
	t := s.tenantFromPath(w, r)
	if t == nil {
		return
	}
	writeJSON(w, http.StatusOK, t.info())
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "malformed deployment id %q", r.PathValue("id"))
		return
	}
	t := s.reg.remove(id)
	if t == nil {
		s.writeError(w, http.StatusNotFound, "no deployment %d", id)
		return
	}
	s.teardown(t)
	s.metrics.closed.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

// refusalLocked returns the status and message refusing t further
// rounds — 404 once closed, 409 once a panicked round quarantined it —
// or status 0 when it may run them. Callers hold t.mu.
func (t *tenant) refusalLocked() (int, string) {
	switch {
	case t.closed:
		return http.StatusNotFound, fmt.Sprintf("deployment %d is closed", t.id)
	case t.quarantined:
		return http.StatusConflict, fmt.Sprintf("deployment %d is quarantined (%s); delete it", t.id, t.lastErr)
	}
	return 0, ""
}

func (s *Server) handleStep(w http.ResponseWriter, r *http.Request) {
	t := s.tenantFromPath(w, r)
	if t == nil {
		return
	}
	req := StepRequest{Rounds: 1}
	if !s.decodeBody(w, r, "step request", &req, true) {
		return
	}
	if req.Rounds == 0 {
		req.Rounds = 1
	}
	if req.Rounds < 1 {
		s.writeError(w, http.StatusBadRequest, "rounds must be at least 1 (got %d)", req.Rounds)
		return
	}
	t.mu.Lock()
	if code, msg := t.refusalLocked(); code != 0 {
		t.mu.Unlock()
		s.writeError(w, code, "%s", msg)
		return
	}
	// Compare against the headroom rather than summing: pending and
	// MaxPending are both small non-negatives, so MaxPending-pending
	// cannot overflow, whereas pending+req.Rounds wraps negative for a
	// huge request and would slip past the bound.
	if req.Rounds > s.cfg.MaxPending-t.pending {
		pending := t.pending
		t.mu.Unlock()
		s.writeError(w, http.StatusTooManyRequests,
			"backlog full: %d pending + %d requested exceeds %d; retry after rounds drain",
			pending, req.Rounds, s.cfg.MaxPending)
		return
	}
	t.pending += req.Rounds
	err := s.kickLocked(t)
	resp := StepResponse{Pending: t.pending, Continuous: t.continuous}
	t.mu.Unlock()
	if err != nil {
		s.writeError(w, http.StatusServiceUnavailable, "scheduling: %v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, resp)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	t := s.tenantFromPath(w, r)
	if t == nil {
		return
	}
	t.mu.Lock()
	if code, msg := t.refusalLocked(); code != 0 {
		t.mu.Unlock()
		s.writeError(w, code, "%s", msg)
		return
	}
	t.continuous = true
	err := s.kickLocked(t)
	resp := StepResponse{Pending: t.pending, Continuous: true}
	t.mu.Unlock()
	if err != nil {
		s.writeError(w, http.StatusServiceUnavailable, "scheduling: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handlePause(w http.ResponseWriter, r *http.Request) {
	t := s.tenantFromPath(w, r)
	if t == nil {
		return
	}
	t.mu.Lock()
	t.continuous = false
	t.pending = 0
	resp := StepResponse{Pending: 0, Continuous: false}
	t.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleConfig(w http.ResponseWriter, r *http.Request) {
	t := s.tenantFromPath(w, r)
	if t == nil {
		return
	}
	var req ConfigRequest
	if !s.decodeBody(w, r, "config request", &req, false) {
		return
	}
	if req.Adversity != nil && req.DisableAdversity {
		s.writeError(w, http.StatusBadRequest, "adversity and disable_adversity are mutually exclusive")
		return
	}

	// Sim-plane mutations exclude a turn in progress; the control-plane
	// mirrors update after, so readers never see a half-applied toggle.
	adv, soft, err := t.applyConfig(req)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "enabling adversity: %v", err)
		return
	}

	t.mu.Lock()
	t.advOn = adv
	t.softOn = soft
	if req.Adversity != nil && t.cfg.Adversity == nil {
		a := *req.Adversity
		t.cfg.Adversity = &a
	}
	t.mu.Unlock()
	writeJSON(w, http.StatusOK, t.info())
}

// applyConfig applies req's sim-plane toggles under stepMu and returns
// the resulting adversity and soft-combining flags. The lock is released
// by defer, so a panic here, which the panic middleware answers, does
// not lock the tenant's turns out for good.
func (t *tenant) applyConfig(req ConfigRequest) (adv, soft bool, err error) {
	t.stepMu.Lock()
	defer t.stepMu.Unlock()
	if req.Adversity != nil {
		if err := t.ensureTrajectory(*req.Adversity); err != nil {
			return false, false, err
		}
		t.adversity = true
	}
	if req.DisableAdversity {
		t.adversity = false
	}
	if req.SoftCombining != nil {
		t.net.SetSoftCombining(*req.SoftCombining)
	}
	return t.adversity, t.net.SoftCombining(), nil
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	t := s.tenantFromPath(w, r)
	if t == nil {
		return
	}
	t.mu.Lock()
	resp := StatsResponse{
		ID:         t.id,
		State:      t.stateLocked(),
		Continuous: t.continuous,
		Pending:    t.pending,
		Adversity:  t.advOn,
		Soft:       t.softOn,
	}
	t.mu.Unlock()
	resp.Stats = t.acc.Snapshot()
	writeJSON(w, http.StatusOK, resp)
}

// handleStream writes one NDJSON RoundUpdate line per completed round
// until the client disconnects, the optional ?limit=N is reached, or
// the deployment is torn down. A slow client misses rounds rather than
// stalling the tenant.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	t := s.tenantFromPath(w, r)
	if t == nil {
		return
	}
	limit := 0
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 {
			s.writeError(w, http.StatusBadRequest, "malformed limit %q", q)
			return
		}
		limit = n
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	ch, cancel := t.subscribe()
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	enc := json.NewEncoder(w)
	sent := 0
	for {
		select {
		case <-r.Context().Done():
			return
		case u, ok := <-ch:
			if !ok {
				return // deployment torn down
			}
			if err := enc.Encode(u); err != nil {
				return
			}
			flusher.Flush()
			sent++
			if limit > 0 && sent >= limit {
				return
			}
		}
	}
}

// countRequests is the metrics middleware.
func (s *Server) countRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.metrics.httpRequests.Add(1)
		next.ServeHTTP(w, r)
	})
}

// recoverPanics is the panic middleware: a handler's panic is logged
// with its stack, counted in handler_panics_total and answered with a
// JSON 500, so the client gets an error instead of a dropped connection
// and the process carries on. Once the handler has started its
// response a 500 can no longer be sent, so the response is aborted
// (http.ErrAbortHandler) instead; a handler's own ErrAbortHandler
// passes through uncounted.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &startedWriter{ResponseWriter: w}
		defer func() {
			v := recover()
			switch v {
			case nil:
				return
			case http.ErrAbortHandler:
				panic(v)
			}
			s.metrics.handlerPanics.Add(1)
			log.Printf("serve: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
			if sw.started {
				panic(http.ErrAbortHandler)
			}
			s.writeError(w, http.StatusInternalServerError, "internal error: handler panicked: %v", v)
		}()
		next.ServeHTTP(sw, r)
	})
}

// startedWriter records whether a handler has started its response. It
// passes Flush through for the stream endpoint, and Unwrap exposes the
// underlying writer to http.ResponseController (pprof sets write
// deadlines through it).
type startedWriter struct {
	http.ResponseWriter
	started bool
}

func (w *startedWriter) WriteHeader(code int) {
	w.started = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *startedWriter) Write(b []byte) (int, error) {
	w.started = true
	return w.ResponseWriter.Write(b)
}

func (w *startedWriter) Flush() {
	w.started = true
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *startedWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }
