// Package serve is the online map-matching service behind lhmm-serve:
// an HTTP/JSON API over the learned matcher with whole-trajectory and
// streaming-session endpoints, bounded admission control, graceful
// drain, and atomic model hot-reload.
//
// Design goals, in order:
//
//  1. Online/offline parity — POST /v1/match runs the exact same
//     Model.MatchContext as the lhmm CLI and encodes the exact same
//     MatchResponse, so a served match is byte-identical to an offline
//     one for the same trajectory and configuration.
//  2. Bounded resources — matching is CPU-bound, so requests pass an
//     admission gate (fixed worker pool + bounded wait queue) and
//     overload sheds fast 429s instead of accumulating goroutines;
//     streaming sessions are capped and TTL-evicted.
//  3. Always-answer — /healthz and /metrics never block on matching
//     work, a failed hot-reload keeps the previous model serving, and
//     armed failpoints surface as 5xx responses, not crashes.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/hmm"
	"repro/internal/obs"
	"repro/internal/traj"
)

// HTTP telemetry.
var (
	obsRequests  = obs.Default.Counter("serve.requests")
	obsErrors    = obs.Default.Counter("serve.errors")
	obsRequestS  = obs.Default.Histogram("serve.request.seconds", obs.LatencyBuckets)
	obsDraining  = obs.Default.Gauge("serve.draining")
	obsMatches   = obs.Default.Counter("serve.matches")
	obsMatchErrs = obs.Default.Counter("serve.match.errors")
)

const (
	// sessionTTL evicts streaming sessions idle longer than this.
	sessionTTL = 5 * time.Minute
	// matchTimeout caps per-request match wall-clock; request bodies
	// may ask for less, never more.
	matchTimeout = 30 * time.Second
)

// Config parameterizes a Server. Zero values get sane defaults.
type Config struct {
	// Workers bounds concurrent matching work (default 4; lhmm-serve
	// passes max(4, GOMAXPROCS)).
	Workers int
	// Queue bounds requests waiting for a worker before shedding 429s.
	Queue int
	// MaxSessions caps live streaming sessions.
	MaxSessions int
	// DefaultLag is the streaming emit lag when a session doesn't
	// choose one.
	DefaultLag int
	// MaxBodyBytes bounds request bodies (default 8 MiB).
	MaxBodyBytes int64
	// Capture, when set, records plain match requests and response
	// digests for lhmm replay.
	Capture *Capture
	// Checkpoint configures durable streaming sessions: with a non-empty
	// Dir, in-flight sessions are periodically snapshotted to disk and
	// restored on boot. Zero Dir disables checkpointing entirely.
	Checkpoint CheckpointConfig
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Workers <= 0 {
		out.Workers = 4
	}
	if out.Queue < 0 {
		out.Queue = 0
	}
	if out.MaxSessions <= 0 {
		out.MaxSessions = 1024
	}
	if out.DefaultLag < 0 {
		out.DefaultLag = 0
	}
	if out.MaxBodyBytes <= 0 {
		out.MaxBodyBytes = 8 << 20
	}
	return out
}

// Server is the lhmm-serve HTTP service. Create with New, expose via
// Handler, stop with Drain then Close.
type Server struct {
	cfg  Config
	reg  *Registry
	sess *SessionManager
	adm  *admission
	ckpt *Checkpointer // nil when checkpointing is disabled
	mux  *http.ServeMux

	draining  chan struct{} // closed by Drain
	drainOnce sync.Once
	wg        sync.WaitGroup // in-flight matching work

	// testHookMatchStarted, when set, is called after a match request
	// is admitted and before the match runs (drain tests synchronize
	// on it).
	testHookMatchStarted func()
}

// New builds a Server around a model registry. It enables the Default
// obs registry (a server without metrics is not operable) and starts
// the session janitor. With cfg.Checkpoint.Dir set, it also creates
// the checkpoint store, restores every recoverable session from it
// (quarantining the rest), and starts the async checkpointer — so a
// ready server has already recovered its pre-crash sessions. The only
// error paths are checkpoint-store setup failures.
func New(reg *Registry, cfg Config) (*Server, error) {
	obs.Default.Enable()
	c := cfg.withDefaults()
	s := &Server{
		cfg:      c,
		reg:      reg,
		sess:     NewSessionManager(c.MaxSessions, sessionTTL),
		adm:      newAdmission(c.Workers, c.Queue),
		draining: make(chan struct{}),
	}
	if c.Checkpoint.Dir != "" {
		ck, err := NewCheckpointer(c.Checkpoint, s.sess)
		if err != nil {
			return nil, err
		}
		s.ckpt = ck
		s.sess.onRemove = ck.Remove
		if m, wh := reg.Entry(); m != nil {
			ck.Recover(m, wh, time.Now(), sessionTTL)
		} else if reg != nil {
			obs.Logger().Warn("serve: checkpoint recovery skipped: no model loaded yet")
		}
		ck.Start()
	}
	s.sess.Start()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/match", s.handleMatch)
	s.mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	s.mux.HandleFunc("POST /v1/sessions/{id}/points", s.handleSessionPush)
	s.mux.HandleFunc("POST /v1/sessions/{id}/finish", s.handleSessionFinish)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionStatus)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	s.mux.HandleFunc("POST /v1/reload", s.handleReload)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", obs.PromHandler)
	s.mux.HandleFunc("GET /metrics.json", obs.SnapshotHandler)
	return s, nil
}

// Sessions exposes the session manager (tests drive Sweep directly).
func (s *Server) Sessions() *SessionManager { return s.sess }

// Checkpointer exposes the session checkpointer, or nil when
// checkpointing is disabled.
func (s *Server) Checkpointer() *Checkpointer { return s.ckpt }

// CheckpointSweep checkpoints every dirty session and blocks until
// all are durable or ctx expires — the planned-handover entry point
// (lhmm-serve wires it to SIGUSR2) and the drain path's final flush.
func (s *Server) CheckpointSweep(ctx context.Context) error {
	if s.ckpt == nil {
		return errors.New("serve: checkpointing disabled")
	}
	return s.ckpt.SweepSync(ctx)
}

// Drain stops admitting matching work — subsequent match/session
// requests get 503 — and blocks until in-flight matches finish or ctx
// expires, then flushes a final checkpoint sweep so every surviving
// session is durable before the process exits. Health and metrics
// endpoints keep answering throughout.
func (s *Server) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() {
		close(s.draining)
		obsDraining.Set(1)
		obs.Logger().Info("serve: draining")
	})
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %w", ctx.Err())
	}
	if s.ckpt != nil {
		if err := s.ckpt.SweepSync(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Close releases background resources (the session janitor and the
// checkpoint writer). Call after Drain.
func (s *Server) Close() {
	s.sess.Stop()
	if s.ckpt != nil {
		s.ckpt.Stop()
	}
}

func (s *Server) isDraining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// --- plumbing ---

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

func writeError(w http.ResponseWriter, code int, err error) {
	obsErrors.Inc()
	writeJSON(w, code, ErrorResponse{Error: err.Error()})
}

// errorCode maps service errors to HTTP status codes.
func errorCode(err error) int {
	switch {
	case errors.Is(err, errOverloaded), errors.Is(err, errSessionCap):
		return http.StatusTooManyRequests
	case errors.Is(err, errSessionNotFound):
		return http.StatusNotFound
	case errors.Is(err, traj.ErrMalformed):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad request body: %w", err))
		return false
	}
	return true
}

// model returns the served model or answers 503 (not ready).
func (s *Server) model(w http.ResponseWriter) (*core.Model, bool) {
	m := s.reg.Model()
	if m == nil {
		writeError(w, http.StatusServiceUnavailable, errors.New("serve: no model loaded"))
		return nil, false
	}
	return m, true
}

// refuseDraining answers 503 during drain and reports whether it did.
func (s *Server) refuseDraining(w http.ResponseWriter) bool {
	if s.isDraining() {
		writeError(w, http.StatusServiceUnavailable, errors.New("serve: draining"))
		return true
	}
	return false
}

// overrideModel returns model, or a shallow copy with the request's
// break/sanitize policies applied. The copy shares every pointer-typed
// component (router, graph, embeddings — all safe for concurrent
// reads); only the Cfg value differs, so per-request options never
// mutate the shared model.
func overrideModel(m *core.Model, onBreak, sanitize string) (*core.Model, error) {
	if onBreak == "" && sanitize == "" {
		return m, nil
	}
	mm := *m
	if onBreak != "" {
		p, err := hmm.ParseBreakPolicy(onBreak)
		if err != nil {
			return nil, err
		}
		mm.Cfg.OnBreak = p
	}
	if sanitize != "" {
		sm, err := traj.ParseSanitizeMode(sanitize)
		if err != nil {
			return nil, err
		}
		mm.Cfg.Sanitize = sm
	}
	return &mm, nil
}

// --- handlers ---

func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	var req MatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	m, ok := s.model(w)
	if !ok {
		return
	}
	ct, err := req.Trajectory(m.Cells)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var opts MatchOptions
	if req.Options != nil {
		opts = *req.Options
	}
	mm, err := overrideModel(m, opts.OnBreak, opts.Sanitize)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// ?debug=1 collects the per-request MatchTrace, ?explain=1 the
	// per-decision Explain artifact — both on a private model copy (Cfg
	// is a value; the shared model must never see the flags).
	debug := r.URL.Query().Get("debug") == "1"
	explain := r.URL.Query().Get("explain") == "1"
	if debug && !mm.Cfg.Trace {
		if mm == m {
			cp := *m
			mm = &cp
		}
		mm.Cfg.Trace = true
	}
	if explain && !mm.Cfg.Explain {
		if mm == m {
			cp := *m
			mm = &cp
		}
		mm.Cfg.Explain = true
	}
	asp := obs.SpanFromContext(r.Context()).StartChild("admission")
	release, err := s.adm.acquire(r.Context())
	asp.End()
	if err != nil {
		writeError(w, errorCode(err), err)
		return
	}
	defer release()
	if s.refuseDraining(w) {
		return
	}
	s.wg.Add(1)
	defer s.wg.Done()
	if s.testHookMatchStarted != nil {
		s.testHookMatchStarted()
	}

	timeout := matchTimeout
	if opts.TimeoutMS > 0 {
		if d := time.Duration(opts.TimeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	res, err := mm.MatchContext(ctx, ct)
	if err != nil {
		obsMatchErrs.Inc()
		writeError(w, errorCode(err), err)
		return
	}
	obsMatches.Inc()
	switch {
	case debug || explain:
		// Debug/explain blocks are strictly appended after the embedded
		// MatchResponse, so the leading bytes stay identical to a plain
		// response. These requests are never captured (their bodies are
		// not the reproducibility contract).
		writeJSON(w, http.StatusOK, ExplainMatchResponse{
			MatchResponse: ResultJSON(res),
			Trace:         res.Trace,
			Explain:       res.Explain,
		})
	case s.cfg.Capture != nil:
		// Capture path: encode to a buffer so the digest is over the
		// exact bytes the client received (Encoder output to a buffer
		// and to the wire is identical).
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(ResultJSON(res)); err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(buf.Bytes()) //nolint:errcheck // client gone; nothing to do
		s.cfg.Capture.Record(&req, mm, res, buf.Bytes())
	default:
		writeJSON(w, http.StatusOK, ResultJSON(res))
	}
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	var req SessionRequest
	if r.ContentLength != 0 {
		if !s.decode(w, r, &req) {
			return
		}
	}
	// One registry read: the model and the weights hash stamped into
	// the session's snapshots must belong to the same load.
	m, wh := s.reg.Entry()
	if m == nil {
		writeError(w, http.StatusServiceUnavailable, errors.New("serve: no model loaded"))
		return
	}
	mm, err := overrideModel(m, req.OnBreak, req.Sanitize)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	lag := s.cfg.DefaultLag
	if req.Lag != nil {
		if *req.Lag < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("serve: negative lag %d", *req.Lag))
			return
		}
		lag = *req.Lag
	}
	sess, err := s.sess.Create(mm, wh, lag, time.Now())
	if err != nil {
		writeError(w, errorCode(err), err)
		return
	}
	writeJSON(w, http.StatusOK, SessionResponse{ID: sess.ID, Lag: lag})
}

func (s *Server) handleSessionPush(w http.ResponseWriter, r *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	lsp := obs.SpanFromContext(r.Context()).StartChild("session_lookup")
	sess, err := s.sess.Get(r.PathValue("id"))
	lsp.End()
	if err != nil {
		writeError(w, errorCode(err), err)
		return
	}
	var req PushRequest
	if !s.decode(w, r, &req) {
		return
	}
	m, ok := s.model(w)
	if !ok {
		return
	}
	ct, err := (&MatchRequest{Points: req.Points}).Trajectory(m.Cells)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	asp := obs.SpanFromContext(r.Context()).StartChild("admission")
	release, err := s.adm.acquire(r.Context())
	asp.End()
	if err != nil {
		writeError(w, errorCode(err), err)
		return
	}
	defer release()
	s.wg.Add(1)
	defer s.wg.Done()

	fin, dropped, degDelta, err := sess.push(ct, time.Now())
	if s.ckpt != nil {
		// On-push async checkpoint (deduplicated; also on the error
		// path, since points before the failure were absorbed).
		s.ckpt.enqueue(sess)
	}
	if err != nil {
		obsMatchErrs.Inc()
		writeError(w, errorCode(err), err)
		return
	}
	writeJSON(w, http.StatusOK, PushResponse{
		Finalized: fin,
		Pending:   sess.status().Pending,
		Dropped:   dropped,
		Degraded:  degDelta,
	})
}

func (s *Server) handleSessionFinish(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sess, err := s.sess.Get(id)
	if err != nil {
		writeError(w, errorCode(err), err)
		return
	}
	release, err := s.adm.acquire(r.Context())
	if err != nil {
		writeError(w, errorCode(err), err)
		return
	}
	defer release()
	s.wg.Add(1)
	defer s.wg.Done()

	res, err := sess.finish()
	s.sess.Remove(id)
	if err != nil {
		writeError(w, errorCode(err), err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleSessionStatus(w http.ResponseWriter, r *http.Request) {
	sess, err := s.sess.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, errorCode(err), err)
		return
	}
	writeJSON(w, http.StatusOK, sess.status())
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := s.sess.Get(id); err != nil {
		writeError(w, errorCode(err), err)
		return
	}
	s.sess.Remove(id)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if err := s.reg.Reload(); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "reloaded"})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.isDraining():
		writeError(w, http.StatusServiceUnavailable, errors.New("serve: draining"))
	case s.reg.Model() == nil:
		writeError(w, http.StatusServiceUnavailable, errors.New("serve: no model loaded"))
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}
