package serve

import (
	"log/slog"
	"net/http"
	"time"

	"repro/internal/obs"
)

// Request middleware: request-ID echo, W3C traceparent ingestion and
// propagation, probabilistic span sampling, and per-request structured
// access logs. With tracing disabled and logging off, the added cost
// over the bare mux is one header read and a status-capturing wrapper.

// statusWriter captures the response status for spans and access logs.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Handler returns the server's HTTP handler: the instrumented mux
// wrapped with request-ID, tracing, and access-log middleware.
//
// Every response echoes X-Request-ID (the client's, or a generated
// one). With the tracer enabled every request is traced, and one
// carrying a W3C traceparent continues under the upstream trace ID. A
// traced response carries the outgoing traceparent header so clients
// can correlate their copy of the trace.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		obsRequests.Inc()
		start := time.Now()

		reqID := r.Header.Get("X-Request-ID")
		if reqID == "" {
			reqID = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", reqID)

		var traceID, parentID string
		if tp := r.Header.Get("traceparent"); tp != "" {
			if tid, sid, _, ok := obs.ParseTraceparent(tp); ok {
				traceID, parentID = tid, sid
			}
		}
		sp := obs.DefaultTracer.StartSpan("request", traceID, parentID)
		if sp != nil {
			sp.SetAttr("method", r.Method)
			sp.SetAttr("path", r.URL.Path)
			sp.SetAttr("request_id", reqID)
			w.Header().Set("traceparent", obs.Traceparent(sp.TraceID, sp.SpanID, true))
			r = r.WithContext(obs.ContextWithSpan(r.Context(), sp))
		}

		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		s.mux.ServeHTTP(sw, r)

		dur := time.Since(start)
		obsRequestS.Observe(dur.Seconds())
		if sp != nil {
			sp.SetAttr("status", sw.status)
			sp.End()
		}
		if l := obs.Logger(); l.Enabled(r.Context(), slog.LevelInfo) {
			l.Info("request",
				slog.String("request_id", reqID),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", sw.status),
				slog.Float64("duration_s", dur.Seconds()),
			)
		}
	})
}
