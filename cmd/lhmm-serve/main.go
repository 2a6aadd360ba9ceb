// Command lhmm-serve is the online map-matching service: it loads a
// dataset and trained LHMM weights, then serves whole-trajectory and
// streaming-session matching over HTTP/JSON.
//
// Usage:
//
//	lhmm-serve -addr :8080 -data data.json -model model.json
//
// Endpoints:
//
//	POST   /v1/match                  match a whole trajectory (byte-identical to `lhmm match -json`)
//	POST   /v1/sessions               open a streaming session (body: {"lag": N})
//	POST   /v1/sessions/{id}/points   push points, get finalized matches back
//	POST   /v1/sessions/{id}/finish   flush and close a session
//	GET    /v1/sessions/{id}          session progress counters
//	DELETE /v1/sessions/{id}          discard a session
//	POST   /v1/reload                 hot-reload model weights from -model
//	GET    /v1/quality                windowed quality/SLO report
//	GET    /v1/drift                  learned-score drift vs the -drift-baseline (PSI/KL per signal)
//	GET    /healthz /readyz           liveness, readiness (with quality detail)
//	GET    /metrics /metrics.json     Prometheus text exposition, JSON snapshot
//
// SIGHUP also triggers a hot reload; SIGINT/SIGTERM drain in-flight
// matches (up to -drain-timeout) before exiting. A failed reload —
// missing, truncated, or corrupt weights — keeps the previous model
// serving.
//
// With -checkpoint-dir set, in-flight streaming sessions are
// checkpointed to disk (periodically, on finish, and on drain) and
// restored on the next boot, so a crash or planned restart loses no
// session state. SIGUSR2 forces a synchronous sweep of every dirty
// session — the handover primitive.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	lhmm "repro"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/traj"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lhmm-serve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("lhmm-serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	data := fs.String("data", "dataset.json", "dataset file from `lhmm datagen`")
	modelPath := fs.String("model", "model.json", "model weights file (re-read on reload)")
	k := fs.Int("k", 30, "candidates per point")
	onBreak := fs.String("on-break", "error", "default dead-point policy: error|skip|split")
	sanitize := fs.String("sanitize", "strict", "default input validation: strict|drop|off")
	lag := fs.Int("lag", 2, "default streaming emit lag in points")
	workers := fs.Int("workers", 4, "concurrent matching workers")
	queue := fs.Int("queue", 64, "admission queue depth before shedding 429s")
	maxSessions := fs.Int("max-sessions", 1024, "cap on live streaming sessions")
	sessionTTL := fs.Duration("session-ttl", 5*time.Minute, "evict sessions idle longer than this")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request match timeout ceiling")
	drainTimeout := fs.Duration("drain-timeout", 20*time.Second, "max wait for in-flight matches on shutdown")
	sloWindow := fs.Duration("slo-window", time.Minute, "quality monitor sliding window")
	sloDegraded := fs.Float64("slo-degraded-rate", 0.05, "max fraction of matches with degraded scoring before /readyz reports degraded")
	sloGap := fs.Float64("slo-gap-rate", 0.20, "max fraction of matches with gaps or breaks")
	sloEmpty := fs.Float64("slo-empty-rate", 0.20, "max fraction of requests failing with no candidates")
	sloShed := fs.Float64("slo-shed-rate", 0.05, "max fraction of requests shed by admission control")
	sloP99 := fs.Duration("slo-p99", 0, "p99 match latency objective (0 disables)")
	sloDriftPSI := fs.Float64("slo-drift-psi", 0, "max learned-score drift PSI vs -drift-baseline before /readyz reports degraded (0 disables)")
	driftBaseline := fs.String("drift-baseline", "", "training-time drift baseline file (enables GET /v1/drift and lhmm_drift_* gauges)")
	captureOut := fs.String("capture-out", "", "capture sampled match requests + response digests as JSONL to this file (for lhmm replay)")
	captureSample := fs.Float64("capture-sample", 1, "fraction of eligible match requests to capture in [0,1]")
	checkpointDir := fs.String("checkpoint-dir", "", "durable-session store: snapshot in-flight streaming sessions here and restore them on boot (empty disables)")
	checkpointInterval := fs.Duration("checkpoint-interval", 5*time.Second, "periodic dirty-session checkpoint sweep cadence")
	of := obs.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	obsCleanup, err := of.Apply()
	if err != nil {
		return err
	}
	defer obsCleanup() //nolint:errcheck // exiting anyway

	if err := faultinject.ArmFromEnv(); err != nil {
		return err
	}
	if fp := faultinject.Armed(); len(fp) > 0 {
		fmt.Fprintf(os.Stderr, "lhmm-serve: fault injection armed via %s: %s\n",
			faultinject.EnvVar, strings.Join(fp, ","))
	}

	f, err := os.Open(*data)
	if err != nil {
		return err
	}
	ds, err := traj.ReadDataset(f)
	f.Close()
	if err != nil {
		return err
	}

	breakPolicy, err := lhmm.ParseBreakPolicy(*onBreak)
	if err != nil {
		return err
	}
	sanitizeMode, err := lhmm.ParseSanitizeMode(*sanitize)
	if err != nil {
		return err
	}

	// The loader runs once at startup and again on every reload. It
	// builds a fresh model over the resident dataset from the weights
	// file, validating every parameter before writing any, so a bad file
	// fails the whole load and the registry keeps the old model.
	cfg := lhmm.DefaultConfig()
	cfg.K = *k
	cfg.OnBreak = breakPolicy
	cfg.Sanitize = sanitizeMode
	reg := serve.NewRegistry(func() (*lhmm.Model, error) { return lhmm.LoadModel(ds, *modelPath, cfg) })
	if err := reg.Reload(); err != nil {
		return fmt.Errorf("initial model load: %w", err)
	}

	var baseline *obs.DriftBaseline
	if *driftBaseline != "" {
		baseline, err = obs.LoadDriftBaseline(*driftBaseline)
		if err != nil {
			return fmt.Errorf("drift baseline: %w", err)
		}
		fmt.Fprintf(os.Stderr, "lhmm-serve: drift baseline %s (%d signals, model %q)\n",
			*driftBaseline, len(baseline.Signals), baseline.Model)
	}
	var capture *serve.Capture
	if *captureOut != "" {
		capture, err = serve.OpenCaptureFile(*captureOut, *captureSample)
		if err != nil {
			return err
		}
		defer capture.Close() //nolint:errcheck // exiting anyway
		fmt.Fprintf(os.Stderr, "lhmm-serve: capturing matches to %s (sample %.2f)\n",
			*captureOut, *captureSample)
	}

	srv, err := serve.New(reg, serve.Config{
		Workers:      *workers,
		Queue:        *queue,
		MaxSessions:  *maxSessions,
		SessionTTL:   *sessionTTL,
		DefaultLag:   *lag,
		MatchTimeout: *timeout,
		Checkpoint: serve.CheckpointConfig{
			Dir:      *checkpointDir,
			Interval: *checkpointInterval,
		},
		Quality: obs.QualityConfig{
			Window:          *sloWindow,
			MaxDegradedRate: *sloDegraded,
			MaxGapRate:      *sloGap,
			MaxEmptyRate:    *sloEmpty,
			MaxShedRate:     *sloShed,
			MaxP99:          *sloP99,
			MaxDriftPSI:     *sloDriftPSI,
		},
		DriftBaseline:     baseline,
		DriftBaselinePath: *driftBaseline,
		Capture:           capture,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	if *checkpointDir != "" {
		fmt.Fprintf(os.Stderr, "lhmm-serve: durable sessions in %s (%d restored, sweep every %s)\n",
			*checkpointDir, srv.Sessions().Len(), *checkpointInterval)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// SIGHUP hot-reloads; SIGUSR2 forces a full checkpoint sweep (the
	// handover primitive: sweep, then SIGKILL is loss-free); SIGINT/
	// SIGTERM drain and exit.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if err := reg.Reload(); err != nil {
				fmt.Fprintln(os.Stderr, "lhmm-serve: reload:", err)
			} else {
				fmt.Fprintln(os.Stderr, "lhmm-serve: model reloaded")
			}
		}
	}()
	usr2 := make(chan os.Signal, 1)
	signal.Notify(usr2, syscall.SIGUSR2)
	go func() {
		for range usr2 {
			ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
			if err := srv.CheckpointSweep(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "lhmm-serve: checkpoint sweep:", err)
			} else {
				fmt.Fprintln(os.Stderr, "lhmm-serve: checkpoint sweep complete")
			}
			cancel()
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "lhmm-serve: serving %s on %s (dim %d, k %d, %d workers)\n",
		ds.Name, *addr, reg.Model().Cfg.Dim, *k, *workers)

	select {
	case err := <-serveErr:
		return err
	case sig := <-stop:
		fmt.Fprintf(os.Stderr, "lhmm-serve: %s: draining\n", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "lhmm-serve:", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}
