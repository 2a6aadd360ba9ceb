// Command lhmm-serve is the online map-matching service: it loads a
// dataset and trained LHMM weights, then serves whole-trajectory and
// streaming-session matching over HTTP/JSON.
//
// Usage:
//
//	lhmm-serve -addr :8080 -data data.json -model model.lhmm
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
//	GET    /healthz /readyz           liveness, readiness
//	GET    /metrics /metrics.json     Prometheus text exposition, JSON snapshot
//
// SIGHUP also triggers a hot reload; SIGINT/SIGTERM drain in-flight
// matches (up to 20s) before exiting. A failed reload —
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
	"runtime"
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

// What the server is run with beyond its flags. Nothing in CI, the
// README, the tests or the benchmark ever asked for another value
// (DESIGN §8d has the audit), so these are not options.
const (
	// defaultLag is the emit lag of a session whose create request names
	// none; POST /v1/sessions {"lag": N} is the one way to choose.
	defaultLag = 2
	// drainTimeout bounds the wait for in-flight matches on shutdown
	// and for a SIGUSR2 sweep.
	drainTimeout = 20 * time.Second
)

func run(args []string) error {
	fs := flag.NewFlagSet("lhmm-serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	data := fs.String("data", "dataset.json", "dataset file from `lhmm datagen`")
	modelPath := fs.String("model", "model.lhmm", "model weights file (re-read on reload)")
	k := fs.Int("k", 30, "candidates per point")
	captureOut := fs.String("capture-out", "", "capture match requests + response digests as JSONL to this file (for lhmm replay)")
	checkpointDir := fs.String("checkpoint-dir", "", "durable-session store: snapshot in-flight streaming sessions here and restore them on boot (empty disables)")
	checkpointInterval := fs.Duration("checkpoint-interval", 5*time.Second, "periodic dirty-session checkpoint sweep cadence")
	of := obs.BindTraceFlags(fs)
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

	// The loader runs once at startup and again on every reload. It
	// builds a fresh model over the resident dataset from the weights
	// file, validating every parameter before writing any, so a bad file
	// fails the whole load and the registry keeps the old model. The
	// dead-point policy and input validation stay at the library's
	// defaults (error, strict); a request names its own in options.
	cfg := lhmm.DefaultConfig()
	cfg.K = *k
	reg := serve.NewRegistry(func() (*lhmm.Model, error) { return lhmm.LoadModel(ds, *modelPath, cfg) })
	if err := reg.Reload(); err != nil {
		return fmt.Errorf("initial model load: %w", err)
	}

	var capture *serve.Capture
	if *captureOut != "" {
		capture, err = serve.OpenCaptureFile(*captureOut)
		if err != nil {
			return err
		}
		defer capture.Close() //nolint:errcheck // exiting anyway
		fmt.Fprintf(os.Stderr, "lhmm-serve: capturing matches to %s\n", *captureOut)
	}

	// One matching worker per hardware thread, never fewer than four,
	// and sixteen waiters per worker before a request is shed.
	workers := max(4, runtime.GOMAXPROCS(0))
	srv, err := serve.New(reg, serve.Config{
		Workers:    workers,
		Queue:      16 * workers,
		DefaultLag: defaultLag,
		Checkpoint: serve.CheckpointConfig{
			Dir:      *checkpointDir,
			Interval: *checkpointInterval,
		},
		Capture: capture,
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
			ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
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
		ds.Name, *addr, reg.Model().Cfg.Dim, *k, workers)

	select {
	case err := <-serveErr:
		return err
	case sig := <-stop:
		fmt.Fprintf(os.Stderr, "lhmm-serve: %s: draining\n", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "lhmm-serve:", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}
