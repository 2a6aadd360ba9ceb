package obs

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// Flags is the standard observability flag set shared by the CLIs.
type Flags struct {
	Metrics   string // dump a metrics snapshot: file path, or "-" for stdout
	LogLevel  string // debug|info|warn|error|off
	LogFormat string // text|json
	DebugAddr string // serve pprof+expvar+/metrics on this address
	TraceOut  string // JSONL span export path ('-' for stderr)
}

// BindFlags registers the observability flags every command takes on
// fs and returns the destination struct. Call Apply after fs.Parse.
func BindFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Metrics, "metrics", "", "dump metrics snapshot as JSON to this file on exit ('-' for stderr)")
	fs.StringVar(&f.LogLevel, "log-level", "", "structured log level: debug|info|warn|error (default off)")
	fs.StringVar(&f.LogFormat, "log-format", "text", "structured log format: text|json")
	fs.StringVar(&f.DebugAddr, "debug-addr", "", "serve /debug/pprof, /debug/vars and /metrics on this address")
	return f
}

// BindTraceFlags is BindFlags plus -trace-out, for the two commands
// that root a span (lhmm-serve per request, lhmm match per run).
func BindTraceFlags(fs *flag.FlagSet) *Flags {
	f := BindFlags(fs)
	fs.StringVar(&f.TraceOut, "trace-out", "", "export request spans as JSONL to this file ('-' for stderr)")
	return f
}

// Apply activates the parsed flags against the Default registry:
// enables metrics recording when a dump or debug server is requested,
// routes slog to stderr at the chosen level, and starts the debug
// server. The returned cleanup writes the metrics snapshot and stops
// the server; call it on exit (it is never nil).
func (f *Flags) Apply() (func() error, error) {
	if f.LogLevel != "" {
		level, err := ParseLevel(f.LogLevel)
		if err != nil {
			return func() error { return nil }, err
		}
		SetLogLevel(level)
		if err := SetLogFormat(os.Stderr, f.LogFormat); err != nil {
			return func() error { return nil }, err
		}
	}

	var stopServe func() error
	if f.DebugAddr != "" {
		addr, stop, err := Serve(f.DebugAddr)
		if err != nil {
			return func() error { return nil }, err
		}
		stopServe = stop
		Logger().Info("obs: debug server listening", "addr", addr)
	}
	if f.Metrics != "" {
		Default.Enable()
	}

	var traceFile *os.File
	if f.TraceOut != "" {
		if f.TraceOut == "-" {
			DefaultTracer.SetOutput(os.Stderr)
		} else {
			tf, err := os.Create(f.TraceOut)
			if err != nil {
				if stopServe != nil {
					stopServe() //nolint:errcheck // reporting the create error
				}
				return func() error { return nil }, fmt.Errorf("obs: trace out: %w", err)
			}
			traceFile = tf
			DefaultTracer.SetOutput(tf)
		}
	}

	cleanup := func() error {
		var firstErr error
		if f.Metrics != "" {
			if err := dumpSnapshot(f.Metrics); err != nil {
				firstErr = err
			}
		}
		if traceFile != nil {
			DefaultTracer.SetOutput(nil)
			if err := traceFile.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if stopServe != nil {
			if err := stopServe(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	return cleanup, nil
}

// dumpSnapshot writes the Default snapshot as indented JSON. "-" goes
// to stderr so it never corrupts a command's stdout results.
func dumpSnapshot(path string) error {
	data, err := json.MarshalIndent(Default.Snapshot(), "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshal snapshot: %w", err)
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stderr.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
