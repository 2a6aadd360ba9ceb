package obs

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync/atomic"
)

// levelOff is above every standard slog level, silencing the default
// logger until a CLI opts in with SetLogLevel.
const levelOff = slog.LevelError + 4

var logLevel slog.LevelVar

var logger atomic.Pointer[slog.Logger]

func init() {
	logLevel.Set(levelOff)
	logger.Store(slog.New(slog.NewTextHandler(io.Discard, nil)))
}

// Logger returns the telemetry logger. It discards everything until
// SetLogOutput/SetLogLevel route it somewhere; callers on hot paths
// should guard expensive attribute construction with
// Logger().Enabled(nil, level).
func Logger() *slog.Logger { return logger.Load() }

// SetLogOutput routes structured logs to w at the current level in the
// default text format.
func SetLogOutput(w io.Writer) {
	logger.Store(slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: &logLevel})))
}

// SetLogFormat routes structured logs to w in the named format: "text"
// (slog's logfmt-style key=value handler, the default) or "json" (one
// JSON object per line, for log pipelines).
func SetLogFormat(w io.Writer, format string) error {
	switch strings.ToLower(strings.TrimSpace(format)) {
	case "", "text":
		SetLogOutput(w)
	case "json":
		logger.Store(slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: &logLevel})))
	default:
		return fmt.Errorf("obs: unknown log format %q (want text|json)", format)
	}
	return nil
}

// SetLogLevel sets the minimum level emitted by loggers installed via
// SetLogOutput.
func SetLogLevel(l slog.Level) { logLevel.Set(l) }

// ParseLevel maps a flag string to a slog level: debug, info, warn,
// error, or off (case-insensitive).
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	case "off", "none", "":
		return levelOff, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error|off)", s)
}
