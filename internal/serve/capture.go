package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/hmm"
	"repro/internal/obs"
)

// Request capture: a JSONL record of what the matcher was
// asked, under which effective configuration, and a digest of what it
// answered. `lhmm replay` re-runs captured requests against a model
// and diffs the response digests — the regression harness for model
// rollouts and scoring refactors. Only plain (non-debug, non-explain)
// whole-trajectory matches are captured: those are the requests whose
// byte-identical reproducibility the service guarantees.

// CaptureSchema identifies the capture record format.
const CaptureSchema = "lhmm-capture/v1"

// Capture telemetry.
var (
	obsCaptured    = obs.Default.Counter("serve.capture.records")
	obsCaptureErrs = obs.Default.Counter("serve.capture.errors")
)

// CaptureRecord is one line of a capture file.
type CaptureRecord struct {
	Schema string `json:"schema"`
	ID     string `json:"id"`
	Time   string `json:"time,omitempty"`
	// Request is the request body verbatim (points + options).
	Request MatchRequest `json:"request"`
	// Config is the effective matching configuration the request ran
	// under, after per-request overrides (what replay must reproduce).
	Config CaptureConfig `json:"config"`
	// Response digests the encoded response body.
	Response CaptureDigest `json:"response"`
}

// CaptureConfig pins the effective per-request matching configuration.
type CaptureConfig struct {
	OnBreak   string `json:"on_break"`
	Sanitize  string `json:"sanitize"`
	K         int    `json:"k"`
	Shortcuts int    `json:"shortcuts"`
}

// CaptureDigest summarizes the response body a capture observed.
type CaptureDigest struct {
	// SHA256 is the hex digest of the exact response bytes (the
	// replay comparison key).
	SHA256 string `json:"sha256"`
	Bytes  int    `json:"bytes"`
	// Denormalized headline fields so capture files are greppable
	// without re-running anything.
	Score    float64 `json:"score"`
	PathLen  int     `json:"path_len"`
	Degraded int     `json:"degraded,omitempty"`
	Gaps     int     `json:"gaps,omitempty"`
}

// Capture writes one CaptureRecord per eligible request as JSONL. Safe
// for concurrent use.
type Capture struct {
	mu  sync.Mutex
	w   io.Writer
	c   io.Closer
	seq int64
}

// NewCapture wraps w.
func NewCapture(w io.Writer) *Capture { return &Capture{w: w} }

// OpenCaptureFile creates (or truncates) a capture file.
func OpenCaptureFile(path string) (*Capture, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("serve: capture out: %w", err)
	}
	return &Capture{w: f, c: f}, nil
}

// Close flushes nothing (writes are line-buffered by the OS) and
// closes the underlying file when OpenCaptureFile created one.
func (c *Capture) Close() error {
	if c == nil || c.c == nil {
		return nil
	}
	return c.c.Close()
}

// Record writes one request/response pair. body must be the exact
// bytes sent to the client. Errors are counted and logged, never
// surfaced to the request path.
func (c *Capture) Record(req *MatchRequest, m *core.Model, res *hmm.Result, body []byte) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	sum := sha256.Sum256(body)
	rec := CaptureRecord{
		Schema:  CaptureSchema,
		ID:      fmt.Sprintf("c%08d", c.seq),
		Time:    time.Now().UTC().Format(time.RFC3339),
		Request: *req,
		Config: CaptureConfig{
			OnBreak:   m.Cfg.OnBreak.String(),
			Sanitize:  m.Cfg.Sanitize.String(),
			K:         m.Cfg.K,
			Shortcuts: m.Cfg.Shortcuts,
		},
		Response: CaptureDigest{
			SHA256:   hex.EncodeToString(sum[:]),
			Bytes:    len(body),
			Score:    sanitizeFloat(res.Score),
			PathLen:  len(res.Path),
			Degraded: res.Degraded,
			Gaps:     len(res.Gaps),
		},
	}
	line, err := json.Marshal(rec)
	if err != nil {
		obsCaptureErrs.Inc()
		return
	}
	line = append(line, '\n')
	if _, err := c.w.Write(line); err != nil {
		obsCaptureErrs.Inc()
		obs.Logger().Warn("serve: capture write failed", "err", err)
		return
	}
	obsCaptured.Inc()
}

// ReadCaptures parses a capture JSONL stream, skipping blank lines and
// validating the schema tag per record.
func ReadCaptures(r io.Reader) ([]CaptureRecord, error) {
	dec := json.NewDecoder(r)
	var recs []CaptureRecord
	for {
		var rec CaptureRecord
		if err := dec.Decode(&rec); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("serve: capture record %d: %w", len(recs)+1, err)
		}
		if rec.Schema != CaptureSchema {
			return nil, fmt.Errorf("serve: capture record %d: unknown schema %q (want %s)", len(recs)+1, rec.Schema, CaptureSchema)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}
