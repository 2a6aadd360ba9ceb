package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span tracing: a request-scoped span tree with W3C traceparent
// interop and JSONL export. Spans follow the same zero-cost-when-off
// discipline as the instruments: SpanFromContext on a context without
// a span returns nil, and every method is nil-safe, so an untraced
// request pays one context lookup per match and nothing else
// (TestSpanDisabledFastPathAllocs pins it at 0 allocs).
//
// A Span is built and ended on one goroutine (the request or match
// goroutine); only the root's record sink is mutex-guarded, so stage
// spans emitted from a match can interleave with sibling requests
// safely. Ending the root exports the whole tree to the Tracer's JSONL
// sink, one span per line.

// Tracer owns the JSONL export sink. The zero value is disabled;
// SetOutput enables it, and an enabled tracer traces every request.
type Tracer struct {
	enabled atomic.Bool

	mu sync.Mutex
	w  io.Writer
}

// DefaultTracer is the process-wide tracer the serving stack and CLIs
// export through; disabled until SetOutput routes it somewhere.
var DefaultTracer = NewTracer()

// NewTracer returns a disabled tracer.
func NewTracer() *Tracer { return &Tracer{} }

// SetOutput routes exported spans to w as JSONL and enables the
// tracer; a nil w disables it. The caller retains ownership of w
// (Close it after the tracer is disabled or the process exits).
func (t *Tracer) SetOutput(w io.Writer) {
	t.mu.Lock()
	t.w = w
	t.mu.Unlock()
	t.enabled.Store(w != nil)
}

// Enabled reports whether the tracer has an export sink.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// export writes one trace's span records as JSONL, one span per line.
func (t *Tracer) export(recs []SpanRecord) {
	if !t.Enabled() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.w == nil {
		return
	}
	enc := json.NewEncoder(t.w)
	for i := range recs {
		enc.Encode(&recs[i]) //nolint:errcheck // best-effort telemetry sink
	}
}

// SpanRecord is the exported (JSONL) form of one finished span.
type SpanRecord struct {
	TraceID   string         `json:"trace_id"`
	SpanID    string         `json:"span_id"`
	ParentID  string         `json:"parent_id,omitempty"`
	Name      string         `json:"name"`
	Start     time.Time      `json:"start"`
	DurationS float64        `json:"duration_s"`
	Attrs     map[string]any `json:"attrs,omitempty"`
}

// Span is one node of a request's trace tree. Create roots with
// Tracer.StartSpan and children with StartChild/ChildAt; a nil *Span
// is a valid no-op receiver for every method, which is how untraced
// requests skip the whole machinery.
type Span struct {
	tracer *Tracer
	root   *Span

	// TraceID is the W3C trace id (32 hex chars) shared by the tree;
	// SpanID this span's id (16 hex); ParentID the parent span's id.
	TraceID  string
	SpanID   string
	ParentID string
	Name     string

	start time.Time
	attrs map[string]any

	// Root-only: finished-span sink for the tree.
	mu   sync.Mutex
	recs []SpanRecord
}

// StartSpan opens a root span. traceID continues an upstream trace (a
// parsed traceparent); empty starts a new one. Returns nil when the
// tracer is disabled — callers rely on nil-safety, not checks.
func (t *Tracer) StartSpan(name, traceID, parentID string) *Span {
	if !t.Enabled() {
		return nil
	}
	if traceID == "" {
		traceID = NewTraceID()
	}
	s := &Span{
		tracer:   t,
		TraceID:  traceID,
		SpanID:   NewSpanID(),
		ParentID: parentID,
		Name:     name,
		start:    time.Now(),
	}
	s.root = s
	return s
}

// StartChild opens a child span of s starting now.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{
		tracer:   s.tracer,
		root:     s.root,
		TraceID:  s.TraceID,
		SpanID:   NewSpanID(),
		ParentID: s.SpanID,
		Name:     name,
		start:    time.Now(),
	}
}

// ChildAt records an already-finished child span with an explicit
// start and duration — the shape stage timings take when a pipeline
// measures durations first and attributes them to spans afterwards.
// The returned span is closed; it exists so further ChildAt calls can
// nest under it (e.g. the transition fill inside the Viterbi stage).
func (s *Span) ChildAt(name string, start time.Time, d time.Duration) *Span {
	if s == nil {
		return nil
	}
	c := &Span{
		tracer:   s.tracer,
		root:     s.root,
		TraceID:  s.TraceID,
		SpanID:   NewSpanID(),
		ParentID: s.SpanID,
		Name:     name,
		start:    start,
	}
	s.root.append(SpanRecord{
		TraceID:   c.TraceID,
		SpanID:    c.SpanID,
		ParentID:  c.ParentID,
		Name:      c.Name,
		Start:     start,
		DurationS: d.Seconds(),
	})
	return c
}

// SetAttr attaches a key/value attribute. Call from the goroutine that
// owns the span, before End.
func (s *Span) SetAttr(key string, v any) {
	if s == nil {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[key] = v
}

// Duration returns the elapsed time since the span started.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return time.Since(s.start)
}

// End closes the span. Ending a non-root span records it into the
// tree; ending the root additionally exports the whole tree as JSONL
// (children first, root last).
func (s *Span) End() {
	if s == nil {
		return
	}
	rec := SpanRecord{
		TraceID:   s.TraceID,
		SpanID:    s.SpanID,
		ParentID:  s.ParentID,
		Name:      s.Name,
		Start:     s.start,
		DurationS: time.Since(s.start).Seconds(),
		Attrs:     s.attrs,
	}
	s.root.append(rec)
	if s == s.root {
		s.mu.Lock()
		recs := s.recs
		s.recs = nil
		s.mu.Unlock()
		s.tracer.export(recs)
	}
}

func (s *Span) append(rec SpanRecord) {
	s.mu.Lock()
	s.recs = append(s.recs, rec)
	s.mu.Unlock()
}

// --- context plumbing ---

type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying the span; a nil span returns
// ctx unchanged so call sites need no branches.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the span carried by ctx, or nil. The nil
// return composes with the nil-safe Span methods: instrumented code
// calls SpanFromContext once and uses the result unconditionally.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// --- W3C traceparent ---

// ParseTraceparent parses a W3C traceparent header
// ("00-{32 hex trace-id}-{16 hex span-id}-{2 hex flags}"). ok is false
// on any malformed or all-zero field; sampled reflects bit 0 of the
// flags.
func ParseTraceparent(h string) (traceID, spanID string, sampled, ok bool) {
	h = strings.TrimSpace(h)
	parts := strings.Split(h, "-")
	if len(parts) != 4 || parts[0] != "00" ||
		len(parts[1]) != 32 || len(parts[2]) != 16 || len(parts[3]) != 2 {
		return "", "", false, false
	}
	if !isHexLower(parts[1]) || !isHexLower(parts[2]) || !isHexLower(parts[3]) {
		return "", "", false, false
	}
	if parts[1] == strings.Repeat("0", 32) || parts[2] == strings.Repeat("0", 16) {
		return "", "", false, false
	}
	var flags byte
	fmt.Sscanf(parts[3], "%02x", &flags) //nolint:errcheck // validated hex above
	return parts[1], parts[2], flags&1 == 1, true
}

// Traceparent formats a W3C traceparent header for propagation.
func Traceparent(traceID, spanID string, sampled bool) string {
	flags := "00"
	if sampled {
		flags = "01"
	}
	return "00-" + traceID + "-" + spanID + "-" + flags
}

func isHexLower(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// --- id generation ---

// idState seeds a splitmix64 sequence from crypto/rand once; ids are
// then two atomic-increment hashes per call — unique within a process
// and cheap enough for per-request use.
var idState atomic.Uint64

func init() {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		idState.Store(binary.LittleEndian.Uint64(b[:]))
	} else {
		idState.Store(uint64(time.Now().UnixNano()))
	}
}

func nextRand() uint64 {
	x := idState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func hexN(n int) string {
	b := make([]byte, n)
	for i := 0; i < n; i += 8 {
		var chunk [8]byte
		binary.LittleEndian.PutUint64(chunk[:], nextRand())
		copy(b[i:], chunk[:min(8, n-i)])
	}
	return hex.EncodeToString(b)
}

// NewTraceID returns a random 32-hex-char W3C trace id.
func NewTraceID() string { return hexN(16) }

// NewSpanID returns a random 16-hex-char W3C span id.
func NewSpanID() string { return hexN(8) }

// NewRequestID returns a random request id for X-Request-ID echo.
func NewRequestID() string { return hexN(8) }
