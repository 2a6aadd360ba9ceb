package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// decodeSpans parses a tracer's JSONL output.
func decodeSpans(t *testing.T, b []byte) []SpanRecord {
	t.Helper()
	var recs []SpanRecord
	dec := json.NewDecoder(bytes.NewReader(b))
	for dec.More() {
		var r SpanRecord
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("decode span: %v", err)
		}
		recs = append(recs, r)
	}
	return recs
}

func TestSpanTreeExport(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer()
	tr.SetOutput(&buf)

	root := tr.StartSpan("request", "", "")
	if root == nil {
		t.Fatal("StartSpan returned nil on enabled tracer")
	}
	root.SetAttr("path", "/v1/match")
	child := root.StartChild("match")
	grand := child.ChildAt("viterbi", time.Now().Add(-time.Millisecond), time.Millisecond)
	grand.ChildAt("transition", time.Now().Add(-time.Millisecond), 500*time.Microsecond)
	child.End()
	root.End()

	recs := decodeSpans(t, buf.Bytes())
	if len(recs) != 4 {
		t.Fatalf("got %d spans, want 4: %+v", len(recs), recs)
	}
	byName := map[string]SpanRecord{}
	for _, r := range recs {
		byName[r.Name] = r
		if r.TraceID != root.TraceID {
			t.Errorf("span %s trace id %s, want %s", r.Name, r.TraceID, root.TraceID)
		}
		if len(r.SpanID) != 16 {
			t.Errorf("span %s id %q not 16 hex chars", r.Name, r.SpanID)
		}
	}
	if byName["match"].ParentID != root.SpanID {
		t.Errorf("match parent %s, want root %s", byName["match"].ParentID, root.SpanID)
	}
	if byName["viterbi"].ParentID != byName["match"].SpanID {
		t.Errorf("viterbi parent %s, want match %s", byName["viterbi"].ParentID, byName["match"].SpanID)
	}
	if byName["transition"].ParentID != byName["viterbi"].SpanID {
		t.Errorf("transition parent %s, want viterbi %s", byName["transition"].ParentID, byName["viterbi"].SpanID)
	}
	// The root exports last, after all children.
	if recs[len(recs)-1].Name != "request" {
		t.Errorf("last exported span is %s, want request (root)", recs[len(recs)-1].Name)
	}
	if got := byName["request"].Attrs["path"]; got != "/v1/match" {
		t.Errorf("root attr path = %v", got)
	}
}

func TestSpanUpstreamTraceContinues(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer()
	tr.SetOutput(&buf)
	up := strings.Repeat("ab", 16)
	parent := strings.Repeat("cd", 8)
	sp := tr.StartSpan("request", up, parent)
	sp.End()
	recs := decodeSpans(t, buf.Bytes())
	if recs[0].TraceID != up || recs[0].ParentID != parent {
		t.Errorf("got trace %s parent %s, want upstream %s/%s", recs[0].TraceID, recs[0].ParentID, up, parent)
	}
}

func TestSpanNilSafety(t *testing.T) {
	var s *Span
	s.SetAttr("k", 1)
	s.End()
	if c := s.StartChild("x"); c != nil {
		t.Error("nil.StartChild != nil")
	}
	if c := s.ChildAt("x", time.Now(), 0); c != nil {
		t.Error("nil.ChildAt != nil")
	}
	if d := s.Duration(); d != 0 {
		t.Error("nil.Duration != 0")
	}
	ctx := ContextWithSpan(context.Background(), nil)
	if got := SpanFromContext(ctx); got != nil {
		t.Error("nil span round-tripped through context as non-nil")
	}
}

func TestTracerDisabledAndSampling(t *testing.T) {
	tr := NewTracer()
	if tr.Enabled() {
		t.Error("fresh tracer enabled")
	}
	if sp := tr.StartSpan("x", "", ""); sp != nil {
		t.Error("disabled tracer returned a span")
	}
	var buf bytes.Buffer
	tr.SetOutput(&buf)
	if sp := tr.StartSpan("x", "", ""); sp == nil {
		t.Error("tracer with an output returned no span")
	}
	tr.SetOutput(nil)
	if tr.Enabled() {
		t.Error("SetOutput(nil) left tracer enabled")
	}
}

func TestTraceparent(t *testing.T) {
	tid, sid := strings.Repeat("0a", 16), strings.Repeat("0b", 8)
	h := Traceparent(tid, sid, true)
	gt, gs, sampled, ok := ParseTraceparent(h)
	if !ok || gt != tid || gs != sid || !sampled {
		t.Fatalf("round trip failed: %q -> %v %v %v %v", h, gt, gs, sampled, ok)
	}
	_, _, sampled, ok = ParseTraceparent(Traceparent(tid, sid, false))
	if !ok || sampled {
		t.Fatalf("unsampled round trip: sampled=%v ok=%v", sampled, ok)
	}
	bad := []string{
		"",
		"00-" + tid + "-" + sid,         // missing flags
		"01-" + tid + "-" + sid + "-01", // wrong version
		"00-" + strings.ToUpper(tid) + "-" + sid + "-01",    // uppercase hex
		"00-" + strings.Repeat("0", 32) + "-" + sid + "-01", // all-zero trace
		"00-" + tid + "-" + strings.Repeat("0", 16) + "-01", // all-zero span
		"00-" + tid[:30] + "-" + sid + "-01",                // short trace id
	}
	for _, h := range bad {
		if _, _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent accepted %q", h)
		}
	}
}

func TestNewIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if len(id) != 32 {
			t.Fatalf("trace id %q not 32 chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %q", id)
		}
		seen[id] = true
	}
	if len(NewSpanID()) != 16 || len(NewRequestID()) != 16 {
		t.Error("span/request id length wrong")
	}
}

// TestSpanDisabledFastPathAllocs pins the untraced fast path: a
// context without a span costs one lookup and no allocations through
// every span method.
func TestSpanDisabledFastPathAllocs(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		sp := SpanFromContext(ctx)
		sp.SetAttr("k", 1)
		c := sp.StartChild("x")
		c.ChildAt("y", time.Time{}, 0)
		c.End()
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("untraced span path allocates %.1f/op, want 0", allocs)
	}
}
