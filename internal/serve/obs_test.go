package serve

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

// syncBuffer is a goroutine-safe writer for capturing tracer and log
// output from handler goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

func (b *syncBuffer) String() string { return string(b.Bytes()) }

// GET /v1/quality reports the windowed rates, echoes the thresholds,
// and counts the traffic the match endpoint served.
func TestQualityEndpoint(t *testing.T) {
	ds, m := fixture(t)
	_, ts := testServer(t, m, Config{Quality: obs.QualityConfig{
		Window:          time.Minute,
		MaxDegradedRate: 0.5,
		MaxP99:          10 * time.Second,
	}})
	tr := ds.TestTrips()[0]
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/match", PointsRequest(tr.Cell))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("match %d: %d: %s", i, resp.StatusCode, body)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/quality")
	if err != nil {
		t.Fatal(err)
	}
	var rep obs.QualityReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rep.Status != "ok" {
		t.Errorf("status %q, want ok", rep.Status)
	}
	if rep.Matches != 3 || rep.Requests != 3 {
		t.Errorf("counts %d/%d, want 3 matches of 3 requests", rep.Matches, rep.Requests)
	}
	if rep.WindowS != 60 {
		t.Errorf("window %gs, want 60", rep.WindowS)
	}
	if rep.Thresholds.MaxDegradedRate != 0.5 || rep.Thresholds.MaxP99S != 10 {
		t.Errorf("thresholds not echoed: %+v", rep.Thresholds)
	}
	if rep.P99S <= 0 {
		t.Errorf("windowed p99 %g, want > 0 after 3 matches", rep.P99S)
	}
}

// A session push that fails on a dead point counts in /v1/quality as an
// empty-candidate request, as a failed /v1/match does.
func TestQualityCountsFailedPushEmpty(t *testing.T) {
	_, m := fixture(t)
	tr := sessionTrip(t)
	_, ts := testServer(t, m, Config{})
	t.Cleanup(faultinject.DisarmAll)

	id := createSession(t, ts.URL, 2)
	pushPoints(t, ts.URL, id, tr[:1])
	if err := faultinject.Arm("hmm.candidates.empty"); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/sessions/"+id+"/points", PushRequest{Points: PointsRequest(tr[1:2]).Points})
	faultinject.DisarmAll()
	if resp.StatusCode < 500 {
		t.Fatalf("push of a dead point: %d (%s), want 5xx", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/match", PointsRequest(tr)); resp.StatusCode != http.StatusOK {
		t.Fatalf("match: %d (%s)", resp.StatusCode, body)
	}

	resp, body = getJSON(t, ts.URL+"/v1/quality")
	var rep obs.QualityReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("/v1/quality: %d: %v", resp.StatusCode, err)
	}
	if rep.Requests != 3 || rep.EmptyRate != 1.0/3 {
		t.Fatalf("quality: %d requests, empty_rate %g; want 3 and 1/3", rep.Requests, rep.EmptyRate)
	}
}

// ?debug=1 appends the MatchTrace; the leading bytes stay identical to
// the non-debug encoding, so debug mode can never perturb parity.
func TestDebugMatchTrace(t *testing.T) {
	ds, m := fixture(t)
	_, ts := testServer(t, m, Config{})
	tr := ds.TestTrips()[0]

	_, plain := postJSON(t, ts.URL+"/v1/match", PointsRequest(tr.Cell))
	resp, debug := postJSON(t, ts.URL+"/v1/match?debug=1", PointsRequest(tr.Cell))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug match: %d: %s", resp.StatusCode, debug)
	}

	var dres ExplainMatchResponse
	if err := json.Unmarshal(debug, &dres); err != nil {
		t.Fatal(err)
	}
	if dres.Trace == nil {
		t.Fatal("debug response has no trace block")
	}
	if len(dres.Trace.Points) == 0 {
		t.Error("trace has no per-point rows")
	}
	if dres.Trace.Stages.TotalS <= 0 {
		t.Error("trace has no stage timings")
	}

	// plain is `{...}\n`; debug must start with the same `{...` prefix
	// (everything up to the closing brace) and only append after it.
	prefix := bytes.TrimRight(plain, "}\n")
	if !bytes.HasPrefix(debug, prefix) {
		t.Error("debug response diverges from the non-debug encoding before the trace block")
	}
	if !bytes.Contains(debug, []byte(`"trace":`)) {
		t.Error("debug response missing trace field")
	}
	if bytes.Contains(plain, []byte(`"trace":`)) {
		t.Error("non-debug response leaked a trace field")
	}
}

// A sampled request exports a span tree covering the whole pipeline:
// request -> admission + match -> sanitize/candidates/observation/
// viterbi(transition)/route, all under one trace ID, with stage spans
// fitting inside their parents.
func TestRequestTracingSpans(t *testing.T) {
	ds, m := fixture(t)
	_, ts := testServer(t, m, Config{})
	tr := ds.TestTrips()[0]

	var sink syncBuffer
	obs.DefaultTracer.SetOutput(&sink)
	defer obs.DefaultTracer.SetOutput(nil)

	upTrace := strings.Repeat("ab", 16)
	upSpan := strings.Repeat("cd", 8)
	body, err := json.Marshal(PointsRequest(tr.Cell))
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", ts.URL+"/v1/match", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", obs.Traceparent(upTrace, upSpan, true))
	req.Header.Set("X-Request-ID", "req-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("match: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "req-42" {
		t.Errorf("X-Request-ID %q not echoed", got)
	}
	tp := resp.Header.Get("traceparent")
	gotTrace, _, sampled, ok := obs.ParseTraceparent(tp)
	if !ok || !sampled || gotTrace != upTrace {
		t.Errorf("response traceparent %q does not continue upstream trace %s", tp, upTrace)
	}

	var spans []obs.SpanRecord
	dec := json.NewDecoder(bytes.NewReader(sink.Bytes()))
	for dec.More() {
		var r obs.SpanRecord
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, r)
	}
	byName := map[string]obs.SpanRecord{}
	for _, sp := range spans {
		if sp.TraceID != upTrace {
			t.Errorf("span %s trace %s, want upstream %s", sp.Name, sp.TraceID, upTrace)
		}
		byName[sp.Name] = sp
	}
	for _, want := range []string{
		"request", "admission", "match", "sanitize", "session_init",
		"candidates", "observation", "viterbi", "transition",
		"shortcuts", "backtrack", "route",
	} {
		if _, ok := byName[want]; !ok {
			t.Errorf("missing span %q in trace (have %d spans)", want, len(spans))
		}
	}
	root := byName["request"]
	if root.ParentID != upSpan {
		t.Errorf("root parent %s, want upstream span %s", root.ParentID, upSpan)
	}
	if root.Attrs["request_id"] != "req-42" || root.Attrs["path"] != "/v1/match" {
		t.Errorf("root attrs %v missing request_id/path", root.Attrs)
	}
	// The top-level match stages partition the match span: their
	// durations sum to no more than the match (and the match fits in
	// the request), within scheduling slack.
	const slack = 0.010
	match := byName["match"]
	var stageSum float64
	for _, name := range []string{"sanitize", "session_init", "candidates", "viterbi", "shortcuts", "backtrack", "route"} {
		if sp, ok := byName[name]; ok {
			if sp.ParentID != match.SpanID {
				t.Errorf("span %s parent %s, want match %s", name, sp.ParentID, match.SpanID)
			}
			stageSum += sp.DurationS
		}
	}
	if stageSum == 0 {
		t.Error("stage spans have zero total duration")
	}
	if stageSum > match.DurationS+slack {
		t.Errorf("stage durations sum %.6fs exceed match span %.6fs", stageSum, match.DurationS)
	}
	if match.DurationS > root.DurationS+slack {
		t.Errorf("match span %.6fs exceeds request span %.6fs", match.DurationS, root.DurationS)
	}
	if tsp := byName["transition"]; tsp.ParentID != byName["viterbi"].SpanID {
		t.Errorf("transition parent %s, want viterbi %s", tsp.ParentID, byName["viterbi"].SpanID)
	}
}

// Forcing learned-scoring NaNs through the failpoints drives every
// match degraded: the monitor crosses MaxDegradedRate, logs the warn
// transition, flips the gauge, and /readyz reports the degraded detail
// while staying 200.
func TestQualityDegradedByFaultInjection(t *testing.T) {
	ds, m := fixture(t)
	_, ts := testServer(t, m, Config{Quality: obs.QualityConfig{
		Window:          time.Minute,
		MinSamples:      2,
		MaxDegradedRate: 0.05,
	}})
	tr := ds.TestTrips()[0]

	var logs syncBuffer
	old := obs.Logger()
	obs.SetLogger(slog.New(slog.NewTextHandler(&logs, &slog.HandlerOptions{Level: slog.LevelInfo})))
	defer obs.SetLogger(old)

	t.Cleanup(faultinject.DisarmAll)
	// core.trans.nan poisons the batch scoring path (the learned
	// model's), hmm.trans.nan the scalar one; arming both covers
	// whichever the matcher takes.
	if err := faultinject.Arm("core.trans.nan,hmm.trans.nan"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/match", PointsRequest(tr.Cell))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("degraded match %d: %d: %s", i, resp.StatusCode, body)
		}
		var mres MatchResponse
		if err := json.Unmarshal(body, &mres); err != nil {
			t.Fatal(err)
		}
		if mres.Degraded == 0 {
			t.Fatalf("match %d not degraded under trans.nan faults", i)
		}
	}
	faultinject.DisarmAll()

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz %d, want 200 (degraded quality must not unready)", resp.StatusCode)
	}
	if ready["status"] != "ready" || ready["quality"] != "degraded" {
		t.Errorf("/readyz %v, want status=ready quality=degraded", ready)
	}

	resp, err = http.Get(ts.URL + "/v1/quality")
	if err != nil {
		t.Fatal(err)
	}
	var rep obs.QualityReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rep.Status != "degraded" {
		t.Errorf("quality status %q, want degraded", rep.Status)
	}
	hasViol := false
	for _, v := range rep.Violations {
		if v == "degraded_rate" {
			hasViol = true
		}
	}
	if !hasViol {
		t.Errorf("violations %v missing degraded_rate", rep.Violations)
	}

	if out := logs.String(); !strings.Contains(out, "quality degraded") ||
		!strings.Contains(out, "level=WARN") {
		t.Errorf("no warn-level quality-degraded transition in logs:\n%s", out)
	}
}

// Scraping /metrics while matches run must be race-free (this test's
// teeth come from -race in CI) and every scrape must stay well-formed.
func TestConcurrentScrapeWhileMatching(t *testing.T) {
	ds, m := fixture(t)
	_, ts := testServer(t, m, Config{Workers: 4})
	tr := ds.TestTrips()[0]
	body, err := json.Marshal(PointsRequest(tr.Cell))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				resp, err := http.Post(ts.URL+"/v1/match", "application/json", bytes.NewReader(body))
				if err != nil {
					errc <- err
					return
				}
				resp.Body.Close()
			}
		}()
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					errc <- err
					return
				}
				b := new(bytes.Buffer)
				b.ReadFrom(resp.Body) //nolint:errcheck
				resp.Body.Close()
				if err := obs.ValidatePromText(b.Bytes()); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
