package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

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

// scrapeCounter reads one unlabelled series off /metrics.
func scrapeCounter(t *testing.T, url, name string) int64 {
	t.Helper()
	resp, body := getJSON(t, url+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("/metrics: %s: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("/metrics carries no %s", name)
	return 0
}

// Served matches and their latencies land on /metrics: three matches
// add three to lhmm_serve_matches_total and at least three
// observations to lhmm_serve_request_seconds.
func TestMatchTrafficOnMetrics(t *testing.T) {
	ds, m := fixture(t)
	_, ts := testServer(t, m, Config{})
	tr := ds.TestTrips()[0]

	matches := scrapeCounter(t, ts.URL, "lhmm_serve_matches_total")
	observed := scrapeCounter(t, ts.URL, "lhmm_serve_request_seconds_count")
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/match", PointsRequest(tr.Cell))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("match %d: %d: %s", i, resp.StatusCode, body)
		}
	}
	if got := scrapeCounter(t, ts.URL, "lhmm_serve_matches_total") - matches; got != 3 {
		t.Errorf("lhmm_serve_matches_total rose by %d, want 3", got)
	}
	if got := scrapeCounter(t, ts.URL, "lhmm_serve_request_seconds_count") - observed; got < 3 {
		t.Errorf("lhmm_serve_request_seconds_count rose by %d, want >= 3", got)
	}
}

// A session push that fails on a dead point answers 5xx and counts in
// lhmm_serve_match_errors_total, as a failed /v1/match does.
func TestFailedPushCountsMatchError(t *testing.T) {
	_, m := fixture(t)
	tr := sessionTrip(t)
	_, ts := testServer(t, m, Config{})
	t.Cleanup(faultinject.DisarmAll)

	id := createSession(t, ts.URL, 2)
	pushPoints(t, ts.URL, id, tr[:1])
	before := scrapeCounter(t, ts.URL, "lhmm_serve_match_errors_total")
	if err := faultinject.Arm("hmm.candidates.empty"); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/sessions/"+id+"/points", PushRequest{Points: PointsRequest(tr[1:2]).Points})
	faultinject.DisarmAll()
	if resp.StatusCode < 500 {
		t.Fatalf("push of a dead point: %d (%s), want 5xx", resp.StatusCode, body)
	}
	if got := scrapeCounter(t, ts.URL, "lhmm_serve_match_errors_total") - before; got != 1 {
		t.Fatalf("lhmm_serve_match_errors_total rose by %d, want 1", got)
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
// match degraded: each response says so, lhmm_hmm_match_degraded_total
// counts every fallback, and /readyz stays a plain 200 — a degraded
// matcher still answers on the classical fallback. There is no quality
// endpoint; the /metrics series are the quality signals.
func TestDegradedByFaultInjection(t *testing.T) {
	ds, m := fixture(t)
	_, ts := testServer(t, m, Config{})
	tr := ds.TestTrips()[0]

	before := scrapeCounter(t, ts.URL, "lhmm_hmm_match_degraded_total")
	t.Cleanup(faultinject.DisarmAll)
	// core.trans.nan poisons the batch scoring path (the learned
	// model's), hmm.trans.nan the scalar one; arming both covers
	// whichever the matcher takes.
	if err := faultinject.Arm("core.trans.nan,hmm.trans.nan"); err != nil {
		t.Fatal(err)
	}
	var degraded int64
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
		degraded += int64(mres.Degraded)
	}
	faultinject.DisarmAll()

	if got := scrapeCounter(t, ts.URL, "lhmm_hmm_match_degraded_total") - before; got < degraded {
		t.Errorf("lhmm_hmm_match_degraded_total rose by %d, want >= %d", got, degraded)
	}

	resp, body := getJSON(t, ts.URL+"/readyz")
	var ready map[string]string
	if err := json.Unmarshal(body, &ready); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(ready) != 1 || ready["status"] != "ready" {
		t.Errorf("/readyz %d %v, want 200 {status: ready}", resp.StatusCode, ready)
	}

	if resp, _ := getJSON(t, ts.URL+"/v1/quality"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("/v1/quality: %d, want 404", resp.StatusCode)
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
