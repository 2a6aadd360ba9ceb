package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

func getJSON(t testing.TB, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// A ?explain=1 response must extend the plain response byte-for-byte:
// the explain block is strictly appended, so consumers of the plain
// schema can parse either.
func TestExplainEndpointBytePrefix(t *testing.T) {
	ds, m := fixture(t)
	_, ts := testServer(t, m, Config{})
	req := PointsRequest(ds.TestTrips()[0].Cell)

	resp, plain := postJSON(t, ts.URL+"/v1/match", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plain match: %d: %s", resp.StatusCode, plain)
	}
	resp, explained := postJSON(t, ts.URL+"/v1/match?explain=1", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain match: %d: %s", resp.StatusCode, explained)
	}
	// plain ends with "}\n"; the explain body continues from the "}".
	prefix := plain[:len(plain)-2]
	if !bytes.HasPrefix(explained, prefix) {
		t.Fatalf("explain response does not extend the plain bytes:\nplain:   %.120s\nexplain: %.120s",
			plain, explained)
	}

	var er ExplainMatchResponse
	if err := json.Unmarshal(explained, &er); err != nil {
		t.Fatal(err)
	}
	if er.Explain == nil {
		t.Fatal("no explain block in ?explain=1 response")
	}
	if len(er.Explain.Points) != len(req.Points) {
		t.Fatalf("%d explain points for %d input points", len(er.Explain.Points), len(req.Points))
	}
	for i, pt := range er.Explain.Points {
		if !pt.Dead && (pt.Chosen == nil || len(pt.Candidates) == 0) {
			t.Fatalf("point %d explained without choice/candidates", i)
		}
	}

	// The per-request explain flag must not leak into the shared model:
	// a following plain request still answers the plain bytes.
	resp, again := postJSON(t, ts.URL+"/v1/match", req)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(again, plain) {
		t.Fatalf("plain response changed after an explain request (%d)", resp.StatusCode)
	}
}

// Captures record plain matches only, with the digest taken over the
// exact response bytes, and replay's reader round-trips them.
func TestCaptureRoundTrip(t *testing.T) {
	ds, m := fixture(t)
	var buf bytes.Buffer
	_, ts := testServer(t, m, Config{Capture: NewCapture(&buf)})
	req := PointsRequest(ds.TestTrips()[0].Cell)

	resp, plain := postJSON(t, ts.URL+"/v1/match", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("match: %d: %s", resp.StatusCode, plain)
	}
	// Explain/debug requests are outside the reproducibility contract
	// and must not be captured.
	if resp, body := postJSON(t, ts.URL+"/v1/match?explain=1", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("explain match: %d: %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/match?debug=1", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("debug match: %d: %s", resp.StatusCode, body)
	}

	recs, err := ReadCaptures(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("%d capture records, want 1 (plain only)", len(recs))
	}
	rec := recs[0]
	if rec.Schema != CaptureSchema {
		t.Errorf("schema %q", rec.Schema)
	}
	sum := sha256.Sum256(plain)
	if rec.Response.SHA256 != hex.EncodeToString(sum[:]) {
		t.Errorf("capture digest %s does not match response bytes", rec.Response.SHA256)
	}
	if rec.Response.Bytes != len(plain) {
		t.Errorf("capture size %d, response was %d bytes", rec.Response.Bytes, len(plain))
	}
	if len(rec.Request.Points) != len(req.Points) {
		t.Errorf("capture request has %d points, sent %d", len(rec.Request.Points), len(req.Points))
	}
	if rec.Config.K != m.Cfg.K || rec.Config.OnBreak != m.Cfg.OnBreak.String() {
		t.Errorf("capture config %+v does not pin the effective model config", rec.Config)
	}
}

// syncBuf is a goroutine-safe buffer for capturing access logs (the
// handler logs after the response is flushed to the client).
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// With -log-format json, every access log line must parse as one JSON
// object carrying the request fields.
func TestAccessLogJSONParses(t *testing.T) {
	_, m := fixture(t)
	_, ts := testServer(t, m, Config{})

	var logs syncBuf
	if err := obs.SetLogFormat(&logs, "json"); err != nil {
		t.Fatal(err)
	}
	obs.SetLogLevel(slog.LevelInfo)
	defer func() {
		off, _ := obs.ParseLevel("off")
		obs.SetLogLevel(off)
		obs.SetLogFormat(&bytes.Buffer{}, "text") //nolint:errcheck // known-good format
	}()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitFor(t, func() bool { return strings.Contains(logs.String(), "/healthz") })

	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("access log line is not JSON: %v (%q)", err, line)
		}
		if rec["msg"] != "request" {
			continue
		}
		rid, ok := rec["request_id"].(string)
		if rec["path"] != "/healthz" || rec["status"] != float64(200) || !ok || rid == "" {
			t.Errorf("unexpected access log record: %v", rec)
		}
	}
}
