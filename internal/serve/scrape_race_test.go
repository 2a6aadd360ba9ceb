package serve

import (
	"io"
	"net/http"
	"sync"
	"testing"
)

// Hammers every observability surface concurrently with in-flight
// matches. The assertions are thin on purpose: the test exists to give
// the race detector (go test -race) maximal interleaving across the
// metrics registry and the serving path at once.
func TestConcurrentScrapesDuringMatches(t *testing.T) {
	ds, m := fixture(t)
	_, ts := testServer(t, m, Config{})

	trips := ds.TestTrips()
	get := func(path string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: %d", path, resp.StatusCode)
		}
	}

	const rounds = 20
	var wg sync.WaitGroup
	// Matchers: keep requests in flight for the whole scrape storm.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				tr := trips[(w+i)%len(trips)]
				resp, body := postJSON(t, ts.URL+"/v1/match", PointsRequest(tr.Cell))
				if resp.StatusCode != http.StatusOK {
					t.Errorf("match: %d: %s", resp.StatusCode, body)
				}
			}
		}(w)
	}
	// Scrapers: every read-side surface, concurrently.
	for _, path := range []string{"/metrics", "/metrics.json", "/readyz", "/healthz"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				get(path)
			}
		}(path)
	}
	wg.Wait()
}
