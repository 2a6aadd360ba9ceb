package obs

import "time"

// processStart anchors the uptime gauge. Package-level so uptime is
// measured from obs initialization — effectively process start, since
// every binary links this package.
var processStart = time.Now()

func init() {
	// lhmm_uptime_seconds: a derived gauge, so it is computed at scrape
	// time and appears consistently in the Prometheus text exposition,
	// /metrics.json snapshots, and lhmm-bench -json output — the same
	// three surfaces every other derived gauge reaches.
	Default.Derived("uptime.seconds", func() float64 {
		return time.Since(processStart).Seconds()
	})
}
