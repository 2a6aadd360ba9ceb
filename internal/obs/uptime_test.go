package obs

import (
	"strings"
	"testing"
)

func TestUptimeDerivedGauge(t *testing.T) {
	found := false
	for _, n := range Default.DerivedNames() {
		if n == "uptime.seconds" {
			found = true
		}
	}
	if !found {
		t.Fatalf("uptime.seconds not registered: %v", Default.DerivedNames())
	}
	s := Default.Snapshot()
	if v, ok := s.Derived["uptime.seconds"]; !ok || v <= 0 {
		t.Fatalf("snapshot derived uptime.seconds = %v (present %v), want > 0", v, ok)
	}
	var b strings.Builder
	if err := Default.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "lhmm_uptime_seconds") {
		t.Fatal("lhmm_uptime_seconds missing from Prometheus exposition")
	}
}
