package obs_test

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"

	// Instruments register at package init via obs.Default; linking
	// serve pulls in the whole matching stack (core, hmm, roadnet) and
	// eval the experiment harness, so every production metric name is
	// on the lint's docket.
	_ "repro/internal/eval"
	_ "repro/internal/serve"
)

// metricName is the registry naming convention: dotted lowercase
// snake.case segments (underscores allowed inside a segment, as in
// "router.cache.hit_rate"). Every such name maps to a valid Prometheus
// metric name under the lhmm_ prefix, so enforcing it here keeps the
// /metrics exposition well-formed by construction.
var metricName = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$`)

// registeredNames lists every instrument in the default registry.
func registeredNames() []string {
	names := obs.Default.CounterNames()
	names = append(names, obs.Default.GaugeNames()...)
	names = append(names, obs.Default.HistogramNames()...)
	return append(names, obs.Default.DerivedNames()...)
}

func TestMetricNamesLint(t *testing.T) {
	names := registeredNames()
	if len(names) < 10 {
		t.Fatalf("only %d instruments registered; expected the full stack (is serve still linked?)", len(names))
	}
	for _, name := range names {
		if !metricName.MatchString(name) {
			t.Errorf("metric %q violates the dotted lowercase snake.case convention %s", name, metricName)
		}
	}
}

// TestSeedCountersStillRegistered pins the counter names the seed's
// committed bench run carried: dashboards and saved lhmm-bench/v1
// documents key on them, so renaming or dropping one is a
// schema change to make on purpose, here.
func TestSeedCountersStillRegistered(t *testing.T) {
	registered := make(map[string]bool)
	for _, name := range obs.Default.CounterNames() {
		registered[name] = true
	}
	for _, name := range []string{
		"core.matches",
		"core.roadprob.cache.hits",
		"core.roadprob.cache.misses",
		"eval.trips",
		"hmm.candidates",
		"hmm.matches",
		"hmm.shortcut.attempts",
		"hmm.transitions.evaluated",
		"hmm.transitions.unreachable",
		"router.cache.hits",
		"router.cache.misses",
		"router.routes",
		"router.routes.unreachable",
		"train.epochs",
	} {
		if !registered[name] {
			t.Errorf("counter %q is no longer registered", name)
		}
	}
}

// familyCell matches one backticked family in the first column of the
// README "Metrics reference" table: `serve.*`, `serve.reload*`,
// `uptime.seconds`.
var familyCell = regexp.MustCompile("`([a-z][a-z0-9_.]*)\\*?`")

// TestReadmeMetricFamiliesLint keeps the README "Metrics reference"
// table from outliving the code: every family it lists must prefix at
// least one registered instrument.
func TestReadmeMetricFamiliesLint(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "### Metrics reference")
	if !ok {
		t.Fatal(`README.md has no "### Metrics reference" section`)
	}
	if i := strings.Index(section, "\n#"); i >= 0 {
		section = section[:i]
	}
	names := registeredNames()
	families := 0
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || !strings.Contains(cells[1], "`") {
			continue // prose, header, or separator
		}
		for _, m := range familyCell.FindAllStringSubmatch(cells[1], -1) {
			families++
			found := false
			for _, name := range names {
				if strings.HasPrefix(name, m[1]) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("README Metrics reference lists family %s, but no registered instrument has that prefix", m[0])
			}
		}
	}
	if families == 0 {
		t.Fatal("parsed no families from the README Metrics reference table")
	}
}
