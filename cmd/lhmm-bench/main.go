// Command lhmm-bench regenerates the paper's tables and figures on the
// synthetic datasets.
//
// Usage:
//
//	lhmm-bench -exp table2                 # one experiment
//	lhmm-bench -exp all -scale 0.05       # the whole evaluation section
//	lhmm-bench -exp table2 -json          # machine-readable results
//
// Experiments: table1 table2 seq2seq table3 fig7a fig7b fig8 fig9
// fig10a fig10b fig11 fidelity; seq2seq holds Table II's seq2seq rows,
// whose training dominates the table's wall, on their own. Results
// print to stdout; -out duplicates them to a file. With -json, results
// are emitted as a single JSON document (schema lhmm-bench/v1)
// carrying per-experiment wall-clock, the rendered text, and the full
// observability snapshot (router cache hit rate, shortcut activations,
// Viterbi breaks, latency histograms) so successive runs can be
// diffed.
//
// -fullscale replaces the table/figure experiments with the
// paper-scale workload: generate the metro city at -scale (~100k
// segments at scale 1), measure routed-transition throughput on a
// fresh router over matcher-shaped candidate pairs, and run the
// classical matcher over held-out trips on that router for end-to-end
// match-latency quantiles. No run is committed; CI's fullscale-smoke
// job asserts the run's invariants at reduced scale. At paper scale:
//
//	lhmm-bench -fullscale -scale 1 -trips 80 -json -out fullscale.json
//
// Observability: -metrics dumps the telemetry snapshot on exit,
// -log-level enables structured logs on stderr, and -debug-addr serves
// /debug/pprof, /debug/vars, and /metrics while the bench runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/eval"
	"repro/internal/faultinject"
	"repro/internal/geo"
	"repro/internal/obs"
)

// output is the -json document (schema lhmm-bench/v1).
type output struct {
	Schema    string `json:"schema"`
	Timestamp string `json:"timestamp"`
	// Build stamps the producing binary (version, go toolchain, vcs
	// commit) so a saved run is attributable.
	Build       obs.BuildInfo `json:"build"`
	Scale       float64       `json:"scale"`
	Trips       int           `json:"trips"`
	Experiments []experiment  `json:"experiments"`
	// TotalWallS is end-to-end wall-clock including dataset generation
	// and model training triggered lazily by the first experiment.
	TotalWallS float64 `json:"total_wall_s"`
	// Derived headline metrics, also recoverable from Obs.
	RouterCacheHitRate  float64 `json:"router_cache_hit_rate"`
	ShortcutActivations int64   `json:"shortcut_activations"`
	ViterbiBreaks       int64   `json:"viterbi_breaks"`
	// Headline match-latency quantiles (hmm.match.seconds, bucket-
	// interpolated like Prometheus histogram_quantile).
	MatchP50S float64 `json:"match_p50_s"`
	MatchP95S float64 `json:"match_p95_s"`
	MatchP99S float64 `json:"match_p99_s"`
	// Fullscale carries the paper-scale workload section when the run
	// was -fullscale (additive; absent on table/figure runs).
	Fullscale *fullscaleResult `json:"fullscale,omitempty"`
	// Obs is the full telemetry snapshot of the run.
	Obs obs.Snapshot `json:"obs"`
}

// experiment is one experiment's result row.
type experiment struct {
	ID    string  `json:"id"`
	WallS float64 `json:"wall_s"`
	Text  string  `json:"text"`
}

func main() {
	exp := flag.String("exp", "all", "experiment id or 'all'")
	scale := flag.Float64("scale", 0.04, "city scale in (0, 1]")
	trips := flag.Int("trips", 220, "trips per dataset")
	out := flag.String("out", "", "also write results to this file")
	asJSON := flag.Bool("json", false, "emit one machine-readable JSON document instead of text")
	fullscale := flag.Bool("fullscale", false, "run the paper-scale metro workload (routed-transition throughput, match latency) instead of -exp")
	of := obs.BindFlags(flag.CommandLine)
	flag.Parse()

	if err := faultinject.ArmFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "lhmm-bench:", err)
		os.Exit(1)
	}
	if fp := faultinject.Armed(); len(fp) > 0 {
		fmt.Fprintf(os.Stderr, "lhmm-bench: fault injection armed via %s: %s\n",
			faultinject.EnvVar, strings.Join(fp, ","))
	}

	cleanup, err := of.Apply()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lhmm-bench:", err)
		os.Exit(1)
	}
	defer func() {
		if err := cleanup(); err != nil {
			fmt.Fprintln(os.Stderr, "lhmm-bench:", err)
		}
	}()

	if *asJSON || *fullscale {
		// JSON and fullscale runs measure from a clean
		// telemetry slate so two runs' documents diff as true per-run
		// deltas (fullscale also reads the match-latency
		// histogram for its text report).
		obs.Default.Enable()
		obs.Default.Reset()
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lhmm-bench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if *asJSON {
			w = f // JSON goes to the file only; progress stays on stderr
		} else {
			w = io.MultiWriter(os.Stdout, f)
		}
	}

	runStart := time.Now()
	var results []experiment
	var fsRes *fullscaleResult
	if *fullscale {
		start := time.Now()
		fs, text, err := runFullscale(*scale, *trips)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lhmm-bench: fullscale: %v\n", err)
			os.Exit(1)
		}
		wall := time.Since(start).Seconds()
		fsRes = fs
		results = append(results, experiment{ID: "fullscale", WallS: wall, Text: text})
		obs.Logger().Info("lhmm-bench: fullscale done", "wall_s", wall)
		if !*asJSON {
			fmt.Fprintf(w, "== fullscale (%.1fs) ==\n%s\n", wall, text)
		} else {
			fmt.Fprintf(os.Stderr, "lhmm-bench: fullscale done in %.1fs\n%s", wall, text)
		}
	} else {
		hz := eval.NewSuite(eval.DefaultSuite("hangzhou", *scale, *trips))
		xm := eval.NewSuite(eval.DefaultSuite("xiamen", *scale, *trips))

		ids := []string{*exp}
		if *exp == "all" {
			ids = eval.ExperimentNames
		}
		for _, id := range ids {
			start := time.Now()
			text, err := eval.RunExperiment(id, hz, xm)
			if err != nil {
				fmt.Fprintf(os.Stderr, "lhmm-bench: %s: %v\n", id, err)
				os.Exit(1)
			}
			wall := time.Since(start).Seconds()
			results = append(results, experiment{ID: id, WallS: wall, Text: text})
			obs.Logger().Info("lhmm-bench: experiment done", "id", id, "wall_s", wall)
			if !*asJSON {
				fmt.Fprintf(w, "== %s (%.1fs) ==\n%s\n", id, wall, text)
			} else {
				fmt.Fprintf(os.Stderr, "lhmm-bench: %s done in %.1fs\n", id, wall)
			}
			if id == "fig11" && !*asJSON {
				if err := writeFig11Artifacts(hz); err != nil {
					fmt.Fprintf(os.Stderr, "lhmm-bench: fig11 artifacts: %v\n", err)
				}
			}
		}
	}

	if *asJSON {
		doc := buildDoc(results, *scale, *trips, time.Since(runStart).Seconds())
		doc.Fullscale = fsRes
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintln(os.Stderr, "lhmm-bench:", err)
			os.Exit(1)
		}
	}
}

// buildDoc assembles the lhmm-bench/v1 document for this run.
func buildDoc(results []experiment, scale float64, trips int, totalS float64) *output {
	snap := obs.Default.Snapshot()
	match := snap.Histograms["hmm.match.seconds"]
	return &output{
		Schema:              "lhmm-bench/v1",
		Timestamp:           time.Now().UTC().Format(time.RFC3339),
		Build:               obs.GetBuildInfo(),
		Scale:               scale,
		Trips:               trips,
		Experiments:         results,
		TotalWallS:          totalS,
		RouterCacheHitRate:  snap.Ratio("router.cache.hits", "router.cache.misses"),
		ShortcutActivations: snap.Counters["hmm.shortcut.adoptions"],
		ViterbiBreaks:       snap.Counters["hmm.viterbi.breaks"],
		MatchP50S:           match.P50,
		MatchP95S:           match.P95,
		MatchP99S:           match.P99,
		Obs:                 snap,
	}
}

// writeFig11Artifacts saves the case study as SVG and GeoJSON files
// alongside the text rendering.
func writeFig11Artifacts(s *eval.Suite) error {
	cs, err := eval.Figure11(s)
	if err != nil {
		return err
	}
	if err := os.WriteFile("fig11.svg", cs.SVG(900), 0o644); err != nil {
		return err
	}
	gj, err := cs.GeoJSON(geo.Anchor{Origin: geo.LatLon{Lat: 30.25, Lon: 120.17}})
	if err != nil {
		return err
	}
	if err := os.WriteFile("fig11.geojson", gj, 0o644); err != nil {
		return err
	}
	fmt.Println("case study artifacts -> fig11.svg, fig11.geojson")
	return nil
}
