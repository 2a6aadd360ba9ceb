package eval

import (
	"fmt"
	"strings"
)

// ExperimentNames lists every runnable experiment id, in paper order,
// plus the "fidelity" check validating the ground-truth substitution
// (DESIGN.md §2).
var ExperimentNames = []string{
	"table1", "table2", "seq2seq", "table3",
	"fig7a", "fig7b", "fig8", "fig9", "fig10a", "fig10b", "fig11",
	"fidelity",
}

// Figure10aLevels are the per-tower trajectory counts swept by default.
var Figure10aLevels = []int{2, 5, 10, 20}

// Figure10bFractions are the training-set fractions swept by default.
var Figure10bFractions = []float64{0.25, 0.5, 0.75, 1.0}

// RunExperiment executes one experiment by id and returns its rendered
// text. Experiments needing both datasets (table1) use both suites;
// the rest run on primary.
func RunExperiment(id string, primary, secondary *Suite) (string, error) {
	switch id {
	case "table1":
		suites := []*Suite{primary}
		if secondary != nil {
			suites = append(suites, secondary)
		}
		return Table1(suites...)
	case "table2":
		return tables(primary, secondary, Table2, "Table II — overall performance (%s)")
	case "seq2seq":
		return tables(primary, secondary, Seq2Seq, "Table II — seq2seq family (%s)")
	case "table3":
		return tables(primary, secondary, Table3, "Table III — ablations (%s)")
	case "fig7a":
		pts, err := Figure7a(primary)
		if err != nil {
			return "", err
		}
		return FormatSeries("Fig. 7(a) — CMF50 vs. distance to city center (m)", "distance", pts), nil
	case "fig7b":
		pts, err := Figure7b(primary)
		if err != nil {
			return "", err
		}
		return FormatSeries("Fig. 7(b) — CMF50 vs. sampling rate (samples/min)", "rate", pts), nil
	case "fig8":
		pts, err := Figure8(primary)
		if err != nil {
			return "", err
		}
		return FormatSeries("Fig. 8 — LHMM accuracy vs. candidate number k", "k", pts), nil
	case "fig9":
		pts, err := Figure9(primary)
		if err != nil {
			return "", err
		}
		return FormatSeries("Fig. 9 — LHMM accuracy vs. shortcut number K", "K", pts), nil
	case "fig10a":
		pts, err := Figure10a(primary, Figure10aLevels)
		if err != nil {
			return "", err
		}
		return FormatSeries("Fig. 10(a) — CMF50 vs. trajectories at one tower", "trajectories", pts), nil
	case "fig10b":
		pts, err := Figure10b(primary, Figure10bFractions)
		if err != nil {
			return "", err
		}
		return FormatSeries("Fig. 10(b) — accuracy vs. total historical trajectories", "trajectories", pts), nil
	case "fig11":
		cs, err := Figure11(primary)
		if err != nil {
			return "", err
		}
		return cs.ASCII(100, 30), nil
	case "fidelity":
		var b strings.Builder
		b.WriteString("Ground-truth fidelity — classical HMM on GPS vs simulator truth\n")
		for _, s := range suitesFor(primary, secondary) {
			ds, err := s.Dataset()
			if err != nil {
				return "", err
			}
			sum := GroundTruthFidelity(ds, ds.TestTrips())
			fmt.Fprintf(&b, "%-22s P=%.3f R=%.3f RMF=%.3f CMF50=%.3f\n",
				ds.Name, sum.Precision, sum.Recall, sum.RMF, sum.CMF)
		}
		return b.String(), nil
	default:
		return "", fmt.Errorf("eval: unknown experiment %q (have %s)", id, strings.Join(ExperimentNames, ", "))
	}
}

// tables renders one table per suite, each titled with its dataset's
// name.
func tables(primary, secondary *Suite, table func(*Suite) ([]Row, error), title string) (string, error) {
	var b strings.Builder
	for _, s := range suitesFor(primary, secondary) {
		rows, err := table(s)
		if err != nil {
			return "", err
		}
		ds, _ := s.Dataset()
		b.WriteString(FormatRows(fmt.Sprintf(title, ds.Name), rows))
		b.WriteString("\n")
	}
	return b.String(), nil
}

func suitesFor(primary, secondary *Suite) []*Suite {
	if secondary == nil {
		return []*Suite{primary}
	}
	return []*Suite{primary, secondary}
}
