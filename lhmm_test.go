package lhmm

import (
	"bytes"
	"testing"
)

// tinyDataset builds a minimal dataset through the public API.
func tinyDataset(t testing.TB) *Dataset {
	t.Helper()
	cfg := SyntheticXiamen(0.02, 24)
	cfg.Seed = 77
	ds, err := GenerateDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Dim = 12
	cfg.Epochs = 1
	cfg.FuseEpochs = 1
	cfg.K = 8
	cfg.PoolSize = 16
	cfg.CoPool = 6
	cfg.PairsPerTrip = 16
	return cfg
}

func TestPublicAPITrainMatchEvaluate(t *testing.T) {
	ds := tinyDataset(t)
	model, err := Train(ds, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	trip := ds.TestTrips()[0]
	res, err := model.Match(trip.Cell)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Path) == 0 {
		t.Fatal("empty matched path")
	}
	pm := EvalPath(ds.Net, res.Path, trip.Path, 50)
	if pm.CMF < 0 || pm.CMF > 1 {
		t.Errorf("CMF out of range: %v", pm.CMF)
	}
	summary := Evaluate(ds, AsMethod("LHMM", model), ds.TestTrips(), 50)
	if summary.Trips != len(ds.TestTrips()) {
		t.Errorf("Evaluate covered %d trips", summary.Trips)
	}
	if summary.AvgTimeS <= 0 {
		t.Error("no timing recorded")
	}
}

func TestPublicAPISaveLoad(t *testing.T) {
	ds := tinyDataset(t)
	cfg := tinyConfig()
	model, err := Train(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := NewModel(ds, ds.TrainTrips(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Load(&buf); err != nil {
		t.Fatal(err)
	}
	trip := ds.TestTrips()[0]
	a, _ := model.Match(trip.Cell)
	b, _ := restored.Match(trip.Cell)
	if len(a.Path) != len(b.Path) {
		t.Fatal("restored model diverges")
	}
}

func TestPublicAPIClassicalAndFilters(t *testing.T) {
	ds := tinyDataset(t)
	router := NewRouter(ds.Net)
	matcher := ClassicalMatcher(ds.Net, router, 10, 450, 500)
	trip := ds.TestTrips()[0]
	out, err := matcher.Match(trip.Cell)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Path) == 0 {
		t.Error("classical matcher returned empty path")
	}
	filtered := Preprocess(trip.Cell, DefaultFilterConfig())
	if len(filtered) == 0 || len(filtered) > len(trip.Cell) {
		t.Errorf("Preprocess kept %d of %d", len(filtered), len(trip.Cell))
	}
}

func TestPublicAPIPresets(t *testing.T) {
	hz := SyntheticHangzhou(0.05, 10)
	xm := SyntheticXiamen(0.05, 10)
	if hz.City.Name == xm.City.Name {
		t.Error("presets share a name")
	}
	// Hangzhou samples more sparsely than Xiamen (Table I).
	if hz.Trips.CellMeanInterval <= xm.Trips.CellMeanInterval {
		t.Error("preset sampling intervals inverted")
	}
}

func TestPublicStreamingAPI(t *testing.T) {
	ds := tinyDataset(t)
	router := NewRouter(ds.Net)
	sm := NewClassicalStream(ds.Net, router, 8, 2, 450, 500)
	trip := ds.TestTrips()[0]
	var matched int
	for _, p := range trip.Cell {
		out, err := sm.Push(p)
		if err != nil {
			t.Fatal(err)
		}
		matched += len(out)
	}
	matched += len(sm.Flush())
	if matched != len(trip.Cell) {
		t.Errorf("stream matched %d of %d points", matched, len(trip.Cell))
	}
	if len(sm.Path()) == 0 {
		t.Error("empty stream path")
	}
}
