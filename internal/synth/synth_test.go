package synth

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/cellular"
	"repro/internal/roadnet"
)

func smallCityConfig() CityConfig {
	return CityConfig{
		Name:          "test-city",
		HalfSize:      3000,
		BlockSize:     250,
		CoreRadius:    1200,
		NodeJitter:    20,
		EdgeDropCore:  0.05,
		EdgeDropRural: 0.5,
		ArterialEvery: 4,
		RingRoad:      true,
		TowerCount:    80,
	}
}

func TestGenerateCityValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := GenerateCity(CityConfig{}, rng); err == nil {
		t.Error("empty config did not error")
	}
	if _, err := GenerateCity(CityConfig{HalfSize: 1000, BlockSize: 100}, rng); err == nil {
		t.Error("zero TowerCount did not error")
	}
}

func TestGenerateCityShape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	city, err := GenerateCity(smallCityConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if city.Net.NumSegments() < 500 {
		t.Errorf("city too small: %d segments", city.Net.NumSegments())
	}
	if city.Cells.NumTowers() != 80 {
		t.Errorf("towers = %d", city.Cells.NumTowers())
	}
	if len(city.Routable) < city.Net.NumNodes()/2 {
		t.Errorf("routable component too small: %d of %d", len(city.Routable), city.Net.NumNodes())
	}
	// Urban streets denser than rural: count segment midpoints in core
	// vs a same-area outer annulus.
	countIn := func(r0, r1 float64) int {
		var c int
		for i := 0; i < city.Net.NumSegments(); i++ {
			r := city.Net.Segment(roadnet.SegmentID(i)).Midpoint().Dist(city.Center)
			if r >= r0 && r < r1 {
				c++
			}
		}
		return c
	}
	inner := countIn(0, 1200)
	outer := countIn(2400, math.Sqrt(2400*2400+1200*1200))
	if inner <= outer {
		t.Errorf("no urban density gradient: inner %d vs outer %d", inner, outer)
	}
	// Some arterials and highways exist.
	var arterials, highways int
	for i := 0; i < city.Net.NumSegments(); i++ {
		switch city.Net.Segment(roadnet.SegmentID(i)).Class {
		case 1:
			arterials++
		case 2:
			highways++
		}
	}
	if arterials == 0 || highways == 0 {
		t.Errorf("arterials=%d highways=%d", arterials, highways)
	}
}

func TestGenerateCityDeterministic(t *testing.T) {
	cfg := smallCityConfig()
	a, err := GenerateCity(cfg, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateCity(cfg, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if a.Net.NumSegments() != b.Net.NumSegments() || a.Net.NumNodes() != b.Net.NumNodes() {
		t.Fatal("city generation not deterministic")
	}
	for i := 0; i < a.Net.NumNodes(); i++ {
		if a.Net.Node(roadnet.NodeID(i)).P != b.Net.Node(roadnet.NodeID(i)).P {
			t.Fatal("node positions differ between equal seeds")
		}
	}
}

func TestGenerateTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	city, err := GenerateCity(smallCityConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := TripConfig{
		Count:            12,
		MinLen:           1500,
		MaxLen:           5000,
		GPSInterval:      20,
		GPSNoise:         8,
		CellMeanInterval: 45,
		CenterBias:       1,
		Serving:          cellular.DefaultServingModel(),
	}
	trips, err := GenerateTrips(city, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(trips) != 12 {
		t.Fatalf("generated %d trips", len(trips))
	}
	for i, tr := range trips {
		if tr.ID != i {
			t.Errorf("trip %d has ID %d", i, tr.ID)
		}
		if tr.PathLength() < 1500 || tr.PathLength() > 5100 {
			t.Errorf("trip %d length %v outside bounds", i, tr.PathLength())
		}
		// Path contiguity.
		for j := 1; j < len(tr.Path); j++ {
			if city.Net.Segment(tr.Path[j-1]).To != city.Net.Segment(tr.Path[j]).From {
				t.Fatalf("trip %d path not contiguous", i)
			}
		}
		if len(tr.GPS) < 3 {
			t.Errorf("trip %d has %d GPS points", i, len(tr.GPS))
		}
		if len(tr.Cell) < 2 {
			t.Errorf("trip %d has %d cell points", i, len(tr.Cell))
		}
		// GPS points stay near the path (noise is 8 m).
		for _, g := range tr.GPS {
			if tr.PathGeom.Dist(g.P) > 60 {
				t.Errorf("trip %d GPS point %v is %v m from path", i, g.P, tr.PathGeom.Dist(g.P))
			}
		}
		// Cellular positions are tower positions: typically hundreds of
		// meters off the path. Check they are at least plausible (within
		// a few km).
		for _, c := range tr.Cell {
			if d := tr.PathGeom.Dist(c.P); d > 6000 {
				t.Errorf("trip %d cell point %v m from path", i, d)
			}
		}
		// Timestamps increase.
		for j := 1; j < len(tr.Cell); j++ {
			if tr.Cell[j].T <= tr.Cell[j-1].T {
				t.Errorf("trip %d cell timestamps not increasing", i)
			}
		}
	}
}

func TestGenerateTripsEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	city, err := GenerateCity(smallCityConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if trips, err := GenerateTrips(city, TripConfig{Count: 0}, rng); err != nil || trips != nil {
		t.Errorf("Count=0: %v %v", trips, err)
	}
	// Impossible length bounds must fail with a clear error, not hang.
	_, err = GenerateTrips(city, TripConfig{
		Count:  3,
		MinLen: 1e7,
		MaxLen: 2e7,
	}, rng)
	if err == nil {
		t.Error("impossible trip bounds did not error")
	}
}

func TestGenerateDatasetPresets(t *testing.T) {
	cfg := SyntheticXiamen(0.05, 20)
	d, err := GenerateDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "synthetic-xiamen" {
		t.Errorf("Name = %q", d.Name)
	}
	if len(d.Trips) == 0 || len(d.Trips) > 20 {
		t.Fatalf("trips = %d", len(d.Trips))
	}
	if len(d.Train) == 0 || len(d.Test) == 0 {
		t.Errorf("split %d/%d/%d", len(d.Train), len(d.Valid), len(d.Test))
	}
	stats := d.ComputeStats()
	if stats.RoadSegments == 0 || stats.CellPoints == 0 {
		t.Errorf("stats = %+v", stats)
	}
	// Cellular positioning error is in the hundreds of meters on
	// average — the defining property of the CTMM problem.
	var errSum float64
	var n int
	for i := range d.Trips {
		tr := &d.Trips[i]
		for _, c := range tr.Cell {
			// Use the raw tower position (tower id) against the path.
			errSum += tr.PathGeom.Dist(d.Cells.Tower(c.Tower).P)
			n++
		}
	}
	mean := errSum / float64(n)
	if mean < 60 || mean > 2500 {
		t.Errorf("mean tower-to-path distance %v m implausible for CTMM", mean)
	}
}

func TestGenerateDatasetDeterministic(t *testing.T) {
	cfg := SyntheticHangzhou(0.03, 6)
	a, err := GenerateDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Trips) != len(b.Trips) {
		t.Fatal("dataset not deterministic")
	}
	for i := range a.Trips {
		if len(a.Trips[i].Cell) != len(b.Trips[i].Cell) {
			t.Fatal("trip cellular sampling not deterministic")
		}
		for j := range a.Trips[i].Cell {
			if a.Trips[i].Cell[j] != b.Trips[i].Cell[j] {
				t.Fatal("cell points differ between equal seeds")
			}
		}
	}
}

func TestGenerateCityOptionVariants(t *testing.T) {
	// No ring road, no arterials: the generator still produces a
	// routable city of local streets only.
	cfg := smallCityConfig()
	cfg.RingRoad = false
	cfg.ArterialEvery = 0
	city, err := GenerateCity(cfg, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < city.Net.NumSegments(); i++ {
		if c := city.Net.Segment(roadnet.SegmentID(i)).Class; c != roadnet.Local {
			t.Fatalf("unexpected class %v with arterials disabled", c)
		}
	}
	// Heavy rural pruning still leaves a usable core.
	cfg2 := smallCityConfig()
	cfg2.EdgeDropRural = 0.9
	city2, err := GenerateCity(cfg2, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if len(city2.Routable) < 50 {
		t.Errorf("routable core too small under heavy pruning: %d", len(city2.Routable))
	}
}

func TestTripPathSet(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	city, err := GenerateCity(smallCityConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	trips, err := GenerateTrips(city, TripConfig{
		Count: 2, MinLen: 1200, MaxLen: 3000,
		CellMeanInterval: 40, Serving: cellular.DefaultServingModel(),
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trips {
		set := tr.PathSet()
		if len(set) == 0 || len(set) > len(tr.Path) {
			t.Errorf("PathSet size %d for path %d", len(set), len(tr.Path))
		}
		for _, sid := range tr.Path {
			if !set[sid] {
				t.Fatal("PathSet missing a path segment")
			}
		}
	}
}

// TestMetroDatasetGolden pins SyntheticMetro(0.10, 240) — every trip's
// path, GPS and cell points and the train/valid/test split — to a
// sha256 recorded on amd64 before the trip router kept its search
// state in slices. Router and generator work must leave the dataset
// bit for bit where it was; this fails loudly if it moves.
func TestMetroDatasetGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digest recorded on amd64")
	}
	d, err := GenerateDataset(SyntheticMetro(0.10, 240))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f := func(v float64) { put(math.Float64bits(v)) }
	for _, tr := range d.Trips {
		put(uint64(tr.ID))
		put(uint64(len(tr.Path)))
		for _, sid := range tr.Path {
			put(uint64(sid))
		}
		put(uint64(len(tr.GPS)))
		for _, p := range tr.GPS {
			f(p.P.X)
			f(p.P.Y)
			f(p.T)
		}
		put(uint64(len(tr.Cell)))
		for _, p := range tr.Cell {
			put(uint64(p.Tower))
			f(p.P.X)
			f(p.P.Y)
			f(p.T)
		}
	}
	for _, split := range [][]int{d.Train, d.Valid, d.Test} {
		put(uint64(len(split)))
		for _, i := range split {
			put(uint64(i))
		}
	}
	const golden = "5c759724e03fab3e09b848409744f003d88c3316197080f488262ba91a9f6a87"
	if got := hex.EncodeToString(h.Sum(nil)); got != golden {
		t.Fatalf("SyntheticMetro(0.10, 240) digest %s, want %s", got, golden)
	}
}
