package traj

import (
	"math"
	"testing"

	"repro/internal/geo"
)

func cleanTraj(n int) CellTrajectory {
	ct := make(CellTrajectory, n)
	for i := range ct {
		ct[i] = CellPoint{Tower: -1, P: geo.Pt(float64(i)*100, 50), T: float64(i) * 60}
	}
	return ct
}

func TestSanitizeCleanPassthrough(t *testing.T) {
	ct := cleanTraj(5)
	for _, mode := range []SanitizeMode{SanitizeStrict, SanitizeDrop, SanitizeOff} {
		out, rep, err := Sanitize(ct, mode)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if rep.Dropped() != 0 {
			t.Errorf("mode %v: dropped %d from clean input", mode, rep.Dropped())
		}
		if len(out) != len(ct) {
			t.Errorf("mode %v: %d points out of %d", mode, len(out), len(ct))
		}
		// Clean input is returned without copying.
		if len(out) > 0 && &out[0] != &ct[0] {
			t.Errorf("mode %v: clean input was copied", mode)
		}
	}
}

func TestSanitizeNaNCoords(t *testing.T) {
	ct := cleanTraj(5)
	ct[2].P.X = math.NaN()

	if _, _, err := Sanitize(ct, SanitizeStrict); err == nil {
		t.Error("strict mode accepted NaN coordinate")
	}

	out, rep, err := Sanitize(ct, SanitizeDrop)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 || rep.BadCoords != 1 {
		t.Errorf("drop mode: %d points, report %+v", len(out), rep)
	}

	out, rep, err = Sanitize(ct, SanitizeOff)
	if err != nil || len(out) != 5 || rep.Dropped() != 0 {
		t.Errorf("off mode altered input: %d points, %+v, %v", len(out), rep, err)
	}
}

func TestSanitizeInfAndNaNTime(t *testing.T) {
	ct := cleanTraj(4)
	ct[1].P.Y = math.Inf(1)
	ct[3].T = math.NaN()
	out, rep, err := Sanitize(ct, SanitizeDrop)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || rep.BadCoords != 2 {
		t.Errorf("got %d points, report %+v", len(out), rep)
	}
}

func TestSanitizeDuplicateTimestamps(t *testing.T) {
	ct := cleanTraj(5)
	ct[2].T = ct[1].T // zero-duration duplicate
	ct[4].T = ct[3].T - 10

	if _, _, err := Sanitize(ct, SanitizeStrict); err == nil {
		t.Error("strict mode accepted duplicate timestamp")
	}

	out, rep, err := Sanitize(ct, SanitizeDrop)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || rep.BadTimes != 2 {
		t.Errorf("drop mode: %d points, report %+v", len(out), rep)
	}
	for i := 1; i < len(out); i++ {
		if out[i].T <= out[i-1].T {
			t.Errorf("output timestamps not strictly increasing at %d", i)
		}
	}
}

func TestSanitizeAllBad(t *testing.T) {
	ct := CellTrajectory{
		{P: geo.Pt(math.NaN(), 0), T: 0},
		{P: geo.Pt(math.Inf(-1), 0), T: 1},
	}
	out, rep, err := Sanitize(ct, SanitizeDrop)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 || rep.BadCoords != 2 {
		t.Errorf("all-bad drop: %d points, %+v", len(out), rep)
	}
}

func TestSanitizeEmpty(t *testing.T) {
	for _, mode := range []SanitizeMode{SanitizeStrict, SanitizeDrop, SanitizeOff} {
		out, rep, err := Sanitize(nil, mode)
		if err != nil || len(out) != 0 || rep.Dropped() != 0 {
			t.Errorf("mode %v on nil: %v %v %v", mode, out, rep, err)
		}
	}
}

func TestParseSanitizeMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SanitizeMode
	}{{"strict", SanitizeStrict}, {"drop", SanitizeDrop}, {"off", SanitizeOff}} {
		got, err := ParseSanitizeMode(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSanitizeMode(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Errorf("String() round-trip: %q != %q", got.String(), tc.in)
		}
	}
	if _, err := ParseSanitizeMode("bogus"); err == nil {
		t.Error("bogus mode accepted")
	}
}

// sameBits compares trajectories bit for bit (NaN equals itself).
func sameBits(a, b CellTrajectory) bool {
	if len(a) != len(b) {
		return false
	}
	bits := math.Float64bits
	for i := range a {
		if a[i].Tower != b[i].Tower || bits(a[i].P.X) != bits(b[i].P.X) ||
			bits(a[i].P.Y) != bits(b[i].P.Y) || bits(a[i].T) != bits(b[i].T) {
			return false
		}
	}
	return true
}

// FuzzSanitize feeds arbitrary point patterns through every mode and
// asserts the invariants: no panic, strict never mutates, drop output
// is finite with strictly increasing timestamps. It is also the oracle
// of the one sanitize rule: Admit run point by point, as a
// StreamMatcher runs it, keeps the same points, reports the same counts
// and fails with the same error text as Sanitize.
func FuzzSanitize(f *testing.F) {
	f.Add(float64(1), float64(2), float64(3), float64(4), uint8(0))
	f.Add(math.NaN(), float64(0), math.Inf(1), float64(-1), uint8(1))
	f.Add(float64(0), float64(0), float64(0), float64(0), uint8(2))
	f.Add(float64(5), float64(6), float64(9), float64(8), uint8(1))
	f.Fuzz(func(t *testing.T, x, y, t0, t1 float64, mode uint8) {
		ct := CellTrajectory{
			{P: geo.Pt(x, y), T: t0},
			{P: geo.Pt(y, x), T: t1},
			{P: geo.Pt(x+1, y-1), T: t1},
			{P: geo.Pt(x, y+1), T: t0 + 1},
		}
		m := SanitizeMode(mode % 3)
		out, rep, err := Sanitize(ct, m)

		var srep SanitizeReport
		lastT := math.Inf(-1)
		var kept CellTrajectory
		var serr error
		for i, p := range ct {
			keep, err := srep.Admit(m, i, p, &lastT)
			if err != nil {
				serr = err
				break
			}
			if keep {
				kept = append(kept, p)
			}
		}
		if (err == nil) != (serr == nil) || err != nil && err.Error() != serr.Error() {
			t.Fatalf("Sanitize error %v, point-by-point Admit error %v", err, serr)
		}
		if err == nil && (!sameBits(out, kept) || rep != srep) {
			t.Fatalf("Sanitize kept %v (%+v), point-by-point Admit %v (%+v)", out, rep, kept, srep)
		}
		if m == SanitizeStrict && err == nil {
			// Accepted strictly: every point must be finite and ordered.
			last := math.Inf(-1)
			for _, p := range out {
				if !finitePoint(p) || p.T <= last {
					t.Fatalf("strict accepted malformed point %+v", p)
				}
				last = p.T
			}
		}
		if m == SanitizeDrop {
			if err != nil {
				t.Fatalf("drop mode errored: %v", err)
			}
			if len(out)+rep.Dropped() != len(ct) {
				t.Fatalf("drop accounting: %d out + %d dropped != %d in", len(out), rep.Dropped(), len(ct))
			}
			last := math.Inf(-1)
			for _, p := range out {
				if !finitePoint(p) || p.T <= last {
					t.Fatalf("drop output kept malformed point %+v", p)
				}
				last = p.T
			}
		}
	})
}
