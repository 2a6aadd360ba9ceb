package hmm

import (
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// Ablation benches (DESIGN.md §6): shortcut construction cost and the
// step-score memoization's effect on Viterbi.

func benchTrajectory(rng *rand.Rand, n int) traj.CellTrajectory {
	ct := make(traj.CellTrajectory, n)
	x, y := 200.0, 400.0
	for i := 0; i < n; i++ {
		x += 80 + rng.Float64()*120
		y += rng.Float64()*300 - 150
		ct[i] = traj.CellPoint{Tower: -1, P: geo.Pt(x, y), T: float64(i) * 60}
	}
	return ct
}

func benchMatch(b *testing.B, k, shortcuts int) {
	net, r := gridWorld(b, 25, 12)
	m := classicMatcher(net, r, k, shortcuts)
	rng := rand.New(rand.NewSource(7))
	trajs := make([]traj.CellTrajectory, 16)
	for i := range trajs {
		trajs[i] = benchTrajectory(rng, 12)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Match(trajs[i%len(trajs)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatchNoShortcuts(b *testing.B)   { benchMatch(b, 10, 0) }
func BenchmarkMatchOneShortcut(b *testing.B)   { benchMatch(b, 10, 1) }
func BenchmarkMatchFourShortcuts(b *testing.B) { benchMatch(b, 10, 4) }
func BenchmarkMatchLargeK(b *testing.B)        { benchMatch(b, 30, 1) }

// distinctTrans scales Eq. 3 by a factor particular to the road left.
// On a lattice many candidates are the same place — the shared end node
// of several roads — with the same route distances, so a model of
// distance alone ties their two-step scores exactly, as a model that
// looks at the roads of the route (Eq. 11) does not.
type distinctTrans struct{ ExponentialTransition }

func (d *distinctTrans) Score(ct traj.CellTrajectory, i int, from, to *Candidate) (float64, bool) {
	p, ok := d.ExponentialTransition.Score(ct, i, from, to)
	return p * (1 - 1e-6*float64(from.Seg)), ok
}

// shortcutPassFixture is a 12-point trajectory's lattice at k = 30 with
// every forward step done but no shortcut window — what each window
// starts from — and a function that undoes what the windows adopted,
// without allocating.
func shortcutPassFixture(t testing.TB, trans func(*roadnet.Router) TransitionModel) (m *Matcher, ct traj.CellTrajectory, tb *table, reset func()) {
	net, r := gridWorld(t, 25, 12)
	m = classicMatcher(net, r, 30, 1)
	m.Trans = trans(r)
	ct = benchTrajectory(rand.New(rand.NewSource(7)), 12)
	off := *m
	off.Cfg.Shortcuts = 0
	lt := forwardLattice(t, &off, ct)
	orig := cloneTable(lt)
	return m, ct, &lt, func() {
		for i := range orig.f {
			lt.layers[i] = lt.layers[i][:len(orig.layers[i])]
			lt.f[i] = append(lt.f[i][:0], orig.f[i]...)
			lt.pre[i] = append(lt.pre[i][:0], orig.pre[i]...)
		}
	}
}

// shortcutWindows runs the shortcut window of every point over tb, as
// advance runs each after its step.
func shortcutWindows(m *Matcher, ct traj.CellTrajectory, tb *table, deg *int64) (st shortcutStats) {
	for i := 2; i < len(ct); i++ {
		st.add(m.addShortcuts(ct, tb, i, deg))
	}
	return st
}

// BenchmarkShortcutPass is Algorithm 2 alone: the per-point shortcut
// windows over a prebuilt lattice, classical models. A quarter of the
// candidates tie and take the full ranking (see distinctTrans).
func BenchmarkShortcutPass(b *testing.B) {
	m, ct, tb, reset := shortcutPassFixture(b, func(r *roadnet.Router) TransitionModel {
		return &ExponentialTransition{Router: r, Beta: 200}
	})
	var deg int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reset()
		if st := shortcutWindows(m, ct, tb, &deg); st.attempts == 0 {
			b.Fatal("no shortcut attempted")
		}
	}
}

// TestShortcutPassAllocs: the windows' own scratch is allocated per
// match (the column-maxima slice lives in the table). With no tie and nothing adopted, what is left per attempt is
// what locates the pseudo-candidate — the route's segment list and the
// candidate itself, which the models take by pointer — not a ranking
// slice, an index slice and a sort per candidate, nor a second and
// third route for the two step scores.
func TestShortcutPassAllocs(t *testing.T) {
	m, ct, tb, reset := shortcutPassFixture(t, func(r *roadnet.Router) TransitionModel {
		return &distinctTrans{ExponentialTransition{Router: r, Beta: 200}}
	})
	var deg int64
	var st shortcutStats
	allocs := testing.AllocsPerRun(20, func() {
		reset()
		st = shortcutWindows(m, ct, tb, &deg)
	})
	if st.attempts < 100 || st.ties != 0 || st.adoptions != 0 {
		t.Fatalf("fixture: %+v; want hundreds of attempts, no tie, no adoption", st)
	}
	if perMatch := int(allocs) - 2*st.attempts; perMatch > 2 {
		t.Errorf("%v allocations for %d attempts: %d beyond two each, want ≤ 2 per match", allocs, st.attempts, perMatch)
	}
}
