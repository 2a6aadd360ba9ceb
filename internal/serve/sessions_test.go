package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/hmm"
	"repro/internal/traj"
)

func TestSessionTTLEviction(t *testing.T) {
	_, m := fixture(t)
	sm := NewSessionManager(10, time.Minute)
	t0 := time.Now()

	s1, err := sm.Create(m, [32]byte{}, 1, t0)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sm.Create(m, [32]byte{}, 1, t0)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := sm.Create(m, [32]byte{}, 1, t0)
	if err != nil {
		t.Fatal(err)
	}
	fresh.touch(t0.Add(50 * time.Second))

	if n := sm.Sweep(t0.Add(70 * time.Second)); n != 2 {
		t.Fatalf("evicted %d sessions, want 2", n)
	}
	if sm.Len() != 1 {
		t.Fatalf("%d live sessions after sweep, want 1", sm.Len())
	}
	for _, id := range []string{s1.ID, s2.ID} {
		if _, err := sm.Get(id); !errors.Is(err, errSessionNotFound) {
			t.Fatalf("evicted session %s still resolvable (err %v)", id, err)
		}
	}
	if _, err := sm.Get(fresh.ID); err != nil {
		t.Fatalf("recently touched session evicted: %v", err)
	}
	// Idempotent: a second sweep at the same instant evicts nothing.
	if n := sm.Sweep(t0.Add(70 * time.Second)); n != 0 {
		t.Fatalf("second sweep evicted %d", n)
	}
}

func TestSessionCapRejection(t *testing.T) {
	_, m := fixture(t)
	sm := NewSessionManager(2, time.Minute)
	now := time.Now()

	a, err := sm.Create(m, [32]byte{}, 1, now)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sm.Create(m, [32]byte{}, 1, now); err != nil {
		t.Fatal(err)
	}
	if _, err := sm.Create(m, [32]byte{}, 1, now); !errors.Is(err, errSessionCap) {
		t.Fatalf("create above cap: %v, want errSessionCap", err)
	}
	// Removing one frees a slot.
	sm.Remove(a.ID)
	if _, err := sm.Create(m, [32]byte{}, 1, now); err != nil {
		t.Fatalf("create after removal: %v", err)
	}
}

// The cap maps to 429 at the HTTP layer.
func TestSessionCapHTTP(t *testing.T) {
	_, m := fixture(t)
	_, ts := testServer(t, m, Config{MaxSessions: 1})

	resp, body := postJSON(t, ts.URL+"/v1/sessions", SessionRequest{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first create: %d (%s)", resp.StatusCode, body)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/sessions", SessionRequest{})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("create above cap: %d, want 429", resp.StatusCode)
	}
}

// Concurrent pushes to one session serialize behind its writer lock;
// pushes to distinct sessions proceed independently. Run under -race.
func TestConcurrentSessionPushes(t *testing.T) {
	ds, m := fixture(t)
	// Off-mode sanitization: concurrent pushers interleave timestamps
	// arbitrarily, and this test is about locking, not ordering.
	mm := *m
	mm.Cfg.Sanitize = traj.SanitizeOff
	mm.Cfg.OnBreak = hmm.BreakSkip // dead points must not error the push
	sm := NewSessionManager(64, time.Minute)
	now := time.Now()

	shared, err := sm.Create(&mm, [32]byte{}, 1, now)
	if err != nil {
		t.Fatal(err)
	}
	pts := ds.TestTrips()[0].Cell
	if len(pts) > 8 {
		pts = pts[:8]
	}

	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker pushes to the shared session and to a private
			// one.
			own, err := sm.Create(&mm, [32]byte{}, 1, now)
			if err != nil {
				t.Error(err)
				return
			}
			for _, p := range pts {
				if _, _, _, err := shared.push(traj.CellTrajectory{p}, now); err != nil {
					t.Errorf("shared push: %v", err)
					return
				}
				if _, _, _, err := own.push(traj.CellTrajectory{p}, now); err != nil {
					t.Errorf("own push: %v", err)
					return
				}
			}
			st := own.status()
			if st.Pushed != len(pts) {
				t.Errorf("private session pushed %d, want %d", st.Pushed, len(pts))
			}
		}()
	}
	wg.Wait()

	if st := shared.status(); st.Pushed != workers*len(pts) {
		t.Fatalf("shared session pushed %d, want %d", st.Pushed, workers*len(pts))
	}
	if sm.Len() != 1+workers {
		t.Fatalf("%d live sessions, want %d", sm.Len(), 1+workers)
	}
}

func TestSessionDoubleFinish(t *testing.T) {
	_, m := fixture(t)
	sm := NewSessionManager(4, time.Minute)
	s, err := sm.Create(m, [32]byte{}, 0, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.finish(); !errors.Is(err, errSessionNotFound) {
		t.Fatalf("second finish: %v, want errSessionNotFound", err)
	}
	if _, _, _, err := s.push(nil, time.Now()); !errors.Is(err, errSessionNotFound) {
		t.Fatalf("push after finish: %v, want errSessionNotFound", err)
	}
}

// A point the stream matches to a shortcut pseudo-candidate is reported
// skipped by the session endpoints, on the push that finalizes it and on
// finish, as /v1/match reports a batch match's. Two candidates per point
// make the fixture's shortcut windows adopt.
func TestSessionReportsSkippedPoints(t *testing.T) {
	ds, m := fixture(t)
	mk := *m
	mk.Cfg.K = 2
	_, ts := testServer(t, &mk, Config{DefaultLag: 2})
	var skipped int
	for _, tr := range ds.TestTrips() {
		id := createSession(t, ts.URL, 2)
		var online []MatchedPoint
		for _, p := range PointsRequest(tr.Cell).Points {
			resp, body := postJSON(t, ts.URL+"/v1/sessions/"+id+"/points", PushRequest{Points: []Point{p}})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("push: %d: %s", resp.StatusCode, body)
			}
			var pr PushResponse
			if err := json.Unmarshal(body, &pr); err != nil {
				t.Fatal(err)
			}
			online = append(online, pr.Finalized...)
		}
		var fin MatchResponse
		if err := json.Unmarshal(finishSession(t, ts.URL, id), &fin); err != nil {
			t.Fatal(err)
		}

		sm := mk.NewStream(2)
		for _, p := range tr.Cell {
			if _, err := sm.Push(p); err != nil {
				t.Fatal(err)
			}
		}
		sm.Flush()
		want := sm.Skipped()
		if len(fin.Matched) != len(want) || len(online) != len(want)-2 {
			t.Fatalf("trip %d: %d finalized by pushes, %d by finish, %d offline", tr.ID, len(online), len(fin.Matched), len(want))
		}
		for i, s := range want {
			if fin.Matched[i].Skipped != s || i < len(online) && online[i].Skipped != s {
				t.Fatalf("trip %d point %d: skipped %v offline, push %+v, finish %+v", tr.ID, i, s, online[min(i, len(online)-1)], fin.Matched[i])
			}
			if s && i < len(online) {
				skipped++
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no push finalized a skipped point; the test pins nothing")
	}
}
