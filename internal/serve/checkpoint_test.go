package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/traj"
)

// ckptConfig is a checkpointing server config with the periodic timer
// effectively off — tests drive sweeps explicitly for determinism.
func ckptConfig(dir string) Config {
	return Config{Checkpoint: CheckpointConfig{
		Dir:      dir,
		Interval: time.Hour,
		Backoff:  time.Millisecond,
	}}
}

// ckptServer builds a checkpoint-enabled server the test closes
// itself (crash tests need servers whose lifetime ends mid-test).
func ckptServer(t *testing.T, m *core.Model, dir string) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(staticRegistry(t, m), ckptConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	return s, httptest.NewServer(s.Handler())
}

func createSession(t *testing.T, url string, lag int) string {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/sessions", SessionRequest{Lag: &lag})
	if resp.StatusCode != 200 {
		t.Fatalf("create: %d (%s)", resp.StatusCode, body)
	}
	var sr SessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	return sr.ID
}

func pushPoints(t *testing.T, url, id string, pts traj.CellTrajectory) {
	t.Helper()
	req := PushRequest{}
	for _, p := range pts {
		req.Points = append(req.Points, Point{Tower: int(p.Tower), X: p.P.X, Y: p.P.Y, T: p.T})
	}
	resp, body := postJSON(t, url+"/v1/sessions/"+id+"/points", req)
	if resp.StatusCode != 200 {
		t.Fatalf("push: %d (%s)", resp.StatusCode, body)
	}
}

func finishSession(t *testing.T, url, id string) []byte {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/sessions/"+id+"/finish", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("finish: %d (%s)", resp.StatusCode, body)
	}
	return body
}

func sweepNow(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.CheckpointSweep(ctx); err != nil {
		t.Fatal(err)
	}
}

// The acceptance test for crash recovery: SIGKILL-style abandonment of
// a server mid-stream, restart over the same store, and the restored
// session — continued over HTTP with the remaining points — finishes
// with a response byte-identical to an uninterrupted session on a
// server that never crashed.
func TestCheckpointRestartRecovery(t *testing.T) {
	_, m := fixture(t)
	tr := sessionTrip(t)
	half := len(tr) / 2
	dir := t.TempDir()

	// Uninterrupted baseline (no checkpointing involved at all).
	_, baseTS := testServer(t, m, Config{})
	baseID := createSession(t, baseTS.URL, 2)
	pushPoints(t, baseTS.URL, baseID, tr)
	want := finishSession(t, baseTS.URL, baseID)

	// Server A: push half, make it durable, then "crash" — no drain, no
	// finish, just gone.
	srvA, tsA := ckptServer(t, m, dir)
	id := createSession(t, tsA.URL, 2)
	pushPoints(t, tsA.URL, id, tr[:half])
	sweepNow(t, srvA)
	ckptPath := srvA.ckpt.path(id)
	if _, err := os.Stat(ckptPath); err != nil {
		t.Fatalf("no checkpoint after sweep: %v", err)
	}
	tsA.Close()
	srvA.Close()

	// Server B boots over the same store and must already hold the
	// session.
	srvB, tsB := ckptServer(t, m, dir)
	defer func() { tsB.Close(); srvB.Close() }()
	if n := srvB.Sessions().Len(); n != 1 {
		t.Fatalf("recovered %d sessions, want 1", n)
	}
	if _, err := srvB.Sessions().Get(id); err != nil {
		t.Fatalf("restored session not resolvable: %v", err)
	}
	pushPoints(t, tsB.URL, id, tr[half:])
	got := finishSession(t, tsB.URL, id)
	if !bytes.Equal(got, want) {
		t.Fatalf("restored finish differs from uninterrupted run:\n got %s\nwant %s", got, want)
	}
	// Finishing removed the checkpoint — the store does not outlive its
	// sessions.
	if _, err := os.Stat(ckptPath); !os.IsNotExist(err) {
		t.Fatalf("checkpoint survives finish: %v", err)
	}
}

// A snapshot encoded while its session was live must not reach the
// store once the session has left the manager: Remove has already
// deleted the file, so a late rename would leave a snapshot nothing
// ever deletes and the next boot restores. The schedule is fixed, not
// raced: encode, let the session leave, then commit the stale bytes —
// the writer goroutine is never started, so nothing else touches the
// store.
func TestCheckpointNoOrphanAfterSessionLeaves(t *testing.T) {
	_, m := fixture(t)
	tr := sessionTrip(t)
	for name, leave := range map[string]func(*SessionManager, *Session){
		"finish": func(mgr *SessionManager, s *Session) {
			if _, err := s.finish(); err != nil {
				t.Fatal(err)
			}
			mgr.Remove(s.ID)
		},
		"delete": func(mgr *SessionManager, s *Session) { mgr.Remove(s.ID) },
		"ttl eviction": func(mgr *SessionManager, s *Session) {
			if n := mgr.Sweep(time.Now().Add(24 * time.Hour)); n != 1 {
				t.Fatalf("janitor evicted %d sessions, want 1", n)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := ckptConfig(dir).Checkpoint
			mgr := NewSessionManager(8, time.Minute)
			ck, err := NewCheckpointer(cfg, mgr)
			if err != nil {
				t.Fatal(err)
			}
			mgr.onRemove = ck.Remove
			var wh [32]byte
			s, err := mgr.Create(m, wh, 2, time.Now())
			if err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := s.push(tr[:3], time.Now()); err != nil {
				t.Fatal(err)
			}
			// A first checkpoint, so the leave has a real file to delete.
			ck.persist(s)
			if _, err := os.Stat(ck.path(s.ID)); err != nil {
				t.Fatalf("no checkpoint after persist: %v", err)
			}
			if _, _, _, err := s.push(tr[3:5], time.Now()); err != nil {
				t.Fatal(err)
			}
			data, seq, err := s.encodeSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			leave(mgr, s)
			ck.commit(s, data, seq)
			if _, err := os.Stat(ck.path(s.ID)); !os.IsNotExist(err) {
				t.Fatalf("snapshot written after the session left: %v", err)
			}
			// The next boot finds nothing to restore.
			mgr2 := NewSessionManager(8, time.Minute)
			ck2, err := NewCheckpointer(cfg, mgr2)
			if err != nil {
				t.Fatal(err)
			}
			if restored, quarantined := ck2.Recover(m, wh, time.Now(), time.Minute); restored != 0 || quarantined != 0 {
				t.Fatalf("restart restored %d and quarantined %d sessions, want 0 and 0", restored, quarantined)
			}
		})
	}
}

// A push that fails on a dead point (the default error break policy)
// leaves a session the checkpointer can still encode — its on-push
// checkpoint and a sweep both run, the first in the writer goroutine,
// where a panic would take the process down — and that later pushes
// extend: the next push answers 200, and finish reports the point dead.
func TestCheckpointAfterFailedPush(t *testing.T) {
	_, m := fixture(t)
	tr := sessionTrip(t)
	srv, ts := ckptServer(t, m, t.TempDir())
	defer func() { ts.Close(); srv.Close() }()
	t.Cleanup(faultinject.DisarmAll)

	id := createSession(t, ts.URL, 2)
	pushPoints(t, ts.URL, id, tr[:1])
	if err := faultinject.Arm("hmm.candidates.empty"); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/sessions/"+id+"/points", PushRequest{Points: PointsRequest(tr[1:2]).Points})
	faultinject.DisarmAll()
	if resp.StatusCode < 500 {
		t.Fatalf("push of a dead point: %d (%s), want 5xx", resp.StatusCode, body)
	}
	sweepNow(t, srv)
	pushPoints(t, ts.URL, id, tr[2:3])
	var fin MatchResponse
	if err := json.Unmarshal(finishSession(t, ts.URL, id), &fin); err != nil {
		t.Fatal(err)
	}
	if len(fin.Matched) != 3 || fin.Matched[0].Dead || !fin.Matched[1].Dead || fin.Matched[2].Dead {
		t.Fatalf("finish after a failed push: %+v, want 3 points with only point 1 dead", fin.Matched)
	}
}

// sessionTrip returns a streaming-suitable trip from the shared
// fixture dataset.
func sessionTrip(t *testing.T) traj.CellTrajectory {
	t.Helper()
	ds, _ := fixture(t)
	tr := ds.TestTrips()[0].Cell
	if len(tr) < 6 {
		t.Skip("fixture trip too short")
	}
	return tr
}

// The TTL janitor deletes the on-disk checkpoint along with the
// session and counts it on the gc counter, so abandoned devices cannot
// grow the store forever.
func TestCheckpointTTLEvictionGC(t *testing.T) {
	_, m := fixture(t)
	tr := sessionTrip(t)
	dir := t.TempDir()

	srv, ts := ckptServer(t, m, dir)
	defer func() { ts.Close(); srv.Close() }()
	id := createSession(t, ts.URL, 2)
	pushPoints(t, ts.URL, id, tr[:3])
	sweepNow(t, srv)
	path := srv.ckpt.path(id)
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}

	gcBefore := obsSessCkptGC.Value()
	if n := srv.Sessions().Sweep(time.Now().Add(24 * time.Hour)); n != 1 {
		t.Fatalf("janitor evicted %d sessions, want 1", n)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("checkpoint survives TTL eviction: %v", err)
	}
	if got := obsSessCkptGC.Value() - gcBefore; got != 1 {
		t.Fatalf("sessions.ckpt.gc delta = %d, want 1", got)
	}
}

// DELETE /v1/sessions/{id} also deletes the snapshot.
func TestCheckpointDeleteRemovesSnapshot(t *testing.T) {
	_, m := fixture(t)
	tr := sessionTrip(t)
	dir := t.TempDir()

	srv, ts := ckptServer(t, m, dir)
	defer func() { ts.Close(); srv.Close() }()
	id := createSession(t, ts.URL, 2)
	pushPoints(t, ts.URL, id, tr[:3])
	sweepNow(t, srv)
	path := srv.ckpt.path(id)
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("DELETE", ts.URL+"/v1/sessions/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 204 {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("checkpoint survives delete: %v", err)
	}
}

// Boot-time recovery quarantines what it cannot trust — corrupt bytes,
// version skew, other-model snapshots — and removes stray temp files,
// without ever refusing to boot.
func TestCheckpointRecoveryQuarantine(t *testing.T) {
	_, m := fixture(t)
	tr := sessionTrip(t)
	dir := t.TempDir()

	// Produce one good snapshot, then corrupt a copy of it under a
	// different session ID, plus a stray temp file.
	srvA, tsA := ckptServer(t, m, dir)
	id := createSession(t, tsA.URL, 2)
	pushPoints(t, tsA.URL, id, tr[:4])
	sweepNow(t, srvA)
	good, err := os.ReadFile(srvA.ckpt.path(id))
	if err != nil {
		t.Fatal(err)
	}
	tsA.Close()
	srvA.Close()

	bad := append([]byte(nil), good...)
	bad[len(bad)/3] ^= 0xFF
	badPath := filepath.Join(dir, shardDirName(int(shardIndex("deadbeef"))), "deadbeef"+ckptExt)
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	// A structurally valid snapshot filed under the wrong session name
	// must not be adopted either.
	alias := filepath.Join(dir, shardDirName(int(shardIndex("impostor"))), "impostor"+ckptExt)
	if err := os.WriteFile(alias, good, 0o644); err != nil {
		t.Fatal(err)
	}
	// A file in the previous wire version (lhmm-session/v2, which
	// carried no pseudo flag and no open shortcut window) is refused on
	// its version.
	old := append([]byte(nil), good...)
	binary.LittleEndian.PutUint16(old[8:], 2)
	binary.LittleEndian.PutUint32(old[len(old)-4:],
		crc32.Checksum(old[:len(old)-4], crc32.MakeTable(crc32.Castagnoli)))
	oldPath := filepath.Join(dir, shardDirName(int(shardIndex("oldformat"))), "oldformat"+ckptExt)
	if err := os.WriteFile(oldPath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, shardDirName(0), "leftover"+ckptTmpExt)
	if err := os.WriteFile(stray, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	srvB, tsB := ckptServer(t, m, dir)
	defer func() { tsB.Close(); srvB.Close() }()
	if n := srvB.Sessions().Len(); n != 1 {
		t.Fatalf("recovered %d sessions, want only the good one", n)
	}
	if _, err := srvB.Sessions().Get(id); err != nil {
		t.Fatalf("good session not restored: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, "deadbeef"+ckptExt+".corrupt")); err != nil {
		t.Fatalf("corrupt snapshot not quarantined: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, "impostor"+ckptExt+".idmismatch")); err != nil {
		t.Fatalf("aliased snapshot not quarantined: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, "oldformat"+ckptExt+".version")); err != nil {
		t.Fatalf("version-2 snapshot not quarantined: %v", err)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("stray temp file survives recovery: %v", err)
	}
}

// Write faults exhaust their retries, flip the store into degraded
// mode, and the server keeps serving; once the fault clears, the next
// sweep heals the store and persists the session.
func TestCheckpointDegradedModeAndHeal(t *testing.T) {
	_, m := fixture(t)
	tr := sessionTrip(t)
	dir := t.TempDir()

	srv, ts := ckptServer(t, m, dir)
	defer func() { ts.Close(); srv.Close() }()
	id := createSession(t, ts.URL, 2)

	// Arm before the first push: every write attempt — including the
	// push-triggered async one — fails until disarmed.
	faultinject.DisarmAll()
	defer faultinject.DisarmAll()
	if err := faultinject.Arm(fpCkptWrite.Name()); err != nil {
		t.Fatal(err)
	}
	pushPoints(t, ts.URL, id, tr[:3])
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	err := srv.CheckpointSweep(ctx)
	cancel()
	if err == nil {
		t.Fatal("sweep under a persistent write fault reported success")
	}
	if !srv.ckpt.Sick() {
		t.Fatal("store not degraded after exhausting write retries")
	}
	// Serving continues while degraded.
	pushPoints(t, ts.URL, id, tr[3:4])

	faultinject.DisarmAll()
	sweepNow(t, srv)
	if srv.ckpt.Sick() {
		t.Fatal("store still degraded after the fault cleared")
	}
	if _, err := os.Stat(srv.ckpt.path(id)); err != nil {
		t.Fatalf("no checkpoint after healing: %v", err)
	}
}

// A transient write fault (every 2nd attempt) is absorbed by the
// retry loop without ever entering degraded mode. persist is driven
// synchronously — no Start — so the failing attempt lands
// deterministically on the second write.
func TestCheckpointWriteRetry(t *testing.T) {
	_, m := fixture(t)
	tr := sessionTrip(t)

	mgr := NewSessionManager(4, time.Minute)
	ck, err := NewCheckpointer(CheckpointConfig{Dir: t.TempDir(), Backoff: time.Millisecond}, mgr)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	s, err := mgr.Create(m, [32]byte{}, 1, now)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.push(tr[:3], now); err != nil {
		t.Fatal(err)
	}

	faultinject.DisarmAll()
	defer faultinject.DisarmAll()
	if err := faultinject.Arm(fpCkptWrite.Name() + ":2"); err != nil {
		t.Fatal(err)
	}
	ck.persist(s) // write hit 1: clean
	if s.ckptDirty() {
		t.Fatal("session dirty after first persist")
	}
	if _, _, _, err := s.push(tr[3:4], now); err != nil {
		t.Fatal(err)
	}
	errsBefore := obsCkptWriteErrors.Value()
	ck.persist(s) // write hit 2 fails, retry hit 3 succeeds
	if s.ckptDirty() {
		t.Fatal("session dirty after retried persist")
	}
	if ck.Sick() {
		t.Fatal("transient fault degraded the store")
	}
	if got := obsCkptWriteErrors.Value() - errsBefore; got != 1 {
		t.Fatalf("write.errors delta = %d, want 1 (exactly one retried attempt)", got)
	}
	if _, err := os.Stat(ck.path(s.ID)); err != nil {
		t.Fatalf("no checkpoint after retried write: %v", err)
	}
}

// A failed fsync of the temp file commits nothing: the live snapshot
// keeps the previous state's bytes (the rename comes only after a
// clean fsync) and the temp file is removed. The failpoint fires on
// every hit until disarmed, so each retry fails too and the store goes
// sick; the next sweep's write then lands the new state and heals it.
// persist is driven synchronously, as in TestCheckpointWriteRetry, so
// the store can be read between the failed write and the next one.
func TestCheckpointFsyncFailureKeepsPreviousSnapshot(t *testing.T) {
	_, m := fixture(t)
	tr := sessionTrip(t)
	obs.Default.Enable() // no server here turns the counters on

	mgr := NewSessionManager(4, time.Minute)
	ck, err := NewCheckpointer(CheckpointConfig{Dir: t.TempDir(), Backoff: time.Millisecond}, mgr)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	s, err := mgr.Create(m, [32]byte{}, 1, now)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.push(tr[:3], now); err != nil {
		t.Fatal(err)
	}
	live := ck.path(s.ID)
	ck.persist(s)
	first, err := os.ReadFile(live)
	if err != nil {
		t.Fatalf("first snapshot did not land: %v", err)
	}

	faultinject.DisarmAll()
	defer faultinject.DisarmAll()
	if err := faultinject.Arm(fpCkptFsync.Name()); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.push(tr[3:4], now); err != nil {
		t.Fatal(err)
	}
	errsBefore := obsCkptWriteErrors.Value()
	ck.persist(s) // every attempt fails its fsync
	if got := obsCkptWriteErrors.Value() - errsBefore; got != checkpointRetries+1 {
		t.Fatalf("write.errors delta = %d, want %d (each attempt's fsync failed)", got, checkpointRetries+1)
	}
	if got, err := os.ReadFile(live); err != nil || !bytes.Equal(got, first) {
		t.Fatalf("live snapshot changed under a failed fsync (err %v): a rename ran before the fsync succeeded", err)
	}
	if _, err := os.Stat(live + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left after a failed fsync: %v", err)
	}
	if !s.ckptDirty() || !ck.Sick() {
		t.Fatalf("after the failed attempts: dirty %v, sick %v; want both true", s.ckptDirty(), ck.Sick())
	}

	faultinject.DisarmAll()
	ck.persist(s) // the next sweep's retry
	want, _, err := s.encodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(live); err != nil || !bytes.Equal(got, want) || bytes.Equal(got, first) {
		t.Fatalf("retry did not land the new snapshot (err %v)", err)
	}
	if s.ckptDirty() || ck.Sick() {
		t.Fatalf("after the retry: dirty %v, sick %v; want both false", s.ckptDirty(), ck.Sick())
	}
}

// A checkpoint corrupted on the way to disk (bit rot simulated by the
// corrupt failpoint) is caught by the CRC at the next boot and
// quarantined rather than restored.
func TestCheckpointCorruptionQuarantinedAtBoot(t *testing.T) {
	_, m := fixture(t)
	tr := sessionTrip(t)
	dir := t.TempDir()

	srvA, tsA := ckptServer(t, m, dir)
	id := createSession(t, tsA.URL, 2)
	// Armed before the push, so the async persist triggered by it (or
	// the final drain in Stop) silently writes flipped bytes — the
	// failure only the CRC can catch.
	faultinject.DisarmAll()
	defer faultinject.DisarmAll()
	if err := faultinject.Arm(fpCkptCorrupt.Name()); err != nil {
		t.Fatal(err)
	}
	pushPoints(t, tsA.URL, id, tr[:4])
	sweepNow(t, srvA)
	tsA.Close()
	srvA.Close()
	faultinject.DisarmAll()

	srvB, tsB := ckptServer(t, m, dir)
	defer func() { tsB.Close(); srvB.Close() }()
	if n := srvB.Sessions().Len(); n != 0 {
		t.Fatalf("recovered %d sessions from a corrupt store, want 0", n)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, id+ckptExt+".corrupt")); err != nil {
		t.Fatalf("corrupt snapshot not quarantined: %v", err)
	}
}

// Drain's final sweep makes every surviving session durable: a session
// pushed but never explicitly checkpointed is on disk after Drain.
func TestDrainFlushesCheckpoints(t *testing.T) {
	_, m := fixture(t)
	tr := sessionTrip(t)
	dir := t.TempDir()

	srv, ts := ckptServer(t, m, dir)
	defer func() { ts.Close(); srv.Close() }()
	id := createSession(t, ts.URL, 2)
	pushPoints(t, ts.URL, id, tr[:3])

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(srv.ckpt.path(id)); err != nil {
		t.Fatalf("no checkpoint after drain: %v", err)
	}
}
