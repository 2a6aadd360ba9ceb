package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

// The session checkpointer: per-session dirty tracking plus an async
// writer that persists lhmm-session/v3 snapshots to a crash-safe
// on-disk store, so a SIGKILL, OOM, or deploy restart never loses an
// in-flight streaming trajectory.
//
// Crash-consistency protocol, per snapshot:
//
//  1. encode under the session's writer lock (pushes are serialized
//     out, so the bytes are a consistent point-in-time state)
//  2. write to <shard>/<id>.ckpt.tmp
//  3. fsync the temp file (the bytes are durable before they are
//     visible)
//  4. rename onto <shard>/<id>.ckpt (atomic on POSIX: readers see the
//     old complete snapshot or the new complete snapshot, never a
//     torn one)
//  5. fsync the shard directory (the rename itself is durable)
//
// A crash between any two steps leaves either the previous snapshot
// intact or a stray .tmp that recovery deletes. The CRC footer inside
// the format catches the remaining hardware-level corruption; recovery
// quarantines, never crashes.
//
// The writer is a single goroutine fed by a bounded queue: sessions
// enqueue at most once (a queued flag), overflow is dropped and
// retried by the next periodic sweep, and write failures back off and
// retry before declaring the store sick. A sick store flips the
// serve.ckpt.degraded gauge and the server keeps serving from memory —
// durability degrades, availability does not.

// Checkpoint telemetry.
var (
	obsCkptWrites      = obs.Default.Counter("serve.ckpt.writes")
	obsCkptWriteErrors = obs.Default.Counter("serve.ckpt.write.errors")
	obsCkptBytes       = obs.Default.Counter("serve.ckpt.bytes")
	obsCkptRemoved     = obs.Default.Counter("serve.ckpt.removed")
	obsCkptRestored    = obs.Default.Counter("serve.ckpt.restored")
	obsCkptQuarantined = obs.Default.Counter("serve.ckpt.quarantined")
	obsCkptQueueDrops  = obs.Default.Counter("serve.ckpt.queue.drops")
	// obsCkptLag is the number of sessions whose live state is ahead of
	// their durable snapshot, refreshed on every sweep.
	obsCkptLag = obs.Default.Gauge("serve.ckpt.lag")
	// obsCkptDegraded is 1 while the store is sick (writes exhausted
	// their retries) and checkpoints are best-effort only.
	obsCkptDegraded = obs.Default.Gauge("serve.ckpt.degraded")
	// obsSessCkptGC counts checkpoints deleted because the TTL janitor
	// expired their session (the fix that keeps the store bounded).
	obsSessCkptGC = obs.Default.Counter("serve.sessions.ckpt.gc")
)

// Checkpointer failpoints (chaos tests; no-op unless armed).
var (
	// fpCkptWrite fails the temp-file write.
	fpCkptWrite = faultinject.New("serve.ckpt.write")
	// fpCkptFsync fails the pre-rename fsync.
	fpCkptFsync = faultinject.New("serve.ckpt.fsync")
	// fpCkptCorrupt flips a byte mid-snapshot before writing, simulating
	// storage corruption the CRC footer must catch at restore.
	fpCkptCorrupt = faultinject.New("serve.ckpt.corrupt")
)

const (
	ckptExt       = ".ckpt"
	ckptTmpExt    = ".ckpt.tmp"
	quarantineDir = "quarantine"

	// checkpointQueue bounds the async write queue. Overflow is dropped:
	// the periodic sweep re-enqueues still-dirty sessions.
	checkpointQueue = 256
	// checkpointRetries is how many times a failed write is retried
	// with backoff before the store is declared sick.
	checkpointRetries = 3
)

// CheckpointConfig parameterizes the session checkpointer. Dir == ""
// disables checkpointing entirely (the default: zero cost on the
// serving paths beyond one nil check).
type CheckpointConfig struct {
	// Dir is the checkpoint store root; per-shard subdirectories and a
	// quarantine directory are created under it.
	Dir string
	// Interval is the periodic dirty-session sweep cadence (default 5s).
	Interval time.Duration
	// Backoff is the base retry delay, doubled per attempt (default
	// 50ms).
	Backoff time.Duration
}

func (c CheckpointConfig) withDefaults() CheckpointConfig {
	if c.Interval <= 0 {
		c.Interval = 5 * time.Second
	}
	if c.Backoff <= 0 {
		c.Backoff = 50 * time.Millisecond
	}
	return c
}

// Checkpointer persists streaming sessions to disk and restores them
// at boot. One writer goroutine owns all disk I/O.
type Checkpointer struct {
	cfg CheckpointConfig
	mgr *SessionManager

	queue chan *Session

	stopOnce sync.Once
	stopCh   chan struct{}
	doneCh   chan struct{}

	sickMu sync.Mutex
	sick   bool
}

// NewCheckpointer creates the store layout (shard + quarantine
// directories) under cfg.Dir and returns a checkpointer over mgr. The
// writer goroutine starts only via Start.
func NewCheckpointer(cfg CheckpointConfig, mgr *SessionManager) (*Checkpointer, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("serve: checkpoint: empty directory")
	}
	for i := 0; i < sessionShards; i++ {
		if err := os.MkdirAll(filepath.Join(cfg.Dir, shardDirName(i)), 0o755); err != nil {
			return nil, fmt.Errorf("serve: checkpoint: %w", err)
		}
	}
	if err := os.MkdirAll(filepath.Join(cfg.Dir, quarantineDir), 0o755); err != nil {
		return nil, fmt.Errorf("serve: checkpoint: %w", err)
	}
	return &Checkpointer{
		cfg:    cfg,
		mgr:    mgr,
		queue:  make(chan *Session, checkpointQueue),
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
	}, nil
}

// shardDirName names the per-shard directory of shard i.
func shardDirName(i int) string { return fmt.Sprintf("%02x", i) }

// path returns the snapshot path for a session ID (sharded exactly
// like the in-memory session map).
func (c *Checkpointer) path(id string) string {
	return filepath.Join(c.cfg.Dir, shardDirName(int(shardIndex(id))), id+ckptExt)
}

// Start launches the writer goroutine (periodic sweeps + queue
// draining). Stop halts it.
func (c *Checkpointer) Start() {
	go func() {
		defer close(c.doneCh)
		t := time.NewTicker(c.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-c.stopCh:
				// Drain whatever is already queued so Stop after a sweep
				// does not strand accepted work.
				for {
					select {
					case s := <-c.queue:
						c.persist(s)
					default:
						return
					}
				}
			case s := <-c.queue:
				c.persist(s)
			case <-t.C:
				c.sweep()
			}
		}
	}()
}

// Stop halts the writer after draining already-queued work.
func (c *Checkpointer) Stop() {
	c.stopOnce.Do(func() { close(c.stopCh) })
	<-c.doneCh
}

// enqueue schedules an async checkpoint of s. Deduplicated: a session
// already queued is not queued twice; a full queue drops (counted) and
// the periodic sweep retries, because the session stays dirty.
func (c *Checkpointer) enqueue(s *Session) {
	if !s.ckptQueued.CompareAndSwap(false, true) {
		return
	}
	select {
	case c.queue <- s:
	default:
		s.ckptQueued.Store(false)
		obsCkptQueueDrops.Inc()
	}
}

// sweep enqueues every dirty session and refreshes the lag gauge.
func (c *Checkpointer) sweep() {
	dirty := int64(0)
	c.mgr.forEach(func(s *Session) {
		if s.ckptDirty() {
			dirty++
			c.enqueue(s)
		}
	})
	obsCkptLag.Set(dirty)
}

// SweepSync checkpoints every dirty session and blocks until all of
// them are durable (graceful drain, SIGUSR2 handover) or ctx expires
// (e.g. the store is sick and writes keep failing).
func (c *Checkpointer) SweepSync(ctx context.Context) error {
	for {
		dirty := int64(0)
		c.mgr.forEach(func(s *Session) {
			if s.ckptDirty() {
				dirty++
				c.enqueue(s)
			}
		})
		obsCkptLag.Set(dirty)
		if dirty == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("serve: checkpoint sweep: %d sessions still dirty: %w", dirty, ctx.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// persist encodes one session's snapshot and commits it to disk.
func (c *Checkpointer) persist(s *Session) {
	// Clear the queued flag before encoding: a push landing during the
	// write re-queues the session rather than being lost.
	s.ckptQueued.Store(false)
	data, seq, err := s.encodeSnapshot()
	if err != nil {
		if errors.Is(err, errSessionNotFound) {
			return // finished while queued; its checkpoint is removed elsewhere
		}
		obsCkptWriteErrors.Inc()
		obs.Logger().Warn("serve: checkpoint encode failed", "session", s.ID, "err", err)
		return
	}
	c.commit(s, data, seq)
}

// commit durably writes an encoded snapshot, with bounded
// retry/backoff. Exhausted retries mark the store sick and leave the
// session dirty for the next sweep. A session that left the manager
// since it was encoded is not written: its Remove has deleted the
// snapshot, and a file renamed into place afterwards is one nothing
// would delete and the next boot would restore.
func (c *Checkpointer) commit(s *Session, data []byte, seq uint64) {
	backoff := c.cfg.Backoff
	for attempt := 0; ; attempt++ {
		gone, err := c.writeLive(s, data)
		if gone {
			return
		}
		if err == nil {
			break
		}
		obsCkptWriteErrors.Inc()
		if attempt >= checkpointRetries {
			c.setSick(true, err)
			return
		}
		select {
		case <-c.stopCh:
			return
		case <-time.After(backoff):
		}
		backoff *= 2
	}
	c.setSick(false, nil)
	s.ckptSeq.Store(seq)
	obsCkptWrites.Inc()
	obsCkptBytes.Add(int64(len(data)))
}

// writeLive writes the snapshot unless Remove has run for the session,
// under the lock Remove deletes the file under.
func (c *Checkpointer) writeLive(s *Session, data []byte) (gone bool, err error) {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	if s.ckptGone {
		return true, nil
	}
	return false, c.writeSnapshot(s.ID, data)
}

// writeSnapshot runs the temp-file + fsync + atomic-rename protocol
// for one snapshot.
func (c *Checkpointer) writeSnapshot(id string, data []byte) error {
	if fpCkptCorrupt.Fail() {
		data = append([]byte(nil), data...)
		data[len(data)/2] ^= 0xFF
	}
	final := c.path(id)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if fpCkptWrite.Fail() {
		err = fmt.Errorf("serve: checkpoint write: fault injected: %s", fpCkptWrite.Name())
	} else {
		_, err = f.Write(data)
	}
	if err == nil {
		if fpCkptFsync.Fail() {
			err = fmt.Errorf("serve: checkpoint fsync: fault injected: %s", fpCkptFsync.Name())
		} else {
			err = f.Sync()
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp) //nolint:errcheck // best-effort cleanup of a failed write
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp) //nolint:errcheck // best-effort cleanup
		return err
	}
	return syncDir(filepath.Dir(final))
}

// syncDir fsyncs a directory so a completed rename survives power
// loss. Filesystems that refuse fsync on directories are tolerated.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		return err
	}
	return nil
}

// setSick flips the degraded-but-serving state. Transitions are
// logged once, not per failed write.
func (c *Checkpointer) setSick(sick bool, cause error) {
	c.sickMu.Lock()
	defer c.sickMu.Unlock()
	if sick == c.sick {
		return
	}
	c.sick = sick
	if sick {
		obsCkptDegraded.Set(1)
		obs.Logger().Warn("serve: checkpoint store sick; serving without durability", "err", cause)
	} else {
		obsCkptDegraded.Set(0)
		obs.Logger().Info("serve: checkpoint store recovered")
	}
}

// Sick reports whether the store is currently degraded.
func (c *Checkpointer) Sick() bool {
	c.sickMu.Lock()
	defer c.sickMu.Unlock()
	return c.sick
}

// Remove deletes the snapshot of a session that left the manager
// (finish, explicit delete, TTL expiry) and stops any write of it
// still in flight from landing afterwards. Missing files are fine —
// short sessions may finish before their first checkpoint.
func (c *Checkpointer) Remove(s *Session, expired bool) {
	s.ckptMu.Lock()
	s.ckptGone = true
	err := os.Remove(c.path(s.ID))
	s.ckptMu.Unlock()
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			obs.Logger().Warn("serve: checkpoint remove failed", "session", s.ID, "err", err)
		}
		return
	}
	obsCkptRemoved.Inc()
	if expired {
		obsSessCkptGC.Inc()
	}
}

// Recover scans the store and restores every decodable snapshot as a
// live session in the manager. Snapshots that cannot be trusted —
// truncated, bit-flipped, version-skewed, stale beyond ttl, belonging
// to a different model, or filed under the wrong name — are moved to
// the quarantine directory with a reason suffix, never deleted and
// never fatal. Stray .tmp files from interrupted writes are removed.
// Call before Start, with no traffic flowing.
func (c *Checkpointer) Recover(m *core.Model, wh [32]byte, now time.Time, ttl time.Duration) (restored, quarantined int) {
	for i := 0; i < sessionShards; i++ {
		dir := filepath.Join(c.cfg.Dir, shardDirName(i))
		entries, err := os.ReadDir(dir)
		if err != nil {
			obs.Logger().Warn("serve: checkpoint recovery: unreadable shard", "dir", dir, "err", err)
			continue
		}
		for _, e := range entries {
			name := e.Name()
			full := filepath.Join(dir, name)
			if strings.HasSuffix(name, ckptTmpExt) {
				os.Remove(full) //nolint:errcheck // stray temp from an interrupted write
				continue
			}
			if e.IsDir() || !strings.HasSuffix(name, ckptExt) {
				continue
			}
			id := strings.TrimSuffix(name, ckptExt)
			switch ok, reason := c.restoreOne(full, id, m, wh, now, ttl); {
			case reason != "":
				c.quarantine(full, name, reason)
				quarantined++
			case ok:
				restored++
			}
		}
	}
	obsCkptRestored.Add(int64(restored))
	obsCkptQuarantined.Add(int64(quarantined))
	if restored > 0 || quarantined > 0 {
		obs.Logger().Info("serve: checkpoint recovery", "restored", restored, "quarantined", quarantined)
	}
	return restored, quarantined
}

// restoreOne decodes and adopts one snapshot file. It returns
// (true, "") when the session is live again, (false, reason) when the
// file must be quarantined, and (false, "") when the snapshot is fine
// but cannot be adopted right now (cap, duplicate) and stays on disk.
func (c *Checkpointer) restoreOne(path, id string, m *core.Model, wh [32]byte, now time.Time, ttl time.Duration) (bool, string) {
	if ttl > 0 {
		if fi, err := os.Stat(path); err == nil && now.Sub(fi.ModTime()) > ttl {
			// The session would have been TTL-evicted had the process
			// lived; restoring it would resurrect abandoned state.
			return false, "stale"
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return false, "unreadable"
	}
	snap, err := core.DecodeStreamSnapshot(m, wh, data)
	switch {
	case err == nil:
	case errors.Is(err, core.ErrSnapshotVersion):
		return false, "version"
	case errors.Is(err, core.ErrSnapshotMismatch):
		return false, "mismatch"
	default:
		return false, "corrupt"
	}
	if snap.ID != id {
		// The snapshot is internally valid but filed under another
		// session's name — trust neither.
		return false, "idmismatch"
	}
	sess := newRestoredSession(snap, wh, now)
	if err := c.mgr.adopt(sess, now); err != nil {
		// Cap reached or duplicate ID: leave the file in place for a
		// later boot instead of quarantining a perfectly good snapshot.
		obs.Logger().Warn("serve: checkpoint recovery: cannot adopt session", "session", id, "err", err)
		return false, ""
	}
	return true, ""
}

// quarantine moves a rejected snapshot aside, tagged with the reason.
func (c *Checkpointer) quarantine(path, name, reason string) {
	dst := filepath.Join(c.cfg.Dir, quarantineDir, name+"."+reason)
	if err := os.Rename(path, dst); err != nil {
		obs.Logger().Warn("serve: checkpoint quarantine failed", "file", path, "err", err)
		return
	}
	obs.Logger().Warn("serve: quarantined snapshot", "file", name, "reason", reason)
}
