package serve

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/hmm"
	"repro/internal/obs"
	"repro/internal/traj"
)

// Session telemetry.
var (
	obsSessActive   = obs.Default.Gauge("serve.sessions.active")
	obsSessCreated  = obs.Default.Counter("serve.sessions.created")
	obsSessEvicted  = obs.Default.Counter("serve.sessions.evicted")
	obsSessRejected = obs.Default.Counter("serve.sessions.rejected")
)

// fpSessionCreate fails session creation (chaos tests; no-op unless
// armed).
var fpSessionCreate = faultinject.New("serve.session.create")

var (
	// errSessionCap rejects a session create at the configured cap.
	// Mapped to 429 by the handlers.
	errSessionCap = errors.New("serve: session cap reached")
	// errSessionNotFound maps to 404.
	errSessionNotFound = errors.New("serve: no such session")
)

// sessionShards keeps lock contention flat as device counts grow; a
// power of two so the hash maps with a mask.
const sessionShards = 16

// Session is one device's live streaming match: a StreamMatcher plus
// the bookkeeping the manager needs for TTL eviction.
//
// All matcher access is serialized by mu — the StreamMatcher is a
// single-writer state machine, and HTTP gives no ordering between
// concurrent POSTs for the same device, so the manager imposes one.
// Concurrent pushes to one session queue behind the lock; pushes to
// different sessions only share a shard map read.
type Session struct {
	ID string

	mu sync.Mutex
	sm *hmm.StreamMatcher
	// done marks a finished session (kept briefly so a duplicate finish
	// reads as "gone", not a confusing 404-then-recreate).
	done bool

	lastNano atomic.Int64 // last touch, UnixNano; read by the janitor without mu

	// Durability bookkeeping (all no-ops when checkpointing is off).
	// wh is the weights hash of the model this session scores with,
	// stamped into every snapshot; seq counts state-changing pushes and
	// ckptSeq the last durably persisted seq, so seq != ckptSeq is the
	// dirty predicate; ckptQueued dedups the async write queue;
	// finished mirrors done for lock-free dirty checks.
	wh         [32]byte
	seq        atomic.Uint64
	ckptSeq    atomic.Uint64
	ckptQueued atomic.Bool
	finished   atomic.Bool
	// ckptMu orders snapshot writes against the snapshot's removal when
	// the session leaves the manager: a write holds it, and the removal
	// sets ckptGone under it before deleting the file, so no write can
	// land after the delete.
	ckptMu   sync.Mutex
	ckptGone bool
}

func (s *Session) touch(now time.Time) { s.lastNano.Store(now.UnixNano()) }

// ckptDirty reports whether the session has state newer than its last
// durable snapshot. Lock-free: the checkpointer's sweep polls every
// live session.
func (s *Session) ckptDirty() bool {
	return !s.finished.Load() && s.seq.Load() != s.ckptSeq.Load()
}

// encodeSnapshot serializes the session under its writer lock,
// returning the bytes and the seq they capture. A finished session
// returns errSessionNotFound (its checkpoint is being removed, not
// rewritten).
func (s *Session) encodeSnapshot() ([]byte, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return nil, 0, errSessionNotFound
	}
	seq := s.seq.Load()
	data, err := core.EncodeStreamSnapshot(s.sm, s.ID, s.wh)
	return data, seq, err
}

// newRestoredSession wraps a decoded snapshot as a live session. The
// restored state is already durable, so it starts clean (seq ==
// ckptSeq).
func newRestoredSession(snap *core.StreamSnapshot, wh [32]byte, now time.Time) *Session {
	s := &Session{ID: snap.ID, sm: snap.SM, wh: wh}
	s.touch(now)
	return s
}

// push feeds points through the session's matcher under its writer
// lock and reports the newly finalized matches in wire form, the
// drop-mode sanitization count, and the degraded-scoring delta this
// batch caused.
func (s *Session) push(pts traj.CellTrajectory, now time.Time) (fin []MatchedPoint, dropped, degraded int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return nil, 0, 0, errSessionNotFound
	}
	s.touch(now)
	// Any push attempt may change matcher state (points before an
	// error are absorbed), so the session is dirty either way. One
	// atomic add; the scoring path itself is untouched.
	s.seq.Add(1)
	before := s.sm.Sanitize().Dropped()
	degBefore := s.sm.Degraded()
	first := len(s.sm.Matched())
	var out []hmm.Candidate
	for i, p := range pts {
		got, perr := s.sm.Push(p)
		out = append(out, got...)
		if perr != nil {
			err = fmt.Errorf("point %d: %w", i, perr)
			break
		}
	}
	return matchedJSON(out, s.sm.Dead()[first:]), s.sm.Sanitize().Dropped() - before, s.sm.Degraded() - degBefore, err
}

// finish flushes the matcher and returns the complete result view.
// The session is unusable afterwards.
func (s *Session) finish() (MatchResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return MatchResponse{}, errSessionNotFound
	}
	s.done = true
	s.finished.Store(true)
	s.sm.Flush()
	return streamResultJSON(s.sm), nil
}

// status snapshots the session's progress counters.
func (s *Session) status() SessionStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	emitted := len(s.sm.Matched())
	pending := s.sm.Pending()
	return SessionStatus{
		ID:       s.ID,
		Pushed:   emitted + pending,
		Emitted:  emitted,
		Pending:  pending,
		Degraded: s.sm.Degraded(),
	}
}

type sessionShard struct {
	mu sync.Mutex
	m  map[string]*Session
}

// SessionManager owns the live streaming sessions: sharded lookup,
// a global cap, and TTL eviction of idle sessions via a janitor
// goroutine (or explicit Sweep calls in tests).
type SessionManager struct {
	shards [sessionShards]sessionShard
	count  atomic.Int64 // live sessions, bounded by max
	max    int64
	ttl    time.Duration

	// onRemove, when set (before any traffic), observes every session
	// leaving the manager; expired distinguishes TTL eviction from
	// finish/delete. The checkpointer uses it to delete on-disk
	// snapshots so the store cannot outgrow the live session set.
	onRemove func(s *Session, expired bool)

	stopOnce sync.Once
	stopCh   chan struct{}
}

// NewSessionManager creates a manager capping live sessions at max
// (<=0 means 1) and evicting sessions idle longer than ttl. The
// janitor starts only via Start; tests can drive Sweep directly.
func NewSessionManager(max int, ttl time.Duration) *SessionManager {
	if max <= 0 {
		max = 1
	}
	if ttl <= 0 {
		ttl = 5 * time.Minute
	}
	m := &SessionManager{max: int64(max), ttl: ttl, stopCh: make(chan struct{})}
	for i := range m.shards {
		m.shards[i].m = make(map[string]*Session)
	}
	return m
}

// Start launches the TTL janitor; Stop halts it.
func (m *SessionManager) Start() {
	interval := m.ttl / 4
	if interval < time.Second {
		interval = time.Second
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-m.stopCh:
				return
			case now := <-t.C:
				m.Sweep(now)
			}
		}
	}()
}

// Stop halts the janitor. Live sessions are left in place (Close on
// the server discards everything anyway).
func (m *SessionManager) Stop() { m.stopOnce.Do(func() { close(m.stopCh) }) }

// shardIndex maps a session ID to its shard (and to its checkpoint
// directory — the on-disk layout mirrors the in-memory one).
func shardIndex(id string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(id))
	return h.Sum32() & (sessionShards - 1)
}

func (m *SessionManager) shard(id string) *sessionShard {
	return &m.shards[shardIndex(id)]
}

// Create admits a new session backed by a fresh StreamMatcher from
// model. wh is the model's weights hash, stamped into the session's
// snapshots (zero when checkpointing is off — never read then).
// Returns errSessionCap when the manager is full.
func (m *SessionManager) Create(model *core.Model, wh [32]byte, lag int, now time.Time) (*Session, error) {
	if fpSessionCreate.Fail() {
		obsSessRejected.Inc()
		return nil, fmt.Errorf("serve: session create: fault injected: %s", fpSessionCreate.Name())
	}
	id, err := newSessionID()
	if err != nil {
		return nil, err
	}
	s := &Session{ID: id, sm: model.NewStream(lag), wh: wh}
	s.touch(now)
	if err := m.adopt(s, now); err != nil {
		return nil, err
	}
	obsSessCreated.Inc()
	return s, nil
}

// adopt inserts a fully built session (Create, checkpoint recovery)
// under the cap, rejecting duplicates.
func (m *SessionManager) adopt(s *Session, now time.Time) error {
	if m.count.Add(1) > m.max {
		m.count.Add(-1)
		obsSessRejected.Inc()
		return errSessionCap
	}
	sh := m.shard(s.ID)
	sh.mu.Lock()
	if _, dup := sh.m[s.ID]; dup {
		sh.mu.Unlock()
		m.count.Add(-1)
		return fmt.Errorf("serve: duplicate session id %s", s.ID)
	}
	sh.m[s.ID] = s
	sh.mu.Unlock()
	obsSessActive.Set(m.count.Load())
	return nil
}

// forEach visits every live session, one shard lock at a time (the
// checkpointer's sweeps).
func (m *SessionManager) forEach(f func(*Session)) {
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		ss := make([]*Session, 0, len(sh.m))
		for _, s := range sh.m {
			ss = append(ss, s)
		}
		sh.mu.Unlock()
		for _, s := range ss {
			f(s)
		}
	}
}

// Get returns the live session for id, or errSessionNotFound.
func (m *SessionManager) Get(id string) (*Session, error) {
	sh := m.shard(id)
	sh.mu.Lock()
	s, ok := sh.m[id]
	sh.mu.Unlock()
	if !ok {
		return nil, errSessionNotFound
	}
	return s, nil
}

// Remove drops the session from the manager (finish or eviction). An
// in-flight push holding the session pointer completes; later lookups
// miss.
func (m *SessionManager) Remove(id string) {
	sh := m.shard(id)
	sh.mu.Lock()
	s, ok := sh.m[id]
	delete(sh.m, id)
	sh.mu.Unlock()
	if ok {
		m.count.Add(-1)
		obsSessActive.Set(m.count.Load())
		if m.onRemove != nil {
			m.onRemove(s, false)
		}
	}
}

// Len reports the number of live sessions.
func (m *SessionManager) Len() int { return int(m.count.Load()) }

// Sweep evicts every session idle since before now−TTL. It is the
// janitor's body, exported so tests can force eviction with a
// synthetic clock instead of sleeping.
func (m *SessionManager) Sweep(now time.Time) int {
	cutoff := now.Add(-m.ttl).UnixNano()
	evicted := 0
	var expired []*Session
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for id, s := range sh.m {
			if s.lastNano.Load() < cutoff {
				delete(sh.m, id)
				m.count.Add(-1)
				evicted++
				expired = append(expired, s)
			}
		}
		sh.mu.Unlock()
	}
	if m.onRemove != nil {
		// Outside the shard locks: the hook deletes on-disk checkpoints
		// (the store must not outlive its sessions).
		for _, s := range expired {
			m.onRemove(s, true)
		}
	}
	if evicted > 0 {
		obsSessEvicted.Add(int64(evicted))
		obsSessActive.Set(m.count.Load())
		obs.Logger().Info("serve: evicted idle sessions", "count", evicted)
	}
	return evicted
}

func newSessionID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("serve: session id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}
