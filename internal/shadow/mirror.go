package shadow

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/hmm"
	"repro/internal/traj"
)

// Mirror asynchronously replays a deterministic sample of completed
// requests through both the active and the candidate model on a
// bounded worker pool. The serving path only ever pays one non-blocking
// channel send: a full queue drops the sample and counts it, so shadow
// work can never add latency to live matching. Both replays run with
// Config.Explain set (batch jobs) on private model copies.
//
// Re-running the active model — rather than reusing the served result —
// is what makes decision-level comparison free for the serving path:
// explain artifacts cost per-point allocations and route queries, so
// the live request never collects them; determinism guarantees the
// re-run reproduces the served bytes exactly (the capture/replay suite
// pins this), so digest equality against the candidate still means
// "the client would have seen identical bytes".
type Mirror struct {
	cfg Config

	jobs    chan Job
	pending atomic.Int64 // enqueued but not yet fully processed
	wg      sync.WaitGroup

	stopOnce sync.Once
	stopCh   chan struct{}

	mu        sync.Mutex
	seq       int64
	streamSeq int64
}

// Config parameterizes a Mirror.
type Config struct {
	// Candidate returns the current candidate model, or nil when none
	// is loaded (sampling is skipped entirely then).
	Candidate func() *core.Model
	// Sample is the fraction of completed requests to mirror, in [0,1]
	// (default 1). Sampling is deterministic: the seq*rate
	// integer-crossing rule, same as request capture.
	Sample float64
	// Workers / Queue bound the pool (defaults 2 / 256).
	Workers int
	Queue   int
	// Timeout caps each replayed match (default 30s).
	Timeout time.Duration
	// Encode produces the wire bytes of a batch result — the serving
	// layer passes its exact response encoding so digest equality is
	// defined over client-visible bytes.
	Encode func(*hmm.Result) ([]byte, error)
	// EncodeStream does the same for a finished streaming matcher.
	EncodeStream func(*hmm.StreamMatcher) ([]byte, error)
	// Stats receives every comparison (required).
	Stats *Stats
	// OnCompared, when set, observes every completed comparison (the
	// serving layer writes disagreements to the capture file; tests
	// synchronize on it). Called from worker goroutines.
	OnCompared func(job Job, cmp *Comparison)
}

// Job is one mirrored request.
type Job struct {
	// Trajectory is the raw (pre-sanitization) trajectory; both models
	// sanitize it under their own configuration, exactly as the live
	// request did.
	Trajectory traj.CellTrajectory
	// Model is the effective active model the live request ran under
	// (per-request policy overrides already applied).
	Model *core.Model
	// Stream marks a finished-session replay with the session's emit
	// lag; batch jobs leave both zero.
	Stream bool
	Lag    int
	// Meta is an opaque caller payload (the serving layer attaches the
	// original request for capture writing).
	Meta any
}

func (c Config) withDefaults() Config {
	if c.Sample < 0 {
		c.Sample = 0
	}
	if c.Sample > 1 || c.Sample == 0 {
		c.Sample = 1
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Queue <= 0 {
		c.Queue = 256
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	return c
}

// NewMirror starts the worker pool and activates cfg.Stats as the
// process's live shadow aggregate (the derived agreement gauge).
func NewMirror(cfg Config) *Mirror {
	cfg = cfg.withDefaults()
	if cfg.Stats == nil {
		cfg.Stats = NewStats()
	}
	cfg.Stats.Activate()
	m := &Mirror{
		cfg:    cfg,
		jobs:   make(chan Job, cfg.Queue),
		stopCh: make(chan struct{}),
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Stats exposes the aggregate this mirror records into.
func (m *Mirror) Stats() *Stats { return m.cfg.Stats }

// sample applies the deterministic integer-crossing rule to one of the
// two independent sampling sequences.
func (m *Mirror) sample(seq *int64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	*seq++
	return int64(float64(*seq)*m.cfg.Sample) != int64(float64(*seq-1)*m.cfg.Sample)
}

// Offer mirrors one completed batch match: sampled deterministically,
// skipped outright when no candidate is loaded, dropped (and counted)
// when the queue is full. Never blocks.
func (m *Mirror) Offer(job Job) {
	if m == nil || m.cfg.Candidate() == nil {
		return
	}
	if !m.sample(&m.seq) {
		return
	}
	m.enqueue(job)
}

// SampleSession decides (deterministically, on its own sequence)
// whether a newly created streaming session should be mirrored at
// finish. Sessions sampled here buffer their points and call
// OfferStream when they finish.
func (m *Mirror) SampleSession() bool {
	if m == nil || m.cfg.Candidate() == nil {
		return false
	}
	return m.sample(&m.streamSeq)
}

// OfferStream mirrors one finished streaming session (already sampled
// at create time). Never blocks.
func (m *Mirror) OfferStream(job Job) {
	if m == nil || len(job.Trajectory) == 0 || m.cfg.Candidate() == nil {
		return
	}
	job.Stream = true
	m.enqueue(job)
}

func (m *Mirror) enqueue(job Job) {
	select {
	case <-m.stopCh:
		return
	default:
	}
	m.pending.Add(1)
	select {
	case m.jobs <- job:
	default:
		m.pending.Add(-1)
		m.cfg.Stats.RecordDrop()
	}
}

// Drain blocks until every enqueued job has been processed or ctx
// expires (the server's drain path flushes shadow work after in-flight
// matches finish, bounded by the drain deadline).
func (m *Mirror) Drain(ctx context.Context) error {
	if m == nil {
		return nil
	}
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for m.pending.Load() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
	return nil
}

// Stop halts the workers. Jobs still queued are discarded; call Drain
// first for a loss-free shutdown.
func (m *Mirror) Stop() {
	if m == nil {
		return
	}
	m.stopOnce.Do(func() { close(m.stopCh) })
	m.wg.Wait()
}

func (m *Mirror) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.stopCh:
			return
		case job := <-m.jobs:
			m.process(job)
			m.pending.Add(-1)
		}
	}
}

// shadowCopy returns a private copy of model with explain on for batch
// jobs and tracing always off.
func shadowCopy(model *core.Model, explain bool) *core.Model {
	cp := *model
	cp.Cfg.Trace = false
	cp.Cfg.Explain = explain
	return &cp
}

func (m *Mirror) process(job Job) {
	cand := m.cfg.Candidate()
	if cand == nil {
		return
	}
	if job.Stream {
		m.processStream(job, cand)
		return
	}
	active := shadowCopy(job.Model, true)
	candidate := shadowCopy(cand, true)
	// The candidate runs under the active request's effective matching
	// configuration (break/sanitize policies, K, shortcuts) — only the
	// weights differ.
	candidate.Cfg = active.Cfg

	ctx, cancel := context.WithTimeout(context.Background(), m.cfg.Timeout)
	defer cancel()
	aRes, err := active.MatchContext(ctx, job.Trajectory)
	if err != nil {
		// The live request answered; a failing re-run is a mirror-side
		// fault (timeout under shadow load), not candidate evidence.
		m.cfg.Stats.RecordError()
		return
	}
	aBody, err := m.cfg.Encode(aRes)
	if err != nil {
		m.cfg.Stats.RecordError()
		return
	}

	t0 := time.Now()
	cRes, cErr := candidate.MatchContext(ctx, job.Trajectory)
	lat := time.Since(t0)
	var cmp Comparison
	if cErr != nil {
		cmp = Comparison{
			Points:         len(aRes.Matched),
			ActiveDegraded: aRes.Degraded > 0,
			ActiveGapped:   len(aRes.Gaps) > 0,
			CandErr:        cErr,
			ActiveRes:      aRes,
			ActiveBody:     aBody,
		}
	} else {
		cBody, err := m.cfg.Encode(cRes)
		if err != nil {
			m.cfg.Stats.RecordError()
			return
		}
		cmp = Compare(aRes, cRes, aBody, cBody)
	}
	cmp.CandLatency = lat
	m.cfg.Stats.Record(&cmp)
	if m.cfg.OnCompared != nil {
		m.cfg.OnCompared(job, &cmp)
	}
}

// processStream replays a finished session's points through fresh
// fixed-lag matchers from both models and compares the finalized
// state. Streaming runs without explain (the StreamMatcher has no
// explain path), so the comparison carries segment agreement, score
// deltas, digest equality, and quality flags, but no margins.
func (m *Mirror) processStream(job Job, cand *core.Model) {
	active := shadowCopy(job.Model, false)
	candidate := shadowCopy(cand, false)
	candidate.Cfg = active.Cfg

	asm := active.NewStream(job.Lag)
	feedStream(asm, job.Trajectory)
	aRes := StreamResult(asm)
	aBody, err := m.cfg.EncodeStream(asm)
	if err != nil {
		m.cfg.Stats.RecordError()
		return
	}

	t0 := time.Now()
	csm := candidate.NewStream(job.Lag)
	feedStream(csm, job.Trajectory)
	lat := time.Since(t0)
	cRes := StreamResult(csm)
	cBody, err := m.cfg.EncodeStream(csm)
	if err != nil {
		m.cfg.Stats.RecordError()
		return
	}

	cmp := Compare(aRes, cRes, aBody, cBody)
	cmp.Stream = true
	cmp.CandLatency = lat
	m.cfg.Stats.Record(&cmp)
	if m.cfg.OnCompared != nil {
		m.cfg.OnCompared(job, &cmp)
	}
}

// feedStream pushes the buffered points and flushes. A push error
// stops the feed for that matcher (mirroring how the live session
// absorbed points up to the failure) but still flushes what was
// absorbed.
func feedStream(sm *hmm.StreamMatcher, pts traj.CellTrajectory) {
	for _, p := range pts {
		if _, err := sm.Push(p); err != nil {
			break
		}
	}
	sm.Flush()
}
