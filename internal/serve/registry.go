package serve

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

// Reload telemetry.
var (
	obsReloads      = obs.Default.Counter("serve.reloads")
	obsReloadErrors = obs.Default.Counter("serve.reload.errors")
)

// fpReloadFail fails a reload before the loader runs (chaos tests for
// the keep-the-old-model invariant; no-op unless armed).
var fpReloadFail = faultinject.New("serve.reload.fail")

// Registry owns the served model and swaps it atomically on reload.
//
// The hot-reload invariant: Reload builds a complete replacement model
// via the loader — typically core.New over the resident dataset plus
// nn.LoadParams, whose validate-all-before-write hardening rejects
// corrupt, truncated, or shape-mismatched weight files — and only then
// publishes it with one atomic pointer store. Any loader error leaves
// the previous model serving untouched; there is no window in which a
// request can observe a partially loaded model. In-flight matches and
// live streaming sessions keep the model pointer they started with, so
// a reload never changes scoring mid-trajectory.
type Registry struct {
	cur    atomic.Pointer[modelEntry]
	loader func() (*core.Model, error)

	// reloading serializes Reload calls (concurrent reloads would race
	// on "latest wins" with no useful ordering).
	reloading atomic.Bool
}

// modelEntry pairs a published model with identity digests read once
// at load time: the session checkpointer stamps every snapshot with
// them, and recovery refuses snapshots that do not match the serving
// model. A loaded model recorded its weights hash when it released its
// encoder, so publishing one hashes nothing.
type modelEntry struct {
	m  *core.Model
	wh [32]byte // core.(*Model).WeightsHash
}

// NewRegistry wraps a loader. The registry starts empty; call Reload
// once before serving (readiness reports false until a model is
// published).
func NewRegistry(loader func() (*core.Model, error)) *Registry {
	return &Registry{loader: loader}
}

// Model returns the currently served model, or nil before the first
// successful Reload.
func (r *Registry) Model() *core.Model {
	if e := r.cur.Load(); e != nil {
		return e.m
	}
	return nil
}

// Entry returns the served model together with its cached weights
// hash, or (nil, zero) before the first successful Reload.
func (r *Registry) Entry() (*core.Model, [32]byte) {
	if e := r.cur.Load(); e != nil {
		return e.m, e.wh
	}
	return nil, [32]byte{}
}

// Reload runs the loader and atomically publishes its model. On any
// error the previous model keeps serving. Concurrent calls coalesce:
// the loser returns an error without running the loader.
func (r *Registry) Reload() error {
	if !r.reloading.CompareAndSwap(false, true) {
		obsReloadErrors.Inc()
		return fmt.Errorf("serve: reload already in progress")
	}
	defer r.reloading.Store(false)
	if fpReloadFail.Fail() {
		obsReloadErrors.Inc()
		return fmt.Errorf("serve: reload: fault injected: %s", fpReloadFail.Name())
	}
	m, err := r.loader()
	if err != nil {
		obsReloadErrors.Inc()
		return fmt.Errorf("serve: reload: %w", err)
	}
	if m.Embeddings() == nil {
		obsReloadErrors.Inc()
		return fmt.Errorf("serve: reload: loader returned a model without embeddings")
	}
	r.cur.Store(&modelEntry{m: m, wh: m.WeightsHash()})
	obsReloads.Inc()
	obs.Logger().Info("serve: model reloaded")
	return nil
}
