//go:build race

package roadnet

// raceEnabled reports whether the race detector is active; the pooled
// alloc pin skips under it because instrumentation changes sync.Pool
// caching.
const raceEnabled = true
