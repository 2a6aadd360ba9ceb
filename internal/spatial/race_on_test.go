//go:build race

package spatial

// raceEnabled reports whether the race detector is active; alloc-pinned
// tests skip under it because it makes sync.Pool drop a share of Puts.
const raceEnabled = true
