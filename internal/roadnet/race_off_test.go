//go:build !race

package roadnet

const raceEnabled = false
