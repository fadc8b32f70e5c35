//go:build race

package engine

// raceEnabled lets allocation-count tests skip under the race detector,
// where sync.Pool drops items at random.
const raceEnabled = true
