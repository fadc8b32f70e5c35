//go:build race

package chat

// raceEnabled lets allocation-count tests skip under the race detector:
// they pin what the ordinary build allocates.
const raceEnabled = true
