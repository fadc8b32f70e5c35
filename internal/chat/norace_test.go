//go:build !race

package chat

const raceEnabled = false
