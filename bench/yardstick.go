package main

import "time"

// yardstick is a fixed computation that the load goroutine times in the
// rests between slices: what the machine gives a thread at that moment. It
// has two parts, timed apart, because the machine this was written on (two
// virtual CPUs on a shared host) slows down in two ways that have little to
// do with each other. spin is arithmetic in registers: it slows when the
// host takes the virtual CPU away or a sibling hardware thread is busy.
// walk is a chain of dependent loads at random places of a buffer the size
// of a second-level cache: it slows — by up to three quarters for minutes
// on end — when neighbours on the host fill the shared cache, which is what
// moves this benchmark's numbers from one run to the next.
type yardstick struct {
	x   uint64
	buf []uint64
}

const (
	yardSpins = 500_000
	yardSteps = 250_000
	yardWords = 256 << 10 // 2 MB
	// What one round's parts take on that machine at rest, in ms. Corrected
	// metrics read as if the whole run had been made at this speed; on
	// another machine they are off by a constant factor, the same on both
	// sides of any comparison.
	spinAtRest = 0.92
	walkAtRest = 0.90
)

func newYardstick() *yardstick {
	y := &yardstick{x: 88172645463325252, buf: make([]uint64, yardWords)}
	y.walk(4 * yardWords) // every page touched before anything is timed
	return y
}

func (y *yardstick) spin(n int) {
	x := y.x
	for range n {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	y.x = x
}

func (y *yardstick) walk(n int) {
	x := y.x
	for range n {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		y.buf[x%yardWords] += x
	}
	y.x = x
}

// reading is one round of the yardstick: what its parts took, in ms.
type reading struct{ spin, walk float64 }

func (y *yardstick) round() reading {
	a := time.Now()
	y.spin(yardSpins)
	b := time.Now()
	y.walk(yardSteps)
	return reading{spin: ms(b.Sub(a)), walk: ms(time.Since(b))}
}

// slowdown is how much slower than at rest the machine ran work of which
// memShare waits for memory and the rest computes, going by the readings.
func slowdown(rs []reading, memShare float64) float64 {
	if len(rs) == 0 {
		return 1
	}
	var spin, walk float64
	for _, r := range rs {
		spin += r.spin
		walk += r.walk
	}
	n := float64(len(rs))
	return (1-memShare)*spin/n/spinAtRest + memShare*walk/n/walkAtRest
}
