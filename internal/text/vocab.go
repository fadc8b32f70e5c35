package text

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
)

// windowVocab maps the tokens of one window to dense ids in first-seen
// order. It is an open-addressing (linear probing) table over a single byte
// arena holding every token's bytes back to back, built for the
// accumulator's access pattern: a lookup per token, a reset per window.
//
//   - A new token costs an arena append — no per-token heap string.
//   - reset is O(1): it bumps the generation that marks a slot as live and
//     truncates the arena; nothing is cleared, so a window pays nothing for
//     the size of the windows before it.
//   - Hashes are seeded per process (hash/maphash). Chat text is attacker-
//     controlled: with a fixed hash function a crowd could pick tokens that
//     all collide and turn every lookup into a linear scan.
//   - A slot carries the token's first eight bytes, so the common short
//     token is confirmed by two integer compares without touching the arena.
//
// Ids depend only on arrival order, never on the seed, so everything
// derived from them (the accumulator's sums, its checkpointed state) is
// identical across processes.
type windowVocab struct {
	slots []vocabSlot // len is 0 or a power of two
	arena []byte      // token bytes, in id order
	gen   uint32      // slots with another generation are empty
	n     int         // live tokens
}

type vocabSlot struct {
	hash uint64
	head uint64 // the token's first 8 bytes, little-endian, zero-padded
	gen  uint32
	id   uint32
	off  uint32 // token bytes are arena[off : off+len]
	len  uint32
}

const (
	// vocabInitSlots is the table's first (and post-shrink) capacity.
	vocabInitSlots = 64
	// A table or arena that grew beyond these sizes for a flash crowd is
	// dropped at reset once a window uses less than 1/8 of it, so a single
	// spike does not pin its memory for the rest of the session.
	vocabShrinkSlots = 1024
	vocabShrinkArena = 8 << 10
)

var vocabSeed = maphash.MakeSeed()

// reset empties the vocabulary for a fresh window. It reports whether it
// dropped an oversized table, so the owner can drop what it sized to match.
func (v *windowVocab) reset() (shrunk bool) {
	if len(v.slots) > vocabShrinkSlots && v.n < len(v.slots)/8 {
		v.slots = nil
		shrunk = true
	}
	if cap(v.arena) > vocabShrinkArena && len(v.arena) < cap(v.arena)/8 {
		v.arena = nil
	}
	v.arena = v.arena[:0]
	v.n = 0
	v.gen++
	if v.gen == 0 { // wrapped: stale slots of generation 1 would come back to life
		clear(v.slots)
		v.gen = 1
	}
	return shrunk
}

// tokenHead packs the first 8 bytes of tok into a word. Tokens cut from a
// buffer with spare capacity (the scanner's always are) take one load and a
// mask; the bytes past len(tok) are never observed.
func tokenHead(tok []byte) uint64 {
	n := min(len(tok), 8)
	if cap(tok) >= 8 {
		return binary.LittleEndian.Uint64(tok[:8]) & (^uint64(0) >> (64 - 8*uint(n)))
	}
	var w uint64
	for i, b := range tok[:n] {
		w |= uint64(b) << (8 * uint(i))
	}
	return w
}

// intern returns tok's id, assigning the next dense id if tok is new to
// this window. tok is copied, never retained.
func (v *windowVocab) intern(tok []byte) (id int, added bool) {
	if 2*(v.n+1) > len(v.slots) { // keep the load factor at or below 1/2
		v.grow()
	}
	h, head, n := maphash.Bytes(vocabSeed, tok), tokenHead(tok), uint32(len(tok))
	mask := uint64(len(v.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &v.slots[i]
		if s.gen != v.gen {
			*s = vocabSlot{hash: h, head: head, gen: v.gen, id: uint32(v.n), off: uint32(len(v.arena)), len: n}
			v.arena = append(v.arena, tok...)
			v.n++
			return int(s.id), true
		}
		if s.head == head && s.len == n && s.hash == h &&
			(n <= 8 || bytes.Equal(v.arena[s.off+8:s.off+n], tok[8:])) {
			return int(s.id), false
		}
	}
}

// grow doubles the table, re-placing live slots by their stored hash.
func (v *windowVocab) grow() {
	old := v.slots
	size := 2 * len(old)
	if size == 0 {
		size = vocabInitSlots
	}
	if v.gen == 0 { // never reset: a zeroed slot must not read as live
		v.gen = 1
	}
	v.slots = make([]vocabSlot, size)
	mask := uint64(size - 1)
	for _, s := range old {
		if s.gen != v.gen {
			continue
		}
		i := s.hash & mask
		for v.slots[i].gen == v.gen {
			i = (i + 1) & mask
		}
		v.slots[i] = s
	}
}

// tokens returns the window's tokens in id order.
func (v *windowVocab) tokens() []string {
	out := make([]string, v.n)
	for _, s := range v.slots {
		if s.gen == v.gen {
			out[s.id] = string(v.arena[s.off : s.off+s.len])
		}
	}
	return out
}
