package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"lightor/internal/stats"
)

// This file implements the OnlineDetector's checkpoint codec: a compact
// binary snapshot of the detector's complete incremental state — open
// window accumulator, pending windows, running normalization bounds,
// emitted dots, and the stream clock — such that a detector restored from
// a snapshot continues *bit-identically* to one that never stopped. The
// engine's session checkpointing writes these snapshots to durable storage
// so live channels survive a crash without re-feeding history (the paper's
// Section VI deployment direction; differential tests pin the equivalence
// at every message boundary).
//
// Layout (little-endian), versioned and CRC32-guarded:
//
//	magic "LODS" | version u16
//	threshold f64 | warmup f64 | now f64
//	open u8 | curStart f64 | curEnd f64
//	acc: tokens u32, each (len u32 + bytes); counts, weights f64[k];
//	     seen u64[k]; simN u64; dotSum, sumSq f64; accN u64; accWords f64
//	hist: present u8 [lo f64, hi f64, bins u32, counts f64[bins]]
//	pending: count u32, each (start,end,peak f64; dim u8; vals f64[dim];
//	         score f64; scoreEpoch u64; done u8)
//	norm: dim u8; mins,maxs f64[dim]; haveNorm u8; normEpoch u64
//	emitted: count u32, each (time,peak,winStart,winEnd,score f64)
//	crc32 u32 (IEEE, over everything before it)
//
// Floats are encoded as raw IEEE-754 bits, so memoized scores and running
// sums survive the round trip exactly; the restored detector's future
// emissions cannot drift from the uninterrupted run's.

var snapMagic = [4]byte{'L', 'O', 'D', 'S'}

const snapVersion = 1

// errSnapshot tags all snapshot decode failures.
var errSnapshot = errors.New("core: invalid detector snapshot")

// Now returns the detector's stream clock: the highest timestamp observed
// via Feed, Advance, or Flush. A resumed session continues feeding from
// here.
func (o *OnlineDetector) Now() float64 { return o.now }

// binWriter appends fixed-width little-endian primitives to a byte slice.
type binWriter struct{ buf []byte }

func (w *binWriter) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *binWriter) u16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *binWriter) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *binWriter) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *binWriter) f64(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}
func (w *binWriter) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *binWriter) bytes(b []byte) {
	w.u32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// binReader consumes little-endian primitives, turning every overrun into
// an error instead of a panic — snapshots come off disk and may be torn.
type binReader struct {
	data []byte
	off  int
	err  error
}

func (r *binReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated at %s (offset %d)", errSnapshot, what, r.off)
	}
}

func (r *binReader) take(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.data) {
		r.fail(what)
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *binReader) u8(what string) uint8 {
	b := r.take(1, what)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *binReader) u16(what string) uint16 {
	b := r.take(2, what)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *binReader) u32(what string) uint32 {
	b := r.take(4, what)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *binReader) u64(what string) uint64 {
	b := r.take(8, what)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *binReader) f64(what string) float64 {
	return math.Float64frombits(r.u64(what))
}

func (r *binReader) bool(what string) bool { return r.u8(what) != 0 }

// count reads a u32 element count and bounds it by the bytes actually
// remaining in the snapshot: n elements of at least minElemBytes each
// cannot outnumber the input, so a corrupt (or hostile) length field can
// never force a huge allocation — while any count a real AppendSnapshot
// produced, however large the legitimate state, always passes.
func (r *binReader) count(minElemBytes int, what string) int {
	n := int(r.u32(what))
	if r.err == nil {
		if max := (len(r.data) - r.off) / minElemBytes; n > max {
			r.err = fmt.Errorf("%w: %s count %d exceeds remaining input (%d bytes)",
				errSnapshot, what, n, len(r.data)-r.off)
		}
	}
	if r.err != nil {
		return 0
	}
	return n
}

// AppendSnapshot serializes the detector's complete incremental state into
// dst (grown as needed) and returns the extended slice. Callers that
// checkpoint on a cadence can reuse one buffer across snapshots.
func (o *OnlineDetector) AppendSnapshot(dst []byte) []byte {
	w := binWriter{buf: dst}
	w.buf = append(w.buf, snapMagic[:]...)
	w.u16(snapVersion)

	w.f64(o.threshold)
	w.f64(o.warmup)
	w.f64(o.now)

	w.bool(o.open)
	w.f64(o.curStart)
	w.f64(o.curEnd)

	// Open-window feature accumulator.
	accState := o.acc.State()
	w.u32(uint32(len(accState.Sim.Tokens)))
	for _, tok := range accState.Sim.Tokens {
		w.bytes([]byte(tok))
	}
	for _, v := range accState.Sim.Counts {
		w.f64(v)
	}
	for _, v := range accState.Sim.Weights {
		w.f64(v)
	}
	for _, v := range accState.Sim.Seen {
		w.u64(uint64(v))
	}
	w.u64(uint64(accState.Sim.N))
	w.f64(accState.Sim.DotSum)
	w.f64(accState.Sim.SumSq)
	w.u64(uint64(accState.N))
	w.f64(accState.Words)

	// Open-window message-rate histogram.
	if o.hist != nil {
		w.bool(true)
		w.f64(o.hist.Lo())
		w.f64(o.hist.Hi())
		counts := o.hist.Counts()
		w.u32(uint32(len(counts)))
		for _, c := range counts {
			w.f64(c)
		}
	} else {
		w.bool(false)
	}

	// Pending (closed, unfinalized) windows.
	w.u32(uint32(len(o.pending)))
	for i := range o.pending {
		pw := &o.pending[i]
		w.f64(pw.start)
		w.f64(pw.end)
		w.f64(pw.peak)
		w.u8(uint8(pw.feats.dim))
		for j := 0; j < pw.feats.dim; j++ {
			w.f64(pw.feats.vals[j])
		}
		w.f64(pw.score)
		w.u64(pw.scoreEpoch)
		w.bool(pw.done)
	}

	// Running normalization bounds.
	w.u8(uint8(len(o.mins)))
	for _, v := range o.mins {
		w.f64(v)
	}
	for _, v := range o.maxs {
		w.f64(v)
	}
	w.bool(o.haveNorm)
	w.u64(o.normEpoch)

	// Emission history.
	w.u32(uint32(len(o.emitted)))
	for _, d := range o.emitted {
		w.f64(d.Time)
		w.f64(d.Peak)
		w.f64(d.Window.Start)
		w.f64(d.Window.End)
		w.f64(d.Score)
	}

	w.u32(crc32.ChecksumIEEE(w.buf))
	return w.buf
}

// Snapshot returns a fresh serialized snapshot of the detector's state.
func (o *OnlineDetector) Snapshot() []byte { return o.AppendSnapshot(nil) }

// RestoreSnapshot replaces the detector's incremental state with the one
// captured in data (produced by Snapshot/AppendSnapshot on a detector with
// the same feature configuration). The restored detector's subsequent
// emissions are bit-identical to the capturing detector's: all running
// sums, memoized scores, and epochs round-trip as raw IEEE-754 bits.
//
// Corrupt, truncated, or mismatched input is rejected with an error and
// leaves the detector unchanged.
func (o *OnlineDetector) RestoreSnapshot(data []byte) error {
	if len(data) < len(snapMagic)+2+4 {
		return fmt.Errorf("%w: %d bytes is too short", errSnapshot, len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return fmt.Errorf("%w: checksum mismatch", errSnapshot)
	}
	r := &binReader{data: body}
	if string(r.take(4, "magic")) != string(snapMagic[:]) {
		return fmt.Errorf("%w: bad magic", errSnapshot)
	}
	if v := r.u16("version"); v != snapVersion {
		return fmt.Errorf("%w: unsupported version %d", errSnapshot, v)
	}

	threshold := r.f64("threshold")
	warmup := r.f64("warmup")
	now := r.f64("now")
	open := r.bool("open")
	curStart := r.f64("curStart")
	curEnd := r.f64("curEnd")

	var accState FeatureAccumulatorState
	nTok := r.count(4, "tokens")
	accState.Sim.Tokens = make([]string, 0, nTok)
	for i := 0; i < nTok; i++ {
		tl := int(r.u32("token length"))
		accState.Sim.Tokens = append(accState.Sim.Tokens, string(r.take(tl, "token")))
	}
	accState.Sim.Counts = make([]float64, nTok)
	for i := range accState.Sim.Counts {
		accState.Sim.Counts[i] = r.f64("token count")
	}
	accState.Sim.Weights = make([]float64, nTok)
	for i := range accState.Sim.Weights {
		accState.Sim.Weights[i] = r.f64("token weight")
	}
	accState.Sim.Seen = make([]int, nTok)
	for i := range accState.Sim.Seen {
		accState.Sim.Seen[i] = int(r.u64("token seen"))
	}
	accState.Sim.N = int(r.u64("sim n"))
	accState.Sim.DotSum = r.f64("dotSum")
	accState.Sim.SumSq = r.f64("sumSq")
	accState.N = int(r.u64("acc n"))
	accState.Words = r.f64("acc words")

	histPresent := r.bool("hist present")
	var histLo, histHi float64
	var histCounts []float64
	if histPresent {
		histLo = r.f64("hist lo")
		histHi = r.f64("hist hi")
		bins := r.count(8, "hist bins")
		histCounts = make([]float64, bins)
		for i := range histCounts {
			histCounts[i] = r.f64("hist count")
		}
		if r.err == nil && (bins < 1 || !(histHi > histLo) ||
			math.IsNaN(histLo) || math.IsInf(histLo, 0) || math.IsInf(histHi, 0)) {
			return fmt.Errorf("%w: degenerate histogram range [%g, %g) with %d bins",
				errSnapshot, histLo, histHi, bins)
		}
	}

	dim := o.init.cfg.Features.Dim()
	nPend := r.count(8, "pending windows")
	pending := make([]onlineWindow, 0, nPend)
	for i := 0; i < nPend; i++ {
		var pw onlineWindow
		pw.start = r.f64("window start")
		pw.end = r.f64("window end")
		pw.peak = r.f64("window peak")
		wd := int(r.u8("window dim"))
		if r.err == nil && wd != dim {
			return fmt.Errorf("%w: window feature dim %d, detector uses %d", errSnapshot, wd, dim)
		}
		pw.feats.dim = wd
		for j := 0; j < wd && r.err == nil; j++ {
			pw.feats.vals[j] = r.f64("window feature")
		}
		pw.score = r.f64("window score")
		pw.scoreEpoch = r.u64("window score epoch")
		pw.done = r.bool("window done")
		pending = append(pending, pw)
	}

	normDim := int(r.u8("norm dim"))
	if r.err == nil && normDim != dim {
		return fmt.Errorf("%w: normalization dim %d, detector uses %d", errSnapshot, normDim, dim)
	}
	mins := make([]float64, normDim)
	for i := range mins {
		mins[i] = r.f64("min")
	}
	maxs := make([]float64, normDim)
	for i := range maxs {
		maxs[i] = r.f64("max")
	}
	haveNorm := r.bool("haveNorm")
	normEpoch := r.u64("normEpoch")

	nEmit := r.count(8, "emitted dots")
	emitted := make([]RedDot, 0, nEmit)
	for i := 0; i < nEmit; i++ {
		var d RedDot
		d.Time = r.f64("dot time")
		d.Peak = r.f64("dot peak")
		d.Window.Start = r.f64("dot window start")
		d.Window.End = r.f64("dot window end")
		d.Score = r.f64("dot score")
		emitted = append(emitted, d)
	}

	if r.err != nil {
		return r.err
	}
	if r.off != len(body) {
		return fmt.Errorf("%w: %d trailing bytes", errSnapshot, len(body)-r.off)
	}

	// All fields decoded and validated: commit. Restore the accumulator
	// first — it is the only step that can still fail.
	var acc FeatureAccumulator
	acc.Reset()
	if err := acc.SetState(accState); err != nil {
		return fmt.Errorf("%w: %v", errSnapshot, err)
	}

	o.threshold = threshold
	o.warmup = warmup
	o.now = now
	o.open = open
	o.curStart = curStart
	o.curEnd = curEnd
	o.acc = acc
	if histPresent {
		if o.hist == nil {
			o.hist = stats.NewHistogram(histLo, histHi, len(histCounts))
		} else {
			o.hist.Reset(histLo, histHi, len(histCounts))
		}
		if err := o.hist.RestoreCounts(histCounts); err != nil {
			return fmt.Errorf("%w: %v", errSnapshot, err)
		}
	} else {
		o.hist = nil
	}
	o.pending = pending
	o.collectAt = math.Inf(-1)
	o.mins = mins
	o.maxs = maxs
	o.haveNorm = haveNorm
	o.normEpoch = normEpoch
	o.emitted = emitted
	return nil
}
