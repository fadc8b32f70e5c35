// Package wal provides the durable-persistence primitives behind the
// platform's file-backed storage: an append-only write-ahead log with
// length-prefixed, CRC32-checksummed records and partial-tail-tolerant
// recovery, plus checksummed snapshot envelopes for full-state files.
//
// The paper's deployment (Section VI) accumulates chat logs, red dots, and
// browser-extension interaction logs server-side so implicit crowdsourcing
// can keep refining highlights long after a broadcast ends. That state must
// outlive any single process, and the crowd signal arrives as a stream of
// small appends — exactly the workload a WAL absorbs: every accepted
// mutation is appended (and group-commit fsynced) before it is acknowledged,
// and a periodic snapshot bounds replay time at restart.
//
// # Log format
//
// A log file starts with an 8-byte header:
//
//	magic "LWAL" | version uint16 LE | flags uint16 LE (reserved, zero)
//
// followed by zero or more records, each framed as
//
//	length uint32 LE | crc32 uint32 LE (IEEE, over the payload) | payload
//
// Recovery reads records until the first frame that does not check out —
// a short header, a length past EOF, or a CRC mismatch. Everything before
// that point is intact (CRC-verified); everything from it on is a torn tail
// from a crash mid-write and is truncated away when the writer reopens the
// file. A corrupt byte in the middle of the file therefore costs the
// records behind it — the same contract as etcd's WAL — which the snapshot
// cadence keeps small.
//
// # Durability
//
// Writer.Append buffers; Writer.AppendDurable (or WaitDurable on an Append's
// sequence) additionally waits until the record has been fsynced. Syncs are
// group-committed by one background flusher, and the commit is self-clocked:
// a waiter that finds no sync in flight gets one at once, and every waiter
// that arrives while that fsync is in flight is covered by the very next
// one, which starts as soon as the current one returns. Batching therefore
// comes from the fsync's own latency — a lone durable append costs one
// fsync, N concurrent ones share one — and there is no commit-delay setting
// to tune. Records appended with plain Append and no waiter behind them are
// synced in the background within lazySyncDelay (2ms) of the append, which
// bounds what a crash can lose of writes nobody was promised.
//
// # Batching contract
//
// Writer.AppendBatch (and AppendBatchDurable) appends N payloads as N
// ordinary records: each gets its own length+CRC frame, staged into one
// reused buffer and handed to the buffered writer in a single call, with
// the whole batch covered by one group-commit wait. On disk a batch is
// byte-identical to the same payloads appended one at a time — Scan and
// recovery never see batch boundaries, so replay of a batched log equals
// replay of a sequential one bit for bit. Torn-tail semantics are
// unchanged: a crash mid-batch loses a suffix of the batch's records
// exactly as it would for sequential appends (callers that need
// all-or-nothing batches must encode the batch as one record).
//
// # Fail-stop contract
//
// The writer is fail-stop: the first failed write, flush, or fsync poisons
// it permanently. A poisoned writer rejects further appends, never flushes
// or fsyncs again, and fails every durability waiter with the original
// error. In particular it never retries a failed fsync and then
// acknowledges — after a failed fsync the kernel may have already dropped
// the dirty pages, so a successful retry proves nothing about the data
// ("fsyncgate"). Recovery is restart-shaped: reopen the log and replay;
// only records whose group commit succeeded are guaranteed present, and a
// record that was buffered or flushed but never fsynced may or may not
// survive — which is exactly why its ack never went out.
package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"

	"lightor/internal/fault"
)

// Failpoint sites (package fault) wired into the write path. Disarmed they
// cost one atomic load per append / group commit.
var (
	// FailpointWrite fires in Append/AppendBatch as the framed record is
	// handed to the device; a partial:<n> action tears the record so
	// recovery sees a torn tail.
	FailpointWrite = fault.Register("wal/write")
	// FailpointSync fires in the group-commit flusher in place of fsync
	// (it fires even under NoSync, so tests need no real disk stall).
	FailpointSync = fault.Register("wal/sync")
)

const (
	// Version is the current log-format version written to new files.
	Version = 1

	headerSize = 8
	frameSize  = 8 // length + crc
	// MaxRecord caps a single record's payload. A length field beyond it
	// is treated as torn-tail garbage rather than an instruction to
	// allocate gigabytes.
	MaxRecord = 64 << 20
	// MaxEnvelope caps a snapshot envelope's payload. Enforced
	// symmetrically by WriteEnvelope and ReadEnvelope, so a snapshot that
	// was written can always be read back — a writer that lets state grow
	// past the cap fails loudly at write time (when the old snapshot is
	// still intact), never at recovery time.
	MaxEnvelope = 1 << 30
)

var logMagic = [4]byte{'L', 'W', 'A', 'L'}

// ErrCorrupt reports a structurally invalid log or envelope: bad magic,
// unsupported version, or checksum mismatch where tolerance is not allowed.
var ErrCorrupt = errors.New("wal: corrupt data")

// lazySyncDelay bounds how long a record appended with plain Append sits
// unsynced when no durability waiter asks for it sooner.
const lazySyncDelay = 2 * time.Millisecond

// Options tunes a Writer.
type Options struct {
	// NoSync disables fsync entirely (tests and benchmarks that measure
	// CPU cost, not disk cost). AppendDurable still waits for the buffered
	// writer to flush to the OS.
	NoSync bool
}

// Scan reads log records from r (which must start at the file header),
// calling apply for each intact payload. The payload slice is reused
// between calls; apply must copy anything it keeps.
//
// Scan returns the number of intact records and the byte offset of the end
// of the last intact record — the offset a writer should truncate to before
// appending. A torn tail (short frame, impossible length, payload cut off,
// or CRC mismatch) ends the scan without error: that is the expected state
// after a crash mid-append. A missing or foreign header, an unsupported
// version, or an apply error is a real error.
func Scan(r io.Reader, apply func(payload []byte) error) (records int, validSize int64, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [headerSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, 0, fmt.Errorf("%w: empty log (missing header)", ErrCorrupt)
		}
		return 0, 0, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	if !bytes.Equal(hdr[:4], logMagic[:]) {
		return 0, 0, fmt.Errorf("%w: bad magic %q", ErrCorrupt, hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != Version {
		return 0, 0, fmt.Errorf("%w: unsupported log version %d", ErrCorrupt, v)
	}

	validSize = headerSize
	var frame [frameSize]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(br, frame[:]); err != nil {
			return records, validSize, nil // clean EOF or torn frame: tail
		}
		length := binary.LittleEndian.Uint32(frame[0:4])
		sum := binary.LittleEndian.Uint32(frame[4:8])
		if length > MaxRecord {
			return records, validSize, nil // garbage length: torn tail
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(br, payload); err != nil {
			return records, validSize, nil // payload cut off: torn tail
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return records, validSize, nil // bit rot or torn write: tail
		}
		if err := apply(payload); err != nil {
			return records, validSize, fmt.Errorf("wal: applying record %d: %w", records, err)
		}
		records++
		validSize += frameSize + int64(length)
	}
}

// ScanFile opens path and Scans it. A missing file is not an error: it
// reports zero records, mirroring a log that was never written.
func ScanFile(path string, apply func(payload []byte) error) (records int, validSize int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0, nil
		}
		return 0, 0, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	return Scan(f, apply)
}

// Writer appends framed records to a log file with group-commit fsync.
type Writer struct {
	mu        sync.Mutex // guards f, bw, seq, err, batchBuf
	f         *os.File
	bw        *bufio.Writer
	frame     [frameSize]byte
	batchBuf  []byte // reused frame+payload staging for AppendBatch
	seq       uint64 // records appended (buffered, not necessarily synced)
	err       error  // first write error; sticky
	closed    bool
	noSync    bool
	cmu       sync.Mutex
	committed uint64 // records known durable; guarded by cmu
	syncErr   error  // first flush/sync failure; guarded by cmu
	cond      *sync.Cond
	dirty     chan struct{} // buffered(1): records buffered, sync within lazySyncDelay
	waiter    chan struct{} // buffered(1): a WaitDurable is blocked, sync now
	quit      chan struct{}
	stopped   chan struct{}
}

// Open opens the log at path for appending, creating it (with a fresh
// header) when absent. An existing file is first Scanned through apply —
// the caller replays its state — and truncated to the last intact record so
// a torn tail from a crash never precedes new appends.
//
// A file too short to hold even the header (a crash during log creation —
// e.g. power loss right after a snapshot compaction created the next
// generation's file) is indistinguishable from "never written" and is
// treated as a fresh log, not corruption; it cannot contain acknowledged
// records. A present-but-foreign header (bad magic, unsupported version)
// stays a hard error.
func Open(path string, opts Options, apply func(payload []byte) error) (*Writer, int, error) {
	records := 0
	validSize := int64(0)
	if st, err := os.Stat(path); err == nil {
		if st.Size() >= headerSize {
			r, v, err := ScanFile(path, apply)
			if err != nil {
				return nil, 0, err
			}
			records, validSize = r, v
		}
	} else if !os.IsNotExist(err) {
		return nil, 0, fmt.Errorf("wal: %w", err)
	}

	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: %w", err)
	}
	if validSize == 0 {
		// Fresh (or completely torn) log: write a clean header.
		var hdr [headerSize]byte
		copy(hdr[:4], logMagic[:])
		binary.LittleEndian.PutUint16(hdr[4:6], Version)
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, 0, fmt.Errorf("wal: %w", err)
		}
		if _, err := f.Write(hdr[:]); err != nil {
			f.Close()
			return nil, 0, fmt.Errorf("wal: writing header: %w", err)
		}
		// The header must be durable before anything (such as a snapshot
		// naming this generation) depends on the file being openable.
		if !opts.NoSync {
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, 0, fmt.Errorf("wal: syncing header: %w", err)
			}
		}
		validSize = headerSize
	} else if err := f.Truncate(validSize); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("wal: truncating torn tail: %w", err)
	}
	if _, err := f.Seek(validSize, io.SeekStart); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("wal: %w", err)
	}

	w := &Writer{
		f:       f,
		bw:      bufio.NewWriterSize(f, 1<<16),
		noSync:  opts.NoSync,
		dirty:   make(chan struct{}, 1),
		waiter:  make(chan struct{}, 1),
		quit:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	w.cond = sync.NewCond(&w.cmu)
	go w.flushLoop()
	return w, records, nil
}

// Create makes a fresh log at path, failing if one already exists.
func Create(path string, opts Options) (*Writer, error) {
	if _, err := os.Stat(path); err == nil {
		return nil, fmt.Errorf("wal: %s already exists", path)
	}
	w, _, err := Open(path, opts, func([]byte) error { return nil })
	return w, err
}

// Append buffers one record and returns its sequence number. The record is
// durable only after the next group commit (or Sync/Close); pass the
// sequence to WaitDurable — or use AppendDurable — when the caller
// acknowledges the write to a client.
func (w *Writer) Append(payload []byte) (uint64, error) {
	seq, err := w.append(payload)
	nudge(w.dirty)
	return seq, err
}

// WaitDurable blocks until the record with the given sequence number has
// been fsynced (group-committed with any concurrent appends), or until the
// writer fails or closes. A record that is already durable — committed by
// an earlier waiter's sync, the lazy sync, or Close — returns without
// waking the flusher.
func (w *Writer) WaitDurable(seq uint64) error {
	w.cmu.Lock()
	defer w.cmu.Unlock()
	if w.committed >= seq || w.syncErr != nil {
		return w.syncErr
	}
	// One nudge, sent after the record was appended, is enough: whichever
	// token the flusher takes next — this one, or one already pending — it
	// takes after this append, so the sync it starts covers the record. A
	// sync that was already in flight does not; its broadcast finds
	// committed < seq and the wait continues for the following one.
	nudge(w.waiter)
	for w.committed < seq && w.syncErr == nil {
		w.cond.Wait()
	}
	return w.syncErr
}

// AppendDurable appends one record and blocks until it has been fsynced
// (group-committed with any concurrent appends).
func (w *Writer) AppendDurable(payload []byte) error {
	seq, err := w.append(payload)
	if err != nil {
		return err
	}
	return w.WaitDurable(seq)
}

// AppendBatch appends every payload as its own record — framed identically
// to N sequential Append calls, so readers cannot tell the difference —
// but stages all frames into one reused buffer and issues a single
// buffered write. The whole batch therefore pays one lock acquisition and
// one writer hand-off instead of N. It returns the sequence number of the
// batch's LAST record; pass it to WaitDurable to make the entire batch
// durable with one group-commit wait (or use AppendBatchDurable).
//
// The batch is all-or-nothing at the framing level: an oversized payload
// fails the call before any byte of the batch reaches the log.
func (w *Writer) AppendBatch(payloads [][]byte) (uint64, error) {
	seq, err := w.appendBatch(payloads)
	nudge(w.dirty)
	return seq, err
}

// AppendBatchDurable appends the batch and blocks until all of it has been
// fsynced — one durability wait for the burst.
func (w *Writer) AppendBatchDurable(payloads [][]byte) error {
	seq, err := w.appendBatch(payloads)
	if err != nil {
		return err
	}
	if len(payloads) == 0 {
		return nil
	}
	return w.WaitDurable(seq)
}

// batchBufRetain caps the staging buffer kept across batches: a one-off
// giant batch must not pin its buffer on the writer forever.
const batchBufRetain = 1 << 20

func (w *Writer) appendBatch(payloads [][]byte) (uint64, error) {
	total := 0
	for _, p := range payloads {
		if len(p) > MaxRecord {
			return 0, fmt.Errorf("wal: record of %d bytes exceeds MaxRecord", len(p))
		}
		total += frameSize + len(p)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, errors.New("wal: writer closed")
	}
	if w.err != nil {
		return 0, w.err
	}
	if len(payloads) == 0 {
		return w.seq, nil
	}
	if cap(w.batchBuf) < total {
		w.batchBuf = make([]byte, 0, total)
	}
	buf := w.batchBuf[:0]
	for _, p := range payloads {
		var frame [frameSize]byte
		binary.LittleEndian.PutUint32(frame[0:4], uint32(len(p)))
		binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(p))
		buf = append(buf, frame[:]...)
		buf = append(buf, p...)
	}
	if cap(buf) <= batchBufRetain {
		w.batchBuf = buf
	} else {
		w.batchBuf = nil
	}
	if fault.Enabled() {
		if allowed, ferr := fault.WriteLimit(FailpointWrite, len(buf)); ferr != nil {
			w.poisonTornLocked(nil, buf, allowed, ferr)
			return 0, w.err
		}
	}
	if _, err := w.bw.Write(buf); err != nil {
		w.err = fmt.Errorf("wal: write failed (writer poisoned): %w", err)
		return 0, w.err
	}
	w.seq += uint64(len(payloads))
	return w.seq, nil
}

func (w *Writer) append(payload []byte) (uint64, error) {
	if len(payload) > MaxRecord {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds MaxRecord", len(payload))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, errors.New("wal: writer closed")
	}
	if w.err != nil {
		return 0, w.err
	}
	binary.LittleEndian.PutUint32(w.frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.frame[4:8], crc32.ChecksumIEEE(payload))
	if fault.Enabled() {
		if allowed, ferr := fault.WriteLimit(FailpointWrite, frameSize+len(payload)); ferr != nil {
			w.poisonTornLocked(w.frame[:], payload, allowed, ferr)
			return 0, w.err
		}
	}
	if _, err := w.bw.Write(w.frame[:]); err != nil {
		w.err = fmt.Errorf("wal: write failed (writer poisoned): %w", err)
		return 0, w.err
	}
	if _, err := w.bw.Write(payload); err != nil {
		w.err = fmt.Errorf("wal: write failed (writer poisoned): %w", err)
		return 0, w.err
	}
	w.seq++
	return w.seq, nil
}

// poisonTornLocked emulates a failing device under an armed write
// failpoint: the first `allowed` bytes of the framed record reach the file
// (flushed, so a subsequent recovery scan sees a realistic torn tail), then
// the writer poisons itself with the injected error. Caller holds w.mu.
func (w *Writer) poisonTornLocked(frame, payload []byte, allowed int, cause error) {
	full := make([]byte, 0, len(frame)+len(payload))
	full = append(full, frame...)
	full = append(full, payload...)
	if allowed > len(full) {
		allowed = len(full)
	}
	if allowed > 0 {
		w.bw.Write(full[:allowed])
	}
	w.bw.Flush()
	w.err = fmt.Errorf("wal: write failed (writer poisoned): %w", cause)
}

// nudge leaves a token for the flusher without blocking (one pending token
// per channel suffices: the flusher acts on state, not on the count).
func nudge(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// flushLoop is the group-commit flusher. It is clocked by its own syncs,
// not by a timer: a waiter token starts a flush+fsync at once, and waiters
// that arrive while it runs leave one token that starts the next sync the
// moment this one returns. Only records nobody waits for are deferred, by
// lazySyncDelay, and a waiter arriving meanwhile cuts the delay short.
func (w *Writer) flushLoop() {
	defer close(w.stopped)
	lazy := time.NewTimer(lazySyncDelay)
	lazy.Stop()
	for {
		select {
		case <-w.quit:
			return
		case <-w.waiter:
		case <-w.dirty:
			lazy.Reset(lazySyncDelay)
			select {
			case <-lazy.C:
			case <-w.waiter:
				lazy.Stop()
			case <-w.quit:
				lazy.Stop()
				return
			}
		}
		w.flushAndSync()
	}
}

// flushAndSync makes every record appended so far durable and releases the
// waiters covered by it. It is the enforcement point of the fail-stop
// contract: once the writer is poisoned (a prior write, flush, or fsync
// failed) it never touches the file again — retrying fsync after a failure
// and acknowledging on success would trust pages the kernel may already
// have dropped — and instead fails every waiter with the original error.
func (w *Writer) flushAndSync() {
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		w.failWaiters(err)
		return
	}
	seq := w.seq
	err := w.bw.Flush()
	if err != nil {
		w.err = fmt.Errorf("wal: flush failed (writer poisoned): %w", err)
		err = w.err
	}
	f := w.f
	w.mu.Unlock()

	if err == nil {
		var serr error
		if fault.Enabled() {
			serr = fault.Hit(FailpointSync)
		}
		if serr == nil && !w.noSync {
			serr = f.Sync()
		}
		if serr != nil {
			w.mu.Lock()
			if w.err == nil {
				w.err = fmt.Errorf("wal: fsync failed (writer poisoned): %w", serr)
			}
			err = w.err
			w.mu.Unlock()
		}
	}

	w.cmu.Lock()
	if err == nil {
		if seq > w.committed {
			w.committed = seq
		}
	} else if w.syncErr == nil {
		w.syncErr = err
	}
	w.cond.Broadcast()
	w.cmu.Unlock()
}

// failWaiters releases every durability waiter with err (first error
// sticks), without touching the file.
func (w *Writer) failWaiters(err error) {
	w.cmu.Lock()
	if w.syncErr == nil {
		w.syncErr = err
	}
	w.cond.Broadcast()
	w.cmu.Unlock()
}

// Err returns the writer's sticky error: nil while healthy, the original
// write/flush/fsync failure once poisoned.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Sync flushes and fsyncs everything appended so far, synchronously.
func (w *Writer) Sync() error {
	w.flushAndSync()
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Close stops the flusher, syncs outstanding records, and closes the file.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()

	close(w.quit)
	<-w.stopped
	w.flushAndSync()

	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Close(); err != nil && w.err == nil {
		w.err = err
	}
	// Wake any durable waiter stuck behind a failed sync.
	w.cmu.Lock()
	w.cond.Broadcast()
	w.cmu.Unlock()
	return w.err
}

// envelopeHeader is the first line of an envelope file: enough to validate
// the payload before trusting a byte of it.
type envelopeHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	Length  int    `json:"length"`
	CRC32   uint32 `json:"crc32"`
}

// WriteEnvelope writes a checksummed snapshot envelope: a one-line JSON
// header carrying the format name, version, payload length, and payload
// CRC32, followed by the payload bytes. Readers can reject truncated or
// corrupted files before parsing the payload at all.
func WriteEnvelope(w io.Writer, format string, version int, payload []byte) error {
	if len(payload) > MaxEnvelope {
		return fmt.Errorf("wal: %s payload of %d bytes exceeds MaxEnvelope", format, len(payload))
	}
	hdr, err := json.Marshal(envelopeHeader{
		Format:  format,
		Version: version,
		Length:  len(payload),
		CRC32:   crc32.ChecksumIEEE(payload),
	})
	if err != nil {
		return fmt.Errorf("wal: encoding envelope header: %w", err)
	}
	hdr = append(hdr, '\n')
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("wal: writing envelope header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("wal: writing envelope payload: %w", err)
	}
	return nil
}

// ReadEnvelope reads an envelope written by WriteEnvelope, validating the
// format name, version bound, exact payload length, and CRC32. It returns
// the header's version and the payload bytes.
func ReadEnvelope(r io.Reader, format string, maxVersion int) (int, []byte, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	line, err := br.ReadBytes('\n')
	if err != nil {
		return 0, nil, fmt.Errorf("%w: truncated envelope header", ErrCorrupt)
	}
	var hdr envelopeHeader
	if err := json.Unmarshal(line, &hdr); err != nil {
		return 0, nil, fmt.Errorf("%w: bad envelope header: %v", ErrCorrupt, err)
	}
	if hdr.Format != format {
		return 0, nil, fmt.Errorf("%w: envelope format %q, want %q", ErrCorrupt, hdr.Format, format)
	}
	if hdr.Version < 1 || hdr.Version > maxVersion {
		return 0, nil, fmt.Errorf("%w: unsupported %s version %d", ErrCorrupt, format, hdr.Version)
	}
	if hdr.Length < 0 || hdr.Length > MaxEnvelope {
		return 0, nil, fmt.Errorf("%w: envelope length %d out of range", ErrCorrupt, hdr.Length)
	}
	payload := make([]byte, hdr.Length)
	if _, err := io.ReadFull(br, payload); err != nil {
		return 0, nil, fmt.Errorf("%w: envelope payload truncated", ErrCorrupt)
	}
	if crc32.ChecksumIEEE(payload) != hdr.CRC32 {
		return 0, nil, fmt.Errorf("%w: envelope checksum mismatch", ErrCorrupt)
	}
	return hdr.Version, payload, nil
}
