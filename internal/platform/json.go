package platform

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"sync"

	"lightor/internal/chat"
	"lightor/internal/play"
)

// This file is the JSON plumbing for the service's hot endpoints. Both
// directions are pooled:
//
//   - Responses render through a jsonResponder — a bytes.Buffer with a
//     json.Encoder permanently bound to it — so the per-request cost is one
//     pool round-trip instead of a fresh encoder plus a growing buffer.
//     Rendering into the buffer first also means an encode failure is
//     reported as a clean 500 (and logged) instead of a torn 200 body.
//   - Request bodies stream-decode through a streamDecoder[T]: the decoder
//     reads the JSON array element by element into a reused slice, so a
//     10k-message burst costs one pooled buffer, not an intermediate
//     garbage slice per request. The json.Decoder itself is reused across
//     requests via a resettable reader proxy; a decoder that saw a
//     malformed body (or one with trailing buffered bytes) is discarded
//     rather than repooled, because its internal state can no longer be
//     trusted.

// maxPooledResponse caps the response buffer retained in the pool; a
// one-off giant payload must not pin its buffer forever.
const maxPooledResponse = 64 << 10

// maxPooledElems caps the decoded-element buffer retained in the pool.
const maxPooledElems = 4096

// jsonResponder is a reusable response encoder: the Encoder is constructed
// once over the buffer and survives pool round-trips.
type jsonResponder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var respPool = sync.Pool{
	New: func() any {
		jr := &jsonResponder{}
		jr.enc = json.NewEncoder(&jr.buf)
		return jr
	},
}

// writeJSONStatus renders v into a pooled buffer and writes it with an
// explicit status code. The Content-Type header is set before WriteHeader
// (or it would be lost), and encode failures are logged and turned into a
// 500 — never silently dropped, never a half-written 2xx body.
func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	jr := respPool.Get().(*jsonResponder)
	jr.buf.Reset()
	if err := jr.enc.Encode(v); err != nil {
		respPool.Put(jr)
		log.Printf("platform: encoding %T response: %v", v, err)
		http.Error(w, "encoding response failed", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(jr.buf.Bytes()); err != nil {
		// The client went away mid-response; log at debug-ish level so
		// operators can correlate, but there is nobody left to answer.
		log.Printf("platform: writing response: %v", err)
	}
	if jr.buf.Cap() <= maxPooledResponse {
		respPool.Put(jr)
	}
}

// writeJSON renders v with status 200.
func writeJSON(w http.ResponseWriter, v any) {
	writeJSONStatus(w, http.StatusOK, v)
}

// readerProxy lets one long-lived json.Decoder read successive request
// bodies: point r at the next body and the decoder's refills follow.
type readerProxy struct{ r io.Reader }

func (p *readerProxy) Read(b []byte) (int, error) { return p.r.Read(b) }

// streamDecoder decodes a JSON array of T off a reader element by element
// into a reused slice. One instance serves many requests via its pool.
// (Chat — the highest-rate stream — bypasses this entirely through
// chatIngest's reflection-free array parse below.)
type streamDecoder[T any] struct {
	src   readerProxy
	dec   *json.Decoder
	elems []T
	// reusable is set only after a body parsed cleanly through EOF: the
	// decoder's internal buffer is then provably empty and its state is
	// "before a top-level value", i.e. exactly a fresh decoder's.
	reusable bool
}

func newStreamDecoder[T any]() *streamDecoder[T] {
	d := &streamDecoder[T]{}
	d.dec = json.NewDecoder(&d.src)
	return d
}

var errNotArray = errors.New("payload must be a JSON array")

// decode parses one array body. The returned slice is the decoder's reused
// buffer — valid only until release.
func (d *streamDecoder[T]) decode(body io.Reader) ([]T, error) {
	d.src.r = body
	d.elems = d.elems[:0]
	d.reusable = false
	tok, err := d.dec.Token()
	if err != nil {
		return nil, err
	}
	if delim, ok := tok.(json.Delim); !ok || delim != '[' {
		return nil, errNotArray
	}
	for d.dec.More() {
		// append a zero T, then decode in place: the zero value guarantees
		// no field leaks from a previous request's element in this slot.
		var zero T
		d.elems = append(d.elems, zero)
		if err := d.dec.Decode(&d.elems[len(d.elems)-1]); err != nil {
			return nil, err
		}
	}
	if _, err := d.dec.Token(); err != nil { // consume ']'
		return nil, err
	}
	// Probe for EOF. Only a body that was exactly one array is safe to
	// reuse the decoder after; trailing bytes are tolerated for the caller
	// (the old per-request Decode ignored them too) but poison reuse.
	if _, err := d.dec.Token(); err == io.EOF {
		d.reusable = true
	}
	return d.elems, nil
}

// release returns the decoder to its pool when its state is trustworthy,
// zeroing the element buffer so pooled slots never pin request payloads.
func (d *streamDecoder[T]) release(pool *sync.Pool) {
	d.src.r = nil
	clear(d.elems)
	d.elems = d.elems[:0]
	if d.reusable && cap(d.elems) <= maxPooledElems {
		pool.Put(d)
	}
}

// eventDecPool serves POST /api/interactions.
var eventDecPool = sync.Pool{New: func() any { return newStreamDecoder[play.Event]() }}

// chatIngest is the live-chat endpoint's pooled request state: the raw
// body accumulates into a reused buffer and the message array parses in
// one reflection-free pass (chat.AppendMessagesJSON); bodies outside the
// fast shape re-decode through encoding/json on the same buffer, so
// observable semantics stay the stdlib's. Chat is the highest-rate stream
// in the system — at goal-moment burst rates this path costs one allocation
// per request: the string copy of the body that every decoded User and Text
// is a substring of (which is also what lets buf be refilled at once).
type chatIngest struct {
	buf   []byte
	elems []chat.Message
}

// maxPooledBody caps the body buffer retained in the pool.
const maxPooledBody = 1 << 20

var chatIngestPool = sync.Pool{
	New: func() any { return &chatIngest{buf: make([]byte, 0, 4096)} },
}

// decode reads the whole body and parses it as a JSON array of messages.
// Matching the endpoint's historical json.Decoder semantics, only the
// first JSON value is read — trailing bytes after the array are ignored.
// The returned slice is pooled — valid only until release.
func (ci *chatIngest) decode(body io.Reader) ([]chat.Message, error) {
	var err error
	ci.buf, err = readAllInto(ci.buf[:0], body)
	if err != nil {
		return nil, err
	}
	msgs, _, ok := chat.AppendMessagesJSON(ci.elems[:0], ci.buf)
	if ok {
		ci.elems = msgs
		return msgs, nil
	}
	// Outside the fast shape (escapes, unknown keys, or just malformed):
	// encoding/json is the arbiter. Clear the whole capacity first — the
	// stdlib merges into existing elements, and slots may hold a partial
	// fast-path prefix (or an earlier request's zeroed remains).
	ci.elems = ci.elems[:cap(ci.elems)]
	clear(ci.elems)
	ci.elems = ci.elems[:0]
	if err := json.NewDecoder(bytes.NewReader(ci.buf)).Decode(&ci.elems); err != nil {
		return nil, err
	}
	return ci.elems, nil
}

// release recycles the request state, zeroing decoded messages so the pool
// never pins chat text.
func (ci *chatIngest) release() {
	clear(ci.elems)
	ci.elems = ci.elems[:0]
	if cap(ci.buf) <= maxPooledBody && cap(ci.elems) <= maxPooledElems {
		chatIngestPool.Put(ci)
	}
}

// readAllInto is io.ReadAll into a reused buffer.
func readAllInto(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}
