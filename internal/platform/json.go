package platform

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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
//   - Request bodies of the two write streams — chat messages and player
//     events — are read into a pooled buffer and parsed in one
//     reflection-free pass into a pooled slice (arrayIngest); a body outside
//     the parser's fast shape re-decodes through encoding/json on the same
//     buffer, so what is accepted, and as what, stays the stdlib's to say.

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

// arrayIngest is a write endpoint's pooled request state: the raw body
// accumulates into a reused buffer and the JSON array parses in one
// reflection-free pass (chat.AppendMessagesJSON, play.AppendEventsJSON);
// bodies outside the fast shape re-decode through encoding/json on the same
// buffer, so observable semantics stay the stdlib's. Chat is the
// highest-rate stream in the system — at goal-moment burst rates this path
// costs one allocation per request: the string copy of the body that every
// decoded string field is a substring of (which is also what lets buf be
// refilled at once).
type arrayIngest[T any] struct {
	buf   []byte
	elems []T
}

// maxPooledBody caps the body buffer retained in the pool.
const maxPooledBody = 1 << 20

// maxIngestBody caps a write endpoint's request body: the owner refuses
// what a forwarding node would refuse, with the same 413, so one hostile
// POST cannot grow the process until it dies.
const maxIngestBody = maxForwardBody

// errBodyTooLarge reports a request body over maxIngestBody.
var errBodyTooLarge = errors.New("request body too large")

// chatIngestPool serves POST /api/live/chat, eventIngestPool
// POST /api/interactions.
var (
	chatIngestPool = sync.Pool{
		New: func() any { return &arrayIngest[chat.Message]{buf: make([]byte, 0, 4096)} },
	}
	eventIngestPool = sync.Pool{
		New: func() any { return &arrayIngest[play.Event]{buf: make([]byte, 0, 4096)} },
	}
)

// decode reads the whole body and parses it as a JSON array of T, fast
// being T's array parser. Matching the endpoints' historical json.Decoder
// semantics, only the first JSON value is read — trailing bytes after the
// array are ignored. A body over maxIngestBody is errBodyTooLarge. The
// returned slice is pooled — valid only until release.
func (in *arrayIngest[T]) decode(body io.Reader, fast func(dst []T, body []byte) ([]T, int, bool)) ([]T, error) {
	var err error
	in.buf, err = readAllInto(in.buf[:0], body, maxIngestBody)
	if err != nil {
		return nil, err
	}
	elems, _, ok := fast(in.elems[:0], in.buf)
	if ok {
		in.elems = elems
		return elems, nil
	}
	// Outside the fast shape (escapes, unknown keys, or just malformed):
	// encoding/json is the arbiter. Clear the whole capacity first — the
	// stdlib merges into existing elements, and slots may hold a partial
	// fast-path prefix (or an earlier request's zeroed remains).
	in.elems = in.elems[:cap(in.elems)]
	clear(in.elems)
	in.elems = in.elems[:0]
	if err := json.NewDecoder(bytes.NewReader(in.buf)).Decode(&in.elems); err != nil {
		return nil, err
	}
	return in.elems, nil
}

// release recycles the request state into pool, zeroing the decoded
// elements so the pool never pins a request's strings. Outsized buffers
// (an over-limit body's included) are left to the GC.
func (in *arrayIngest[T]) release(pool *sync.Pool) {
	clear(in.elems)
	in.elems = in.elems[:0]
	if cap(in.buf) <= maxPooledBody && cap(in.elems) <= maxPooledElems {
		pool.Put(in)
	}
}

// readAllInto is io.ReadAll into a reused buffer, refusing a body longer
// than limit with errBodyTooLarge after reading one byte past it — enough
// to tell an oversized body from one of exactly limit bytes.
func readAllInto(buf []byte, r io.Reader, limit int) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):min(cap(buf), limit+1)])
		buf = buf[:len(buf)+n]
		if len(buf) > limit {
			return buf, errBodyTooLarge
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// ingestBodyError answers a failed arrayIngest.decode: 413 for a body over
// maxIngestBody, 400 for anything unparseable.
func ingestBodyError(w http.ResponseWriter, what string, err error) {
	if errors.Is(err, errBodyTooLarge) {
		http.Error(w, fmt.Sprintf("%s: body exceeds the %d-byte limit", what, maxIngestBody),
			http.StatusRequestEntityTooLarge)
		return
	}
	http.Error(w, fmt.Sprintf("%s: %v", what, err), http.StatusBadRequest)
}
