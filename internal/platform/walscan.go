package platform

import (
	"encoding/base64"
	"strings"

	"lightor/internal/chat"
	"lightor/internal/jsonscan"
	"lightor/internal/play"
)

// This file is decodeWALRecord's fast path: a reflection-free parser for
// the records json.Marshal writes on the hot write paths — put_video,
// events, ckpt and del_ckpt — that walks each object with jsonscan.Object
// and decodes a record's event and chat arrays with the ingest endpoints'
// own decoders (play.ScanEventsJSON, chat.ScanMessagesJSON). It either
// produces the walRecord json.Unmarshal would or refuses, and
// decodeWALRecord then asks json.Unmarshal; FuzzDecodeWALRecord enforces
// the equivalence differentially. Refused are the keys it does not know
// (dots, spans, red_dots, boundaries, any case-folded spelling), null
// anywhere but a video's chat, any string holding an escape (jsonscan
// leaves escapes to encoding/json), and a key that repeats: encoding/json
// merges a repeated object or array into the earlier value, a rule only it
// should implement. That refusal is scanObject's, not jsonscan's: the
// ingest decoders hold no container values, so for them a repeated key
// overwrites, as in the stdlib.
//
// The payload is copied to one string per record (the WAL's scan buffer is
// reused) and every decoded string is a substring of it. Before the record
// is returned, the strings the backend keeps are packed into one string of
// their own, so that the recovered state does not pin every payload, keys,
// numbers and punctuation included. A record costs those two allocations
// and its slices' growth, however many strings it holds.

// One bit per key, for scanObject to tell a repeated key.
const (
	walKeyOp = 1 << iota
	walKeyID
	walKeyChannel
	walKeyState
	walKeyEvents
	walKeyVideo
	walKeyDuration
	walKeyChat
)

// scanWALRecord decodes one WAL payload, or reports ok == false when its
// answer might differ from json.Unmarshal's.
func scanWALRecord(data string) (rec walRecord, ok bool) {
	i, ok := scanObject(data, jsonscan.SkipSpace(data, 0), func(key string, i int) (next, bit int, ok bool) {
		switch key {
		case "op":
			rec.Op, next, ok = jsonscan.String(data, i)
			return next, walKeyOp, ok
		case "id":
			rec.ID, next, ok = jsonscan.String(data, i)
			return next, walKeyID, ok
		case "channel":
			rec.Channel, next, ok = jsonscan.String(data, i)
			return next, walKeyChannel, ok
		case "state":
			rec.State, next, ok = scanBase64(data, i)
			return next, walKeyState, ok
		case "events":
			// An empty array decodes to an empty slice, not nil.
			rec.Events, next, ok = play.ScanEventsJSON([]play.Event{}, data, i)
			return next, walKeyEvents, ok
		case "video":
			rec.Video, next, ok = scanVideoSnapshot(data, i)
			return next, walKeyVideo, ok
		}
		return 0, 0, false
	})
	if !ok || jsonscan.SkipSpace(data, i) != len(data) {
		return walRecord{}, false
	}
	packStrings(&rec)
	return rec, true
}

// packStrings moves the strings of a scanned record into one allocation of
// their total length: one pass sums the lengths, one copies the strings,
// one re-points each at its copy.
func packStrings(rec *walRecord) {
	n := 0
	eachKept(rec, func(s string) string { n += len(s); return s })
	var b strings.Builder
	b.Grow(n)
	eachKept(rec, func(s string) string { b.WriteString(s); return s })
	packed := b.String()
	eachKept(rec, func(s string) string {
		s, packed = packed[:len(s)], packed[len(s):]
		return s
	})
}

// eachKept replaces each string of rec that the backend keeps once the
// record is applied with f of it. (f takes and returns the string rather
// than a pointer to it so that rec does not escape to the heap.)
func eachKept(rec *walRecord, f func(string) string) {
	rec.ID = f(rec.ID)
	rec.Channel = f(rec.Channel)
	for i := range rec.Events {
		rec.Events[i].User = f(rec.Events[i].User)
	}
	if v := rec.Video; v != nil {
		v.ID = f(v.ID)
		for i := range v.Chat {
			v.Chat[i].User = f(v.Chat[i].User)
			v.Chat[i].Text = f(v.Chat[i].Text)
		}
	}
}

// scanVideoSnapshot decodes a put_video record's video object at data[i].
func scanVideoSnapshot(data string, i int) (v *videoSnapshot, next int, ok bool) {
	v = new(videoSnapshot)
	next, ok = scanObject(data, i, func(key string, i int) (next, bit int, ok bool) {
		switch key {
		case "id":
			v.ID, next, ok = jsonscan.String(data, i)
			return next, walKeyID, ok
		case "duration":
			v.Duration, next, ok = jsonscan.Float(data, i)
			return next, walKeyDuration, ok
		case "chat":
			// json.Marshal writes a chatless video's nil log as null, and
			// applyWALRecord tells nil (no log) from empty.
			if strings.HasPrefix(data[i:], "null") {
				return i + len("null"), walKeyChat, true
			}
			v.Chat, next, ok = chat.ScanMessagesJSON([]chat.Message{}, data, i)
			return next, walKeyChat, ok
		}
		return 0, 0, false
	})
	return v, next, ok
}

// scanObject walks the object at data[i] with jsonscan.Object, handing each
// member's key and value offset to member, which decodes the value and
// returns the offset past it and the key's bit. It refuses a key that
// repeats and returns the offset past the closing brace.
func scanObject(data string, i int, member func(key string, i int) (next, bit int, ok bool)) (next int, ok bool) {
	seen := 0
	return jsonscan.Object(data, i, func(key string, i int) (int, bool) {
		next, bit, ok := member(key, i)
		if !ok || seen&bit != 0 {
			return 0, false
		}
		seen |= bit
		return next, true
	})
}

// scanBase64 decodes a []byte field the way encoding/json does: a string
// holding standard base64, decoded into a fresh slice (empty, not nil, for
// "").
func scanBase64(data string, i int) (b []byte, next int, ok bool) {
	s, next, ok := jsonscan.String(data, i)
	if !ok {
		return nil, 0, false
	}
	b = make([]byte, base64.StdEncoding.DecodedLen(len(s)))
	n, err := base64.StdEncoding.Decode(b, []byte(s))
	if err != nil {
		return nil, 0, false
	}
	return b[:n], next, true
}
