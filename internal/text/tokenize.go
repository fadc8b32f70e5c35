// Package text implements the lightweight text processing the Highlight
// Initializer needs: tokenization, bag-of-words vectors, cosine similarity,
// and the one-cluster k-means centroid used to compute the message-similarity
// feature (Section IV-C2 of the LIGHTOR paper).
//
// Two implementations of the similarity feature coexist deliberately:
//
//   - RawMessageSimilarity / MessageSimilarity build the dense vocabulary and
//     bag-of-words vectors from scratch — the paper's literal formulation,
//     kept as the reference the differential tests check against;
//   - SimilarityAccumulator maintains the same quantity incrementally and
//     sparsely as messages stream in, tokenizing each message exactly once
//     and allocating nothing in steady state. This is the form the hot
//     per-message Feed path uses; core.FeatureAccumulator builds on it.
//
// The accumulator is where a live chat message spends most of its time, so
// its two inner pieces are purpose-built: a byte-class tokenizer
// (tokenScanner) and an arena-backed window vocabulary with O(1) reset
// (windowVocab). The reference path keeps the plain Vocabulary below.
package text

import (
	"unicode"
	"unicode/utf8"
)

// isTokenRune reports whether r belongs inside a token. Tokens are maximal
// runs of letters, digits, or symbol runes; this keeps emoji and emote codes
// (e.g. "PogChamp", "👍") as tokens, which matters because excited viewers
// spam exactly those.
func isTokenRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || unicode.IsSymbol(r)
}

// byteClass drives the scan loop one byte at a time. Chat text is almost
// entirely ASCII, so the per-rune unicode range searches are folded into a
// 256-entry table built once, from the same predicates the rune path uses:
//
//   - byteSep: an ASCII byte that is not part of a token;
//   - byteRune: a byte ≥ 0x80 — decode the rune and classify it the slow way;
//   - anything else: the lowercase form of an ASCII token byte (upper-case
//     letters map to their lower-case byte, the rest to themselves).
//
// NUL is a control character and no ASCII byte folds to 0xFF, so neither
// sentinel collides with a folded byte.
const (
	byteSep  = 0x00
	byteRune = 0xFF
)

var byteClass = func() (t [256]byte) {
	for b := 0; b < utf8.RuneSelf; b++ {
		if isTokenRune(rune(b)) {
			t[b] = byte(unicode.ToLower(rune(b)))
		}
	}
	for b := utf8.RuneSelf; b < len(t); b++ {
		t[b] = byteRune
	}
	return t
}()

// tokenScanner splits strings into lowercase tokens. It is the single
// tokenization loop behind Tokenize, WordCount, and the streaming
// SimilarityAccumulator, so every consumer agrees byte-for-byte on token
// boundaries and case folding. Invalid UTF-8 decodes to U+FFFD one byte at a
// time, exactly as ranging over the string would.
//
// After scan, the tokens of the string lie back to back in buf and ends[k]
// is the offset just past token k (token k starts where token k-1 ends).
// Both buffers are scratch, reused by the next scan.
type tokenScanner struct {
	buf  []byte
	ends []int
}

// tokenSlack is the spare capacity scan leaves behind the last token, so
// that consumers may load any token's first 8 bytes as one word.
const tokenSlack = 8

// scan tokenizes s. The ASCII path is branch-free per byte: where a token
// ends is not something a branch predictor can learn, so every byte stores
// its folded form and the running end offset, and advances the two cursors
// by 0 or 1 — a separator's store is simply overwritten by the next byte.
func (sc *tokenScanner) scan(s string) {
	// Every input byte yields at most one output byte on the ASCII path, and
	// tokens need a separator between them. The rune path re-establishes the
	// byte bound after each rune (lowercasing can lengthen the encoding).
	if cap(sc.buf) < len(s)+tokenSlack {
		sc.buf = make([]byte, len(s)+len(s)/4+tokenSlack)
	}
	if maxTokens := len(s)/2 + 1; cap(sc.ends) <= maxTokens {
		sc.ends = make([]int, maxTokens+1+maxTokens/4)
	}
	buf, ends := sc.buf[:cap(sc.buf)], sc.ends[:cap(sc.ends)]
	n, k := 0, 0 // bytes written, tokens completed
	inTok := 0   // 1 while the previous rune was part of a token
	for i := 0; i < len(s); {
		c := byteClass[s[i]]
		isTok := int(uint(c)+0xFF) >> 8 // 0 for byteSep, else 1
		if c != byteRune {
			i++
			buf[n] = c
			n += isTok
		} else {
			r, size := utf8.DecodeRuneInString(s[i:])
			i += size
			if isTokenRune(r) {
				buf = utf8.AppendRune(buf[:n], unicode.ToLower(r))
				n = len(buf)
				if need := n + len(s) - i + tokenSlack; cap(buf) < need {
					buf = append(buf, make([]byte, need-n)...)
				}
				buf = buf[:cap(buf)]
			} else {
				isTok = 0
			}
		}
		ends[k] = n
		k += inTok &^ isTok // a token just ended
		inTok = isTok
	}
	ends[k] = n
	k += inTok
	sc.buf, sc.ends = buf[:n], ends[:k]
}

// Tokenize splits a chat message into lowercase word tokens (see
// isTokenRune for the token alphabet).
func Tokenize(s string) []string {
	var sc tokenScanner
	sc.scan(s)
	if len(sc.ends) == 0 {
		return nil
	}
	tokens := make([]string, len(sc.ends))
	start := 0
	for k, end := range sc.ends {
		tokens[k] = string(sc.buf[start:end])
		start = end
	}
	return tokens
}

// WordCount returns the number of word tokens in a message. The paper
// defines message length as "the number of words in the message"
// (Section IV-C2).
func WordCount(s string) int {
	var sc tokenScanner
	sc.scan(s)
	return len(sc.ends)
}

// Vocabulary maps tokens to dense indices. A fresh vocabulary is built per
// sliding window: message similarity only compares messages inside the same
// window, so vocabularies never need to be shared or persisted.
type Vocabulary struct {
	index map[string]int
	words []string
}

// NewVocabulary returns an empty vocabulary.
func NewVocabulary() *Vocabulary {
	return &Vocabulary{index: make(map[string]int)}
}

// Add inserts a token if absent and returns its index.
func (v *Vocabulary) Add(token string) int {
	if i, ok := v.index[token]; ok {
		return i
	}
	i := len(v.words)
	v.index[token] = i
	v.words = append(v.words, token)
	return i
}

// Index returns the index for token and whether it is present.
func (v *Vocabulary) Index(token string) (int, bool) {
	i, ok := v.index[token]
	return i, ok
}

// Word returns the token at index i.
func (v *Vocabulary) Word(i int) string { return v.words[i] }

// Len returns the vocabulary size.
func (v *Vocabulary) Len() int { return len(v.words) }

// BuildVocabulary tokenizes every message and returns the vocabulary over
// all tokens seen.
func BuildVocabulary(messages []string) *Vocabulary {
	v := NewVocabulary()
	for _, m := range messages {
		for _, tok := range Tokenize(m) {
			v.Add(tok)
		}
	}
	return v
}
