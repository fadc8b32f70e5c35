package text

import (
	"fmt"
	"math"
)

// SimilarityAccumulator computes the message-similarity feature of a window
// incrementally: messages are added one at a time (tokenized exactly once)
// and the running state is enough to produce the window's similarity at any
// moment in O(1). Adding a message costs O(tokens in that message); nothing
// is ever recomputed over the window's earlier messages, and no dense
// vectors are materialized — the accumulator is the sparse, streaming form
// of RawMessageSimilarity / MessageSimilarity and matches them to floating-
// point accuracy (the differential tests pin the agreement at 1e-12).
//
// The algebra: with binary bag-of-words vectors, the one-cluster k-means
// center is c[t] = count[t]/n where count[t] is the number of messages
// containing token t. A message m with distinct-token set T_m then has
//
//	cos(v_m, c) = Σ_{t∈T_m} count[t] / (√|T_m| · √Σ_t count[t]²)
//
// so the window's raw similarity (the mean cosine over all n messages) is
//
//	raw = dotSum / (n · √sumSq)
//	dotSum = Σ_t count[t]·weight[t],  weight[t] = Σ_{m∋t} 1/√|T_m|
//	sumSq  = Σ_t count[t]²
//
// and both dotSum and sumSq admit O(1)-per-token incremental updates when a
// message arrives: for each distinct token of the message, with w = 1/√|T_m|,
//
//	dotSum += count[t]·w + weight[t] + w     (Δ of (count+1)(weight+w))
//	sumSq  += 2·count[t] + 1                 (Δ of (count+1)²)
//
// Empty messages count toward n but contribute nothing else, mirroring the
// zero-vector convention of Cosine.
//
// The zero value is not ready for use; call Reset first (or use
// NewSimilarityAccumulator). Reset reuses all internal buffers, so one
// accumulator serves an unbounded stream of windows; buffers a flash crowd
// inflated are released again once ordinary windows follow (see Reset).
type SimilarityAccumulator struct {
	vocab   windowVocab // token → dense id for this window
	counts  []float64   // id → number of messages containing the token
	weights []float64   // id → Σ 1/√|T_m| over messages containing it
	seen    []int       // id → ordinal of the last message containing it
	n       int         // messages added, including empty ones
	dotSum  float64     // Σ_t counts[t]·weights[t], maintained incrementally
	sumSq   float64     // Σ_t counts[t]², maintained incrementally

	distinct []int        // scratch: distinct token ids of the message being added
	scan     tokenScanner // scratch: the tokens of the message being added
}

// scanShrinkBytes is the scan scratch an accumulator keeps across windows;
// ordinary chat messages are two orders of magnitude shorter.
const scanShrinkBytes = 8 << 10

// NewSimilarityAccumulator returns a ready-to-use accumulator.
func NewSimilarityAccumulator() *SimilarityAccumulator {
	a := &SimilarityAccumulator{}
	a.Reset()
	return a
}

// Reset clears the accumulator for a fresh window in O(1): nothing is
// cleared or walked, whatever the size of the window just closed. Internal
// buffers (the vocabulary's table and token arena, the per-token arrays,
// the scan scratch) are retained, so windows after the first few allocate
// nothing — except where that would pin a flash crowd's memory for the rest
// of the session: when the vocabulary drops a table the crowd inflated (the
// window just closed used under 1/8 of it) the per-token arrays sized for
// that crowd go with it, and scan scratch stretched by an outsized message
// is dropped outright.
func (a *SimilarityAccumulator) Reset() {
	if a.vocab.reset() {
		a.counts, a.weights, a.seen, a.distinct = nil, nil, nil, nil
	}
	if cap(a.scan.buf) > scanShrinkBytes {
		a.scan = tokenScanner{}
	}
	a.counts = a.counts[:0]
	a.weights = a.weights[:0]
	a.seen = a.seen[:0]
	a.distinct = a.distinct[:0]
	a.n = 0
	a.dotSum = 0
	a.sumSq = 0
}

// Messages returns the number of messages added since the last Reset.
func (a *SimilarityAccumulator) Messages() int { return a.n }

// Add folds one message into the window and returns its word count (the
// total token count, duplicates included — the paper's message-length
// feature), so callers tokenize each message exactly once for both the
// length and similarity features. Add performs no allocations once the
// buffers have grown to the stream's working size: a token new to the
// window is an append to the vocabulary's arena, not a heap string.
func (a *SimilarityAccumulator) Add(message string) (words int) {
	a.n++
	a.distinct = a.distinct[:0]
	a.scan.scan(message)
	start := 0
	for _, end := range a.scan.ends {
		id, added := a.vocab.intern(a.scan.buf[start:end])
		start = end
		if added {
			a.counts = append(a.counts, 0)
			a.weights = append(a.weights, 0)
			a.seen = append(a.seen, 0) // message ordinals start at 1
		}
		if a.seen[id] != a.n {
			a.seen[id] = a.n
			a.distinct = append(a.distinct, id)
		}
	}

	if k := len(a.distinct); k > 0 {
		w := 1 / math.Sqrt(float64(k))
		for _, id := range a.distinct {
			c, wt := a.counts[id], a.weights[id]
			a.dotSum += float64(c*w) + wt + w
			a.sumSq += 2*c + 1
			a.counts[id] = c + 1
			a.weights[id] = wt + w
		}
	}
	return len(a.scan.ends)
}

// AccumulatorState is the complete incremental state of a
// SimilarityAccumulator, exported so a mid-window accumulator can be
// checkpointed and reconstructed bit-identically (the durable-session
// machinery snapshots live detectors between messages). Tokens are listed
// in dense-id order; Counts, Weights, and Seen are parallel to it.
type AccumulatorState struct {
	Tokens  []string
	Counts  []float64
	Weights []float64
	Seen    []int
	N       int
	DotSum  float64
	SumSq   float64
}

// State returns a deep copy of the accumulator's incremental state.
func (a *SimilarityAccumulator) State() AccumulatorState {
	st := AccumulatorState{
		Tokens:  a.vocab.tokens(),
		Counts:  append([]float64(nil), a.counts...),
		Weights: append([]float64(nil), a.weights...),
		Seen:    append([]int(nil), a.seen...),
		N:       a.n,
		DotSum:  a.dotSum,
		SumSq:   a.sumSq,
	}
	return st
}

// SetState restores the accumulator to a previously captured state. The
// restored accumulator continues exactly where the captured one stood: the
// same vocabulary ids, running sums, and per-token ordinals, so subsequent
// Adds produce bit-identical similarity values. Internal buffers are reused
// where capacity allows.
func (a *SimilarityAccumulator) SetState(st AccumulatorState) error {
	k := len(st.Tokens)
	if len(st.Counts) != k || len(st.Weights) != k || len(st.Seen) != k {
		return fmt.Errorf("text: inconsistent accumulator state: %d tokens, %d counts, %d weights, %d seen",
			k, len(st.Counts), len(st.Weights), len(st.Seen))
	}
	if st.N < 0 {
		return fmt.Errorf("text: negative message count %d", st.N)
	}
	a.Reset()
	for _, tok := range st.Tokens {
		a.scan.buf = append(a.scan.buf[:0], tok...)
		if _, added := a.vocab.intern(a.scan.buf); !added {
			a.Reset()
			return fmt.Errorf("text: duplicate token %q in accumulator state", tok)
		}
	}
	a.counts = append(a.counts[:0], st.Counts...)
	a.weights = append(a.weights[:0], st.Weights...)
	a.seen = append(a.seen[:0], st.Seen...)
	a.n = st.N
	a.dotSum = st.DotSum
	a.sumSq = st.SumSq
	return nil
}

// Raw returns the window's unnormalized mean cosine-to-centroid and the
// number of messages, matching RawMessageSimilarity over the same messages
// in the same order.
func (a *SimilarityAccumulator) Raw() (sim float64, n int) {
	if a.n < 2 || a.sumSq == 0 {
		return 0, a.n
	}
	return a.dotSum / (math.Sqrt(a.sumSq) * float64(a.n)), a.n
}

// Similarity returns the normalized similarity feature, matching
// MessageSimilarity: the raw mean cosine rescaled against the 1/√n
// orthogonal-messages baseline and clamped at 0.
func (a *SimilarityAccumulator) Similarity() float64 {
	raw, n := a.Raw()
	if n < 2 {
		return 0
	}
	baseline := 1 / math.Sqrt(float64(n))
	adjusted := (raw - baseline) / (1 - baseline)
	if adjusted < 0 {
		return 0
	}
	return adjusted
}
