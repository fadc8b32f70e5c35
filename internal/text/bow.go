package text

import "math"

// BinaryVector encodes a message as a binary bag-of-words vector over a
// vocabulary: component i is 1 if word i occurs in the message. The paper
// uses exactly this representation for the message-similarity feature
// ("We use Bag of Words to represent each message as a binary vector",
// Section IV-C2).
func BinaryVector(vocab *Vocabulary, message string) []float64 {
	vec := make([]float64, vocab.Len())
	for _, tok := range Tokenize(message) {
		if i, ok := vocab.Index(tok); ok {
			vec[i] = 1
		}
	}
	return vec
}

// Vectorize encodes every message against the shared vocabulary.
func Vectorize(vocab *Vocabulary, messages []string) [][]float64 {
	out := make([][]float64, len(messages))
	for i, m := range messages {
		out[i] = BinaryVector(vocab, m)
	}
	return out
}

// Dot returns the dot product of a and b. The slices must be equal length.
func Dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += float64(a[i] * b[i])
	}
	return s
}

// Norm returns the Euclidean norm of a.
func Norm(a []float64) float64 {
	return math.Sqrt(Dot(a, a))
}

// Cosine returns the cosine similarity of a and b in [-1, 1] (binary
// vectors stay in [0, 1]). Zero vectors have similarity 0 by convention: an
// empty message is not similar to anything.
func Cosine(a, b []float64) float64 {
	na, nb := Norm(a), Norm(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// Centroid returns the component-wise mean of the vectors: the center that
// one-cluster k-means converges to in a single step under the Euclidean
// objective. The paper applies "one-cluster K-means to find the center of
// messages" (Section IV-C2).
func Centroid(vectors [][]float64) []float64 {
	if len(vectors) == 0 {
		return nil
	}
	center := make([]float64, len(vectors[0]))
	for _, v := range vectors {
		for i, x := range v {
			center[i] += x
		}
	}
	inv := 1 / float64(len(vectors))
	for i := range center {
		center[i] *= inv
	}
	return center
}

// MessageSimilarity computes the message-similarity feature of a sliding
// window: the average cosine similarity of each message's binary vector to
// the one-cluster k-means center of the window, normalized against the
// small-sample baseline. Windows whose messages chat about the same thing
// (a highlight) score high; random chatter scores low.
//
// The normalization matters: for n mutually-orthogonal messages, the raw
// average cosine-to-centroid is about 1/√n, so a 2-message window of
// unrelated chatter would score ~0.71 while a 40-message hype burst scores
// ~0.6 — inverted. We therefore rescale (raw − 1/√n) / (1 − 1/√n) and clamp
// at 0, which maps "no shared words" to 0 and "identical messages" to 1 at
// every window size. The paper notes the similarity computation "can be
// further enhanced" (Section IV-C2); this is that enhancement.
//
// Windows with fewer than two messages return 0 — there is no notion of
// agreement with nobody to agree with.
func MessageSimilarity(messages []string) float64 {
	raw, n := RawMessageSimilarity(messages)
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

// RawMessageSimilarity returns the unnormalized average cosine similarity
// of each message to the one-cluster k-means center, plus the number of
// messages considered. This is the paper's literal formulation; prefer
// MessageSimilarity for feature extraction.
func RawMessageSimilarity(messages []string) (sim float64, n int) {
	if len(messages) < 2 {
		return 0, len(messages)
	}
	vocab := BuildVocabulary(messages)
	if vocab.Len() == 0 {
		return 0, len(messages)
	}
	vectors := Vectorize(vocab, messages)
	center := Centroid(vectors)
	var sum float64
	for _, v := range vectors {
		sum += Cosine(v, center)
	}
	return sum / float64(len(vectors)), len(vectors)
}
