package inputs

import (
	"lightor/internal/stats"
)

// LiveStreamsPerKind distinct simulated broadcasts of each kind are shared
// round-robin by a workload's channels; eight of each keeps one seed's luck
// (a broadcast with unusually few or many bursts) from setting the
// workload's cost.
const LiveStreamsPerKind = 8

// LiveStreams builds the sparse and dense broadcasts of one run, cut into
// bodies of batch messages, and folds every body into the input digest.
func (r *Reference) LiveStreams(seed int64, batch int, dig *Digest) (sparse, dense []*Stream, err error) {
	rng := stats.NewRand(seed + 1) // seed itself drives the server's training and crawl
	for i := 0; i < LiveStreamsPerKind; i++ {
		s, err := r.NewStream(rng, spread(SparseProfile(), i, LiveStreamsPerKind), false, batch)
		if err != nil {
			return nil, nil, err
		}
		d, err := r.NewStream(rng, spread(DenseProfile(), i, LiveStreamsPerKind), true, batch)
		if err != nil {
			return nil, nil, err
		}
		sparse, dense = append(sparse, s), append(dense, d)
	}
	for _, s := range append(append([]*Stream(nil), sparse...), dense...) {
		for _, b := range s.Bodies {
			dig.Add(b)
		}
	}
	return sparse, dense, nil
}
