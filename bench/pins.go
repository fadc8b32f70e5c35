package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"

	"lightor/bench/inputs"
)

// pins are the recorded SHA-256 digests of what the default and held-out
// seeds generate (every pre-encoded body, corpus file and schedule) and of
// what the system computes from them (refined boundaries, extracted
// highlights). A run at a pinned seed whose digests differ stops being a
// run of THIS benchmark: internal/sim drifted, or detection changed. The
// file lives beside the harness because BENCHMARK.json admits no extra
// keys. Digests depend on floating-point code generation, so they are
// recorded per GOARCH and checked only on the one they were recorded on.
type pins struct {
	GOARCH string                    `json:"goarch"`
	Seeds  map[string]map[string]pin `json:"seeds"` // seed → workload → digests
}

type pin struct {
	Inputs  string `json:"inputs"`
	Results string `json:"results,omitempty"`
}

func pinsPath(root string) string { return filepath.Join(root, "bench", "pins.json") }

func loadPins(root string) (*pins, error) {
	b, err := os.ReadFile(pinsPath(root))
	if errors.Is(err, fs.ErrNotExist) {
		return &pins{}, nil
	}
	if err != nil {
		return nil, err
	}
	var p pins
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, fmt.Errorf("bench/pins.json: %w", err)
	}
	return &p, nil
}

// check compares a run's digests with the pinned ones, when its seed is
// pinned for this architecture.
func (p *pins) check(r *result) error {
	if p.GOARCH != runtime.GOARCH {
		return nil
	}
	want, ok := p.Seeds[strconv.FormatInt(r.seed, 10)][r.workload]
	if !ok {
		return nil
	}
	if want.Inputs != r.inputsDigest {
		return fmt.Errorf("inputs digest %s differs from the pinned %s: the generators drifted, this is no longer the pinned workload", r.inputsDigest, want.Inputs)
	}
	if want.Results != r.resultsDigest {
		return fmt.Errorf("results digest %s differs from the pinned %s: the system computes something else than it did", r.resultsDigest, want.Results)
	}
	return nil
}

// recordPins runs every workload once at each pinned seed (short slices:
// the digests do not depend on the run's length) and rewrites pins.json.
func recordPins(e *env, sh shape) error {
	p := pins{GOARCH: runtime.GOARCH, Seeds: map[string]map[string]pin{}}
	for _, seed := range []int64{inputs.DefaultSeed, inputs.HeldOutSeed} {
		byLoad := map[string]pin{}
		for _, wl := range workloads {
			res, err := wl.run(e, seed, traceShape)
			if err != nil {
				return fmt.Errorf("%s at seed %d: %w", wl.name, seed, err)
			}
			if !res.correct() {
				return fmt.Errorf("%s at seed %d: outputs differ from the reference, refusing to pin: %v", wl.name, seed, res.wrongs)
			}
			byLoad[wl.name] = pin{Inputs: res.inputsDigest, Results: res.resultsDigest}
			fmt.Printf("pinned %-12s seed %d inputs %s results %s\n", wl.name, seed, res.inputsDigest, res.resultsDigest)
		}
		p.Seeds[strconv.FormatInt(seed, 10)] = byLoad
	}
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(pinsPath(e.root), append(b, '\n'), 0o644)
}
