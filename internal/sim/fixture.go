package sim

import (
	"lightor/internal/core"
	"lightor/internal/stats"
)

// TrainedFixture builds an initializer trained on one simulated Dota 2
// video plus a held-out second video — the shared setup of the engine and
// platform tests, so both exercise the same workload.
func TrainedFixture() (*core.Initializer, VideoData, error) {
	data := GenerateDataset(stats.NewRand(42), Dota2Profile(), 2)
	init, err := core.NewInitializer(core.DefaultInitializerConfig())
	if err != nil {
		return nil, VideoData{}, err
	}
	train := data[0]
	ws := init.Windows(train.Chat.Log, train.Video.Duration)
	err = init.Train([]core.TrainingVideo{{
		Log:        train.Chat.Log,
		Duration:   train.Video.Duration,
		Labels:     LabelWindows(ws, train.Chat.Bursts),
		Highlights: train.Video.Highlights,
	}})
	if err != nil {
		return nil, VideoData{}, err
	}
	return init, data[1], nil
}
