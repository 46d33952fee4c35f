package run

import (
	"context"

	"cspsat/bench/internal/workload"
)

// Single is the untraced single-client pass: the denominator of
// trace.coverage, and the pass whose garbage-collector CPU share is
// reported.
type Single struct {
	Requests int `json:"requests"`
	// MeanUS is the mean latency.
	MeanUS  float64 `json:"mean_us"`
	GCShare float64 `json:"gc_cpu_share"`
	// ClassUS is each fixed request class's median latency.
	ClassUS map[string]float64 `json:"class_us,omitempty"`
	Outcome
}

// SinglePass boots the server and runs the setup pass exactly as E2E
// does, then sends client 0's stream from that one client alone.
func SinglePass(ctx context.Context, cfg Config) (*Single, error) {
	dir, cleanup, err := tempDir("cspbench-")
	if err != nil {
		return nil, err
	}
	defer cleanup()
	fx, _, err := fixture(ctx, cfg, dir)
	if err != nil {
		return nil, err
	}
	res := &Single{}
	b, _ := boot(ctx, fx, dir, &res.Outcome)
	streams := [][]workload.Request{fx.Clients[0]}
	obs := [][]sample{make([]sample, 0, len(streams[0]))}
	gc0, cpu0 := readSeconds(metricGCCPU), busyCPU()
	inTurns(len(streams[0]), cfg.Turn, func(lo, hi int) {
		chunk := runClosedLoop(b.clients[:1], [][]workload.Request{streams[0][lo:hi]}, nil)
		obs[0] = append(obs[0], chunk[0]...)
	})
	gc1, cpu1 := readSeconds(metricGCCPU), busyCPU()
	if err := b.shutdown(); err != nil {
		return nil, err
	}

	lat := make([]float64, len(obs[0]))
	for i, s := range obs[0] {
		lat[i] = us(s.latency)
		res.MeanUS += lat[i]
	}
	res.Requests = len(lat)
	res.MeanUS /= float64(len(lat))
	res.ClassUS = classMedians(lat, streams[0])
	if cpu1 > cpu0 {
		res.GCShare = (gc1 - gc0) / (cpu1 - cpu0)
	}

	answers, err := journalAnswers(b.journalDir, &res.Outcome)
	if err != nil {
		return nil, err
	}
	check(fx, cfg.Golden, streams, obs, answers, &res.Outcome)
	return res, nil
}
