// Package run executes the benchmark's passes against the real
// internal/server: the untraced closed-loop repetitions that give the
// end-to-end metrics, the untraced single-client pass, and the traced
// single-client pass over a mirror of the server's request path that
// gives the per-layer breakdown.
package run

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"cspsat/bench/internal/stats"
	"cspsat/bench/internal/workload"
	"cspsat/internal/server"
)

// End-to-end metric names and units, in report order.
var EndToEnd = []Metric{
	{"throughput_rps", "req/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"setup_s", "s"},
	{"cpu_us_per_req", "us"},
	{"allocs_per_req", "objects"},
	{"live_heap_mb", "MiB"},
}

// Metric is a metric's name and unit.
type Metric struct {
	Name, Unit string
}

// Rep is one end-to-end repetition's result.
type Rep struct {
	FixtureS float64 `json:"fixture_s"`
	// LatencyUS holds every timed request's latency as measured; a run
	// pools its repetitions' samples for the percentiles.
	LatencyUS []float64 `json:"latency_us"`
	// Metrics holds every EndToEnd metric by name, over the whole timed
	// phase.
	Metrics map[string]float64 `json:"metrics"`
	// Raw holds the timing metrics as measured on this host: the timed
	// phase's at host speed Speed, setup_s at SetupSpeed (1 is the nominal
	// host; see gauge). Metrics holds them at the nominal speed: a time as
	// measured times the speed, a rate divided by it.
	Raw        map[string]float64 `json:"raw"`
	Speed      float64            `json:"host_speed"`
	SetupSpeed float64            `json:"setup_host_speed"`
	Outcome
}

// Config selects a pass's workload and size.
type Config struct {
	Workload  string
	Seed      int64
	PerClient int
	// SkipProve drops hot-mix's cold proofs (smoke test).
	SkipProve bool
	// Golden, when non-nil, pins expected answers.
	Golden *workload.Golden
	// BlessDir, when set, is the benchmark directory whose golden for this
	// workload E2E rewrites from the run's answers.
	BlessDir string
	// Turn, when set, runs each of a single-client pass's Turns chunks; see
	// Turns.
	Turn func(chunk func())
}

// Turns is how many chunks a single-client pass's stream is cut into when
// Config.Turn is set. The untraced and traced passes run in separate
// processes and take turns chunk by chunk, so both sample the host at the
// same moments: run one after the other, a slow minute of the host lands
// on one of them and moved trace.coverage by ±20%; in 16 turns, hot-mix
// coverage still ranged 1.02–1.10 over four seeds, in 64 turns 1.01–1.05.
const Turns = 64

// inTurns calls do for each of the Turns chunks of n requests, through
// turn when it is set.
func inTurns(n int, turn func(chunk func()), do func(lo, hi int)) {
	if turn == nil {
		do(0, n)
		return
	}
	for k := 0; k < Turns; k++ {
		lo, hi := k*n/Turns, (k+1)*n/Turns
		turn(func() { do(lo, hi) })
	}
}

// fixture builds cfg's fixture in a scratch directory, timing it.
func fixture(ctx context.Context, cfg Config, dir string) (*workload.Fixture, float64, error) {
	opts := workload.Options{SkipProve: cfg.SkipProve}
	if workload.UsesStore(cfg.Workload) {
		var err error
		if opts.StoreDir, err = storeDir(dir); err != nil {
			return nil, 0, err
		}
	}
	t0 := time.Now()
	fx, err := workload.Build(ctx, cfg.Workload, cfg.Seed, cfg.PerClient, opts)
	return fx, time.Since(t0).Seconds(), err
}

// booted is a server under test behind a loopback listener, with one
// closed-loop client per connection.
type booted struct {
	srv        *server.Server
	ts         *httptest.Server
	clients    []*client
	journalDir string
}

// storeBoots is how many times a store-backed server without a setup
// pass is booted; its set-up time is their median. A warm boot repeats
// faithfully in one process, mapping the same artifacts afresh, while a
// setup pass does not (a second pass would hit the caches the first
// filled), and a single boot of a few milliseconds is at the mercy of one
// scheduling hiccup.
const storeBoots = 9

// boot starts the server with production defaults — Config at its zero
// values except the journal, and the store for store-spill — and runs the
// setup pass over the fixture's distinct requests. It returns the set-up
// time: server.New until Ready, plus that pass.
func boot(ctx context.Context, fx *workload.Fixture, dir string, o *Outcome) (*booted, float64) {
	boots := 1
	if fx.StoreDir != "" && len(fx.Setup) == 0 {
		boots = storeBoots
	}
	b := &booted{}
	var times []float64
	for k := 0; k < boots; k++ {
		if b.srv != nil {
			_ = b.srv.Close() // a boot that is timed and discarded; its journal is empty
		}
		b.journalDir = filepath.Join(dir, fmt.Sprintf("journal-%d", k))
		t0 := time.Now()
		b.srv = server.New(server.Config{JournalDir: b.journalDir, StoreDir: fx.StoreDir})
		b.srv.WarmBoot(ctx) // no-op without a store, beyond marking the server ready
		times = append(times, time.Since(t0).Seconds())
	}
	t0 := time.Now()
	b.ts = httptest.NewServer(b.srv.Handler())
	for i := 0; i < workload.Clients; i++ {
		b.clients = append(b.clients, newClient(b.ts.URL))
	}
	streams := splitRoundRobin(fx.Setup, workload.Clients)
	obs := runClosedLoop(b.clients, streams, nil)
	setup := stats.Median(times) + time.Since(t0).Seconds()
	for c, stream := range streams {
		for i, rq := range stream {
			if s := obs[c][i]; s.err != nil || s.status != rq.Status {
				o.problem("setup %s %s: status %d, want %d (%v)", rq.Path, rq.Class, s.status, rq.Status, s.err)
			}
		}
	}
	return b, setup
}

// shutdown stops the listener (waiting for in-flight handlers, so every
// journal append has happened) and closes the server's journal.
func (b *booted) shutdown() error {
	for _, c := range b.clients {
		c.close()
	}
	b.ts.Close()
	return b.srv.Close()
}

// setupSlices is how many gauge slices every end-to-end process takes
// before the boot and again after the setup pass. Their mean is the
// host's speed for setup_s.
const setupSlices = 3

// prepared is what every end-to-end process does before its timed phase.
type prepared struct {
	fx       *workload.Fixture
	fixtureS float64
	g        *gauge
	heap0    uint64
	b        *booted
	// setupS is the set-up time as measured, and setupSpeed the host's
	// speed around it.
	setupS, setupSpeed float64
}

// prepare builds the fixture in dir, boots the server and runs the setup
// pass, timing the set-up between gauge slices.
func prepare(ctx context.Context, cfg Config, dir string, o *Outcome) (*prepared, error) {
	fx, fixtureS, err := fixture(ctx, cfg, dir)
	if err != nil {
		return nil, err
	}
	p := &prepared{fx: fx, fixtureS: fixtureS, g: newGauge(), heap0: liveHeap()}
	for i := 0; i < setupSlices; i++ {
		p.g.slice()
	}
	p.b, p.setupS = boot(ctx, fx, dir, o)
	for i := 0; i < setupSlices; i++ {
		p.g.slice()
	}
	p.setupSpeed = p.g.speed(0)
	return p, nil
}

// E2E runs one end-to-end repetition: fixture, boot and setup pass, then
// the timed closed loop with every client sending its stream, pausing for
// the gauge, then the correctness checks.
func E2E(ctx context.Context, cfg Config) (*Rep, error) {
	dir, cleanup, err := tempDir("cspbench-")
	if err != nil {
		return nil, err
	}
	defer cleanup()
	rep := &Rep{}
	p, err := prepare(ctx, cfg, dir, &rep.Outcome)
	if err != nil {
		return nil, err
	}
	fx, g, b := p.fx, p.g, p.b
	rep.FixtureS = p.fixtureS
	streams := fx.Clients[:]
	slices0, gWall, gCPU, gAllocs := len(g.speeds), g.wall, g.cpu, g.allocs
	allocs0, cpu0, start := readMetric(metricAllocs), cpuTime(), time.Now()
	obs := runClosedLoop(b.clients, streams, g)
	wall, cpu, allocs1 := time.Since(start), cpuTime()-cpu0, readMetric(metricAllocs)
	wall -= g.wall - gWall
	cpu -= g.cpu - gCPU
	allocs1 -= g.allocs - gAllocs
	heap1 := liveHeap()
	if err := b.shutdown(); err != nil {
		return nil, err
	}

	for _, o := range obs {
		for _, s := range o {
			rep.LatencyUS = append(rep.LatencyUS, us(s.latency))
		}
	}
	n := float64(len(rep.LatencyUS))
	rep.Raw = map[string]float64{
		"throughput_rps": n / wall.Seconds(),
		"latency_p50_us": stats.Percentile(rep.LatencyUS, 0.50),
		"latency_p99_us": stats.Percentile(rep.LatencyUS, 0.99),
		"setup_s":        p.setupS,
		"cpu_us_per_req": us(cpu) / n,
	}
	rep.Speed, rep.SetupSpeed = g.speed(slices0), p.setupSpeed
	rep.Metrics = map[string]float64{
		"throughput_rps": rep.Raw["throughput_rps"] / rep.Speed,
		"latency_p50_us": rep.Raw["latency_p50_us"] * rep.Speed,
		"latency_p99_us": rep.Raw["latency_p99_us"] * rep.Speed,
		"setup_s":        rep.Raw["setup_s"] * rep.SetupSpeed,
		"cpu_us_per_req": rep.Raw["cpu_us_per_req"] * rep.Speed,
		"allocs_per_req": float64(allocs1-allocs0) / n,
		"live_heap_mb":   float64(int64(heap1)-int64(p.heap0)) / (1 << 20),
	}

	answers, err := journalAnswers(b.journalDir, &rep.Outcome)
	if err != nil {
		return nil, err
	}
	check(fx, cfg.Golden, streams, obs, answers, &rep.Outcome)
	checkReference(fx, answers, &rep.Outcome)
	if cfg.BlessDir != "" && rep.Failed == 0 {
		if err := bless(fx, answers).Save(cfg.BlessDir); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// SetupOnly is a set-up-only pass's result: one more sample of setup_s.
type SetupOnly struct {
	// SetupS is the set-up time as measured, at host speed Speed.
	SetupS float64 `json:"setup_s"`
	Speed  float64 `json:"host_speed"`
	Outcome
}

// SetupPass does what E2E does up to the timed phase, then stops. A
// set-up is short and noisy, so a run times several, each in a fresh
// process, and reports their median.
func SetupPass(ctx context.Context, cfg Config) (*SetupOnly, error) {
	dir, cleanup, err := tempDir("cspbench-")
	if err != nil {
		return nil, err
	}
	defer cleanup()
	res := &SetupOnly{}
	p, err := prepare(ctx, cfg, dir, &res.Outcome)
	if err != nil {
		return nil, err
	}
	if err := p.b.shutdown(); err != nil {
		return nil, err
	}
	res.SetupS, res.Speed = p.setupS, p.setupSpeed
	res.Attempted = len(p.fx.Setup)
	return res, nil
}

// bless makes a golden from a run's answers: every class, and each
// client's stream prefix.
func bless(fx *workload.Fixture, answers map[string]workload.Answer) *workload.Golden {
	g := &workload.Golden{Workload: fx.Workload, Seed: fx.Seed}
	if len(fx.Classes) > 0 {
		g.Classes = map[string]workload.Answer{}
		for _, rq := range fx.Classes {
			g.Classes[rq.Class] = answers[rq.Key]
		}
		return g
	}
	for _, stream := range fx.Clients {
		n := min(len(stream), workload.PrefixLen)
		prefix := make([]workload.Answer, n)
		for i, rq := range stream[:n] {
			prefix[i] = answers[rq.Key]
		}
		g.Prefix = append(g.Prefix, prefix)
	}
	return g
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtime/metrics names read by the passes.
const (
	metricAllocs   = "/gc/heap/allocs:objects"
	metricLive     = "/gc/heap/live:bytes"
	metricGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	metricTotalCPU = "/cpu/classes/total:cpu-seconds"
	metricIdleCPU  = "/cpu/classes/idle:cpu-seconds"
)

// busyCPU is the runtime's estimate of CPU time spent not idle.
func busyCPU() float64 { return readSeconds(metricTotalCPU) - readSeconds(metricIdleCPU) }

// liveHeap returns the live heap after two collections: the second clears
// what the first only moved to sync.Pool victim caches.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	return readMetric(metricLive)
}

// readMetric reads one uint64 runtime metric.
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// readSeconds reads one float64 runtime metric.
func readSeconds(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Float64()
}
