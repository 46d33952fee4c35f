package run

import (
	"crypto/sha256"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"cspsat/bench/internal/workload"
)

// The host this benchmark was sized on is a share of a machine whose
// other tenants come and go: the same code measured a few minutes apart
// ran up to 40% slower, and CPU time per request rose with it, so each
// instruction took longer. A gauge measures how fast the host is running,
// in short slices interleaved with the timed phase, and every timing
// metric is reported at a fixed nominal host speed: as measured, times
// the gauge's speed (see Rep).
//
// The gauge's work is fixed and owned by the benchmark. It calls no code
// of the repository, so a change to the program under test cannot change
// it, and it allocates nothing, so the program's collector neither slows
// it nor is paced by it. Its two kernels are sorting a 16 KiB array
// (branchy work) and SHA-256 over a 1 KiB block (arithmetic). Both work
// inside the first-level cache, so what the program left in the caches
// barely changes them; a third kernel that walked a 4 MiB table read
// faster after other slices than after the program's requests. Each
// kernel runs on as many goroutines as the closed loop has clients, and a
// slice's speed is the geometric mean of the two kernels' speeds, each
// relative to its nominal time.
type gauge struct {
	src    [sortLen]uint32
	sorted [workload.Clients][sortLen]uint32
	block  [1024]byte
	sink   [workload.Clients]uint32
	// speeds holds each slice's speed; 1 is the nominal host.
	speeds []float64
	// wall, cpu and allocs are what the slices took, kept out of the timed
	// phase's metrics.
	wall, cpu time.Duration
	allocs    uint64
}

const (
	sortLen = 4096
	// gaugeEvery is how often the timed phase pauses for a slice.
	gaugeEvery = 200 * time.Millisecond
)

// kernel is one of the gauge's fixed pieces of work, run by goroutine c,
// and its time on the nominal host: the median over many slices on the
// 2-vCPU Intel Xeon host the benchmark was sized on.
type kernel struct {
	run     func(g *gauge, c int)
	nominal time.Duration
}

var kernels = []kernel{
	{(*gauge).sortArray, 4500 * time.Microsecond},
	{(*gauge).hashBlock, 4000 * time.Microsecond},
}

func (g *gauge) sortArray(c int) {
	for i := 0; i < 12; i++ {
		copy(g.sorted[c][:], g.src[:])
		slices.Sort(g.sorted[c][:])
	}
}

func (g *gauge) hashBlock(c int) {
	var sum [sha256.Size]byte
	for i := 0; i < 4000; i++ {
		sum = sha256.Sum256(g.block[:])
	}
	g.sink[c] = uint32(sum[0])
}

func newGauge() *gauge {
	g := &gauge{}
	r := rand.New(rand.NewSource(1))
	for i := range g.src {
		g.src[i] = r.Uint32()
	}
	for i := range g.block {
		g.block[i] = byte(i)
	}
	return g
}

// slice times each kernel once and records the host's speed.
func (g *gauge) slice() {
	// Let a collection cycle in progress finish, and start none: the slice
	// times the host, not the program's collector.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cpu0, allocs0, t0 := cpuTime(), readMetric(metricAllocs), time.Now()
	logSpeed := 0.0
	for _, k := range kernels {
		var took [workload.Clients]time.Duration
		var wg sync.WaitGroup
		for c := range took {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start := time.Now()
				k.run(g, c)
				took[c] = time.Since(start)
			}()
		}
		wg.Wait()
		var sum time.Duration
		for _, d := range took {
			sum += d
		}
		logSpeed += math.Log(k.nominal.Seconds() * float64(len(took)) / sum.Seconds())
	}
	g.speeds = append(g.speeds, math.Exp(logSpeed/float64(len(kernels))))
	g.wall += time.Since(t0)
	g.cpu += cpuTime() - cpu0
	g.allocs += readMetric(metricAllocs) - allocs0
}

// speed returns the host's speed over the slices from the from-th on: their
// mean, as the slices sample the host at even intervals and a rate over a
// phase is the mean of its rates over time. A median would pass over the
// slow stretches that the timed phase pays for in full; over fourteen
// repetitions of hot-mix and failures-check, normalising by the mean left
// a third less spread than by the median.
func (g *gauge) speed(from int) float64 {
	sum := 0.0
	for _, s := range g.speeds[from:] {
		sum += s
	}
	return sum / float64(len(g.speeds)-from)
}
