// E13/E16 explorer and E14 fixpoint benchmarks. E13 explores the token
// ring and the safe dining philosophers, E16 the width-N specs of
// gen.Philosophers/gen.TokenRing, and E14 denotes the E13 roots one level
// shallower, one serial row per workload: both engines run on the calling
// goroutine. (E13 and E14 keep their "Parallel" names so the CI regex and
// the snapshot history still match them.) Every row empties the closure
// caches each iteration so each measurement is a real exploration, not a
// memo replay. The multi-megabyte workloads also force a collection per
// iteration (outside the timer) so every op starts from a uniform heap
// instead of the GC trigger point the previous row left behind (twice:
// the second cycle forces the first's lazy sweep to finish, so no sweep
// debt bleeds into the timed region); the microsecond workloads
// deliberately do not — a forced GC's sweep debt is comparable to the op
// itself there and would distort the timed region, while thousands of
// iterations self-equilibrate anyway. The gc flag on each workload records
// that choice. EXPERIMENTS.md records the outcomes.
package cspsat_test

import (
	"context"
	"os"
	goruntime "runtime"
	"runtime/debug"
	"testing"

	"cspsat/internal/closure"
	"cspsat/internal/gen"
	"cspsat/pkg/csp"
)

// parallelWorkloads names the spec roots E13 explores and E14 denotes:
// the token ring (wide frontier, deep hiding) and the dining philosophers
// (large interleaving product).
var parallelWorkloads = []struct {
	file, root string
	depth      int
	gc         bool
}{
	{"specs/tokenring.csp", "sys", 6, false},
	{"specs/philosophers.csp", "safe", 5, true},
}

func loadBenchModule(b *testing.B, path string) *csp.Module {
	b.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	mod, err := csp.Load(context.Background(), string(data), csp.Options{NatWidth: 2})
	if err != nil {
		b.Fatal(err)
	}
	return mod
}

func BenchmarkE13ParallelExplore(b *testing.B) {
	for _, w := range parallelWorkloads {
		mod := loadBenchModule(b, w.file)
		p, err := mod.Proc(w.root)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(w.root, func(b *testing.B) {
			benchTraces(b, mod, p, csp.EngineOptions{Engine: csp.EngineOp, Depth: w.depth}, w.gc)
		})
	}
}

// benchTraces times Traces of p under opts from cold closure caches, one
// serial row.
func benchTraces(b *testing.B, mod *csp.Module, p csp.Proc, opts csp.EngineOptions, gc bool) {
	b.StopTimer()
	debug.FreeOSMemory() // drop span/RSS state inherited from earlier rows
	b.StartTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		closure.ResetCaches()
		if gc {
			goruntime.GC()
			goruntime.GC()
		}
		b.StartTimer()
		res, err := mod.Traces(context.Background(), p, opts)
		if err != nil || res.Set.Size() == 0 {
			b.Fatalf("%v %v", res, err)
		}
	}
	reportCacheStats(b)
}

// wideWorkloads are the generated width-N specs: the width-4 philosophers,
// a larger interleaving product than the committed three-philosopher
// table, and the width-8 token ring, whose frontier stays narrow however
// wide the ring.
var wideWorkloads = []struct {
	name, src, root string
	depth           int
	gc              bool
}{
	{"philosophers/N=4", gen.Philosophers(4), "safe", 9, true},
	{"tokenring/N=8", gen.TokenRing(8), "sys", 8, false},
}

func BenchmarkE16WideExplore(b *testing.B) {
	for _, w := range wideWorkloads {
		mod, err := csp.Load(context.Background(), w.src, csp.Options{NatWidth: 2})
		if err != nil {
			b.Fatal(err)
		}
		p, err := mod.Proc(w.root)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(w.name, func(b *testing.B) {
			benchTraces(b, mod, p, csp.EngineOptions{Engine: csp.EngineOp, Depth: w.depth}, w.gc)
		})
	}
}

func BenchmarkE14ParallelFixpoint(b *testing.B) {
	for _, w := range parallelWorkloads {
		mod := loadBenchModule(b, w.file)
		p, err := mod.Proc(w.root)
		if err != nil {
			b.Fatal(err)
		}
		depth := w.depth - 1 // the literal chain materialises pre-hiding sets
		b.Run(w.root, func(b *testing.B) {
			benchTraces(b, mod, p, csp.EngineOptions{Engine: csp.EngineDenote, Depth: depth}, w.gc)
		})
	}
}
