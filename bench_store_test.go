// E19 (DESIGN.md §3.5): a cspserved warm boot from the artifact store must
// beat cold compilation of the same workload by a wide margin, because a
// store hit skips parsing and denotation entirely — it re-interns the
// persisted trie graphs bottom-up and serves trace sets from the rehydrated
// results cache. The cold/warm sub-benchmarks run the identical workload:
// all six specs/ files, each with its smoke-test process and depth.
package cspsat_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"cspsat/pkg/csp"
)

// storeSpecs is the serve_smoke.sh workload: every committed spec with the
// process and depth the smoke scripts exercise.
var storeSpecs = []struct {
	file  string
	proc  string
	depth int
}{
	{"copier", "copier", 6},
	{"protocol", "protocol", 6},
	{"multiplier", "multiplier", 4},
	{"buffers", "buf1", 6},
	{"philosophers", "safe", 6},
	{"tokenring", "sys", 6},
}

func readSpecSource(b *testing.B, name string) string {
	b.Helper()
	data, err := os.ReadFile(filepath.Join("specs", name+".csp"))
	if err != nil {
		b.Fatal(err)
	}
	return string(data)
}

func BenchmarkE19WarmBootFromStore(b *testing.B) {
	ctx := context.Background()
	sources := make([]string, len(storeSpecs))
	for i, s := range storeSpecs {
		sources[i] = readSpecSource(b, s.file)
	}

	// Populate the store once: compile each spec and persist its trace set,
	// exactly what a serving cspserved leaves behind.
	dir := b.TempDir()
	st, err := csp.OpenStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	seed := csp.NewModuleCache(0)
	seed.SetStore(st, nil)
	for i, s := range storeSpecs {
		mod, _, _, err := seed.Load(ctx, sources[i], csp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		p, err := mod.Proc(s.proc)
		if err != nil {
			b.Fatal(err)
		}
		res, err := mod.Traces(ctx, p, csp.EngineOptions{Engine: csp.EngineOp, Depth: s.depth})
		if err != nil {
			b.Fatal(err)
		}
		mod.StoreTraces(csp.EngineOp, s.depth, s.proc, res)
	}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			csp.ResetCaches()
			for j, s := range storeSpecs {
				mod, err := csp.Load(ctx, sources[j], csp.Options{})
				if err != nil {
					b.Fatal(err)
				}
				p, err := mod.Proc(s.proc)
				if err != nil {
					b.Fatal(err)
				}
				res, err := mod.Traces(ctx, p, csp.EngineOptions{Engine: csp.EngineOp, Depth: s.depth})
				if err != nil {
					b.Fatal(err)
				}
				if res.Set.Size() == 0 {
					b.Fatal("empty trace set")
				}
			}
		}
	})

	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			csp.ResetCaches()
			cache := csp.NewModuleCache(0)
			cache.SetStore(st, nil)
			if loaded, _, err := cache.WarmBoot(ctx); err != nil || loaded != len(storeSpecs) {
				b.Fatalf("warm boot: loaded=%d err=%v", loaded, err)
			}
			for j, s := range storeSpecs {
				mod, _, hit, err := cache.Load(ctx, sources[j], csp.Options{})
				if err != nil || !hit {
					b.Fatalf("%s: hit=%v err=%v", s.file, hit, err)
				}
				res, ok := mod.CachedTraces(csp.EngineOp, s.depth, s.proc)
				if !ok {
					b.Fatalf("%s: no cached traces after warm boot", s.file)
				}
				if res.View().Size() == 0 {
					b.Fatal("empty trace set")
				}
			}
		}
	})
}

// sprawlSpec is a history-dependent process whose trie defeats hash
// consing: the out!s edge distinguishes every reachable accumulator
// value, so depth 13 freezes to ~8k distinct nodes. The committed
// specs intern to a few dozen nodes each — far too shared for a boot
// benchmark whose whole point is the per-node rebuild cost.
const sprawlSpec = `
hist[s:{0..4095}] = a!0 -> hist[(2*s) % 4096]
                  | b!0 -> hist[(2*s+1) % 4096]
                  | out!s -> STOP
sprawl = hist[0]
`

// e21Specs is the E21 workload: the six committed specs at serving
// depths plus the node-heavy sprawl module (inline source), together a
// ~2400-node store. E19's smoke-depth tries are so small that file I/O
// hides the rebuild cost; this workload is where the old boot
// (re-intern every node) actually hurt and the frozen boot's advantage
// is the point being measured.
var e21Specs = []struct {
	file  string // specs/ file name, "" when src is inline
	src   string
	proc  string
	depth int
}{
	{file: "copier", proc: "copier", depth: 14},
	{file: "protocol", proc: "protocol", depth: 12},
	{file: "multiplier", proc: "multiplier", depth: 6},
	{file: "buffers", proc: "buf1", depth: 12},
	{file: "philosophers", proc: "safe", depth: 9},
	{file: "tokenring", proc: "sys", depth: 10},
	{src: sprawlSpec, proc: "sprawl", depth: 13},
}

// E21 (DESIGN.md §3.8): the frozen arena makes warm-boot readiness a
// validation pass over mmap'd bytes instead of a trie rebuild. The two
// boot legs run the identical warm workload and differ in one call:
// "frozen" answers the post-boot queries straight off the frozen views,
// "thaw" forces every result through TraceSet() — re-interning the stored
// graphs exactly as the pre-arena codec did on every boot. The "reads"
// leg pins the zero-allocation contract for read-only queries against an
// already-bound frozen module.
func BenchmarkE21FrozenBoot(b *testing.B) {
	ctx := context.Background()
	sources := make([]string, len(e21Specs))
	for i, s := range e21Specs {
		if s.file != "" {
			sources[i] = readSpecSource(b, s.file)
		} else {
			sources[i] = s.src
		}
	}

	dir := b.TempDir()
	st, err := csp.OpenStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	seed := csp.NewModuleCache(0)
	seed.SetStore(st, nil)
	for i, s := range e21Specs {
		mod, _, _, err := seed.Load(ctx, sources[i], csp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		p, err := mod.Proc(s.proc)
		if err != nil {
			b.Fatal(err)
		}
		res, err := mod.Traces(ctx, p, csp.EngineOptions{Engine: csp.EngineOp, Depth: s.depth})
		if err != nil {
			b.Fatal(err)
		}
		mod.StoreTraces(csp.EngineOp, s.depth, s.proc, res)
	}

	// boot maps every artifact and returns the cached results, one per spec.
	boot := func(b *testing.B) []*csp.TraceResult {
		cache := csp.NewModuleCache(0)
		cache.SetStore(st, nil)
		if loaded, _, err := cache.WarmBoot(ctx); err != nil || loaded != len(e21Specs) {
			b.Fatalf("warm boot: loaded=%d err=%v", loaded, err)
		}
		results := make([]*csp.TraceResult, len(e21Specs))
		for j, s := range e21Specs {
			mod, _, hit, err := cache.Load(ctx, sources[j], csp.Options{})
			if err != nil || !hit {
				b.Fatalf("%s: hit=%v err=%v", s.proc, hit, err)
			}
			res, ok := mod.CachedTraces(csp.EngineOp, s.depth, s.proc)
			if !ok {
				b.Fatalf("%s: no cached traces after warm boot", s.proc)
			}
			results[j] = res
		}
		return results
	}

	b.Run("frozen", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			csp.ResetCaches()
			for _, res := range boot(b) {
				if res.View().Size() == 0 {
					b.Fatal("empty trace set")
				}
			}
		}
	})

	b.Run("thaw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			csp.ResetCaches()
			for _, res := range boot(b) {
				if res.TraceSet().Size() == 0 {
					b.Fatal("empty trace set")
				}
			}
		}
	})

	b.Run("reads", func(b *testing.B) {
		csp.ResetCaches()
		results := boot(b)
		views := make([]csp.TraceView, len(results))
		probes := make([]csp.Trace, len(results))
		for j, res := range results {
			views[j] = res.View()
			tr, _ := views[j].TracesMaxN(1)
			if len(tr) == 0 {
				b.Fatalf("%s: no maximal trace", e21Specs[j].proc)
			}
			probes[j] = tr[0]
			views[j].Contains(tr[0]) // bind the arena before the timer: listings do not
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j, v := range views {
				if v.Size() == 0 || v.MaxLen() == 0 || !v.Contains(probes[j]) {
					b.Fatal("frozen read lied")
				}
			}
		}
	})
}
