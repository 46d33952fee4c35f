package bench_test

import (
	"context"
	"math"
	"path/filepath"
	"sort"
	"testing"

	"cspsat/bench/internal/run"
	"cspsat/bench/internal/stats"
	"cspsat/bench/internal/workload"
)

// smokePerClient keeps every pass near 50 requests.
const smokePerClient = 24

// TestSmoke runs every workload's passes in this process at about 50
// requests, without hot-mix's cold proofs: the answers must match the
// goldens' classes and seed-1 prefixes, the reported metric names must be
// exactly BENCHMARK.json's, and trace.coverage must be finite.
func TestSmoke(t *testing.T) {
	bench, err := stats.ReadBench(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var e2eNames, layerNames []string
	for _, m := range bench.EndToEnd {
		e2eNames = append(e2eNames, m.Name+" "+m.Unit)
	}
	for _, m := range bench.PerLayer {
		layerNames = append(layerNames, m.Name+" "+m.Unit)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if !equal(names, workload.Names) {
		t.Fatalf("BENCHMARK.json workloads %v, cspbench workloads %v", names, workload.Names)
	}

	ctx := context.Background()
	for _, name := range workload.Names {
		t.Run(name, func(t *testing.T) {
			g, err := workload.LoadGolden(".", name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := run.Config{Workload: name, Seed: workload.GoldenSeed, PerClient: smokePerClient, SkipProve: true, Golden: g}

			rep, err := run.E2E(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 || rep.Attempted != 2*smokePerClient {
				t.Fatalf("e2e: %d of %d failed: %v", rep.Failed, rep.Attempted, rep.Problems)
			}
			res := run.NewResult(run.EndToEnd, rep.Metrics, rep.Attempted, rep.Failed)
			if got := reported(res); !equal(got, e2eNames) {
				t.Fatalf("end-to-end metrics %v, BENCHMARK.json %v", got, e2eNames)
			}

			single, err := run.SinglePass(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			out := t.TempDir()
			traced, err := run.TracedPass(ctx, cfg, filepath.Join(out, "trace.jsonl"), false)
			if err != nil {
				t.Fatal(err)
			}
			allocs, err := run.TracedPass(ctx, cfg, filepath.Join(out, "allocs.jsonl"), true)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []*run.Outcome{&single.Outcome, &traced.Outcome, &allocs.Outcome} {
				if p.Failed != 0 {
					t.Fatalf("single-client pass: %v", p.Problems)
				}
			}
			run.MirrorMatches(single, traced, &traced.Outcome)
			if traced.Failed != 0 {
				t.Fatalf("mirror disagrees with the server: %v", traced.Problems)
			}
			layers := run.Combine(single, traced, allocs)
			res = run.NewResult(run.PerLayer, layers, 1, 0)
			if got := reported(res); !equal(got, layerNames) {
				t.Fatalf("per-layer metrics %v, BENCHMARK.json %v", got, layerNames)
			}
			if c := layers["trace.coverage"]; math.IsNaN(c) || math.IsInf(c, 0) || c <= 0 {
				t.Fatalf("trace.coverage = %v", c)
			}
		})
	}
}

func reported(r run.Result) []string {
	var out []string
	for name, m := range r.Metrics {
		out = append(out, name+" "+m.Unit)
	}
	return out
}

// equal compares two name lists as sets.
func equal(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
