package csp_test

import (
	"context"
	"testing"

	"cspsat/pkg/csp"
)

// loadSpec loads a file from the repository's specs/ directory.
func loadSpec(t *testing.T, name string) *csp.Module {
	t.Helper()
	mod, err := csp.Load(context.Background(), readSpec(t, name), csp.Options{NatWidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// TestBuffersSpec checks the refinement demo end to end, including the
// refinement assert and its direction.
func TestBuffersSpec(t *testing.T) {
	ctx := context.Background()
	mod := loadSpec(t, "buffers.csp")
	results, err := mod.CheckAll(ctx, csp.CheckOptions{Depth: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("want 5 asserts, got %d", len(results))
	}
	for _, r := range results {
		if !r.OK() {
			t.Errorf("failed: %s", r.Decl)
		}
	}
	// The converse refinement must fail: buf2 has traces buf1 lacks.
	buf1, err := mod.Proc("buf1")
	if err != nil {
		t.Fatal(err)
	}
	buf2, err := mod.Proc("buf2")
	if err != nil {
		t.Fatal(err)
	}
	rr, err := mod.Refines(ctx, buf2, buf1, csp.CheckOptions{Depth: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rr.OK {
		t.Fatal("buf2 must not refine buf1")
	}
	if rr.Witness == nil {
		t.Fatal("failed refinement needs a witness trace")
	}
}

// TestTokenRingSpec checks the ring's round-robin invariant and
// deadlock freedom.
func TestTokenRingSpec(t *testing.T) {
	ctx := context.Background()
	mod := loadSpec(t, "tokenring.csp")
	results, err := mod.CheckAll(ctx, csp.CheckOptions{Depth: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.OK() {
			t.Errorf("failed: %s: %s", r.Decl, r.Result)
		}
	}
	ring, err := mod.Proc("sys")
	if err != nil {
		t.Fatal(err)
	}
	dls, err := mod.Deadlocks(ctx, ring, csp.CheckOptions{Depth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(dls) != 0 {
		t.Fatalf("token ring deadlocks after %s", dls[0].Trace)
	}
	// The ring is deterministic: exactly one maximal behaviour.
	traces, err := mod.Traces(ctx, ring, csp.EngineOptions{Depth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(traces.Set.TracesMax()); got != 1 {
		t.Errorf("token ring should be deterministic, found %d maximal traces", got)
	}
	// Runtime execution respects round-robin order.
	run, err := mod.Run(ctx, ring, csp.EngineOptions{Seed: 5, MaxEvents: 40}, mod.MonitorSat(mod.Asserts()[0].A))
	if err != nil {
		t.Fatal(err)
	}
	if run.MonitorErr != nil {
		t.Fatalf("monitor: %v", run.MonitorErr)
	}
}

// TestPhilosophersSpec: the classic deadlock story, with partial
// correctness blind to it — the §4 limitation on a famous example.
func TestPhilosophersSpec(t *testing.T) {
	ctx := context.Background()
	mod := loadSpec(t, "philosophers.csp")
	// Both tables pass their (identical) sat-assertions...
	results, err := mod.CheckAll(ctx, csp.CheckOptions{Depth: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.OK() {
			t.Errorf("failed: %s", r.Decl)
		}
	}
	// ...but only the naive one deadlocks.
	bad, err := mod.Proc("deadlocking")
	if err != nil {
		t.Fatal(err)
	}
	good, err := mod.Proc("safe")
	if err != nil {
		t.Fatal(err)
	}
	opts := csp.CheckOptions{Depth: 6}
	dls, err := mod.Deadlocks(ctx, bad, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(dls) == 0 {
		t.Fatal("naive table's deadlock not found")
	}
	dls, err = mod.Deadlocks(ctx, good, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(dls) != 0 {
		t.Fatalf("left-handed table deadlocks after %s", dls[0].Trace)
	}
	// The failures model sees it too: the naive table may refuse all eats.
	m, err := mod.Failures(ctx, bad, csp.EngineOptions{Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, can := m.CanDeadlock(); !can {
		t.Error("failures model misses the deadlock")
	}
}
