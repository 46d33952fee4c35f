package csp_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cspsat/internal/assertion"
	"cspsat/internal/paper"
	"cspsat/internal/proofs"
	"cspsat/pkg/csp"
)

func TestLoadAndCheckAllCopier(t *testing.T) {
	ctx := context.Background()
	mod, err := csp.Load(ctx, paper.CopierSpec, csp.Options{NatWidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	results, err := mod.CheckAll(ctx, csp.CheckOptions{Depth: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if !r.Result.OK {
			t.Errorf("assert failed: %s: %s", r.Decl, r.Result)
		}
	}
	report := csp.FormatAssertResults(results)
	if !strings.Contains(report, "OK") || strings.Contains(report, "FAIL") {
		t.Errorf("report:\n%s", report)
	}
}

func TestCheckAllQuantifiedAssert(t *testing.T) {
	ctx := context.Background()
	mod, err := csp.Load(ctx, paper.ProtocolSpec, csp.Options{NatWidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	results, err := mod.CheckAll(ctx, csp.CheckOptions{Depth: 6})
	if err != nil {
		t.Fatal(err)
	}
	var sawQuantified bool
	for _, r := range results {
		if len(r.Decl.Quants) > 0 {
			sawQuantified = true
			if !r.Result.OK {
				t.Errorf("quantified assert failed: %s", r.Result)
			}
		}
	}
	if !sawQuantified {
		t.Fatal("protocol spec lost its quantified assert")
	}
}

func TestCheckAllReportsCounterexample(t *testing.T) {
	src := `
p = a!1 -> p
assert p sat #a <= 2
`
	ctx := context.Background()
	mod, err := csp.Load(ctx, src, csp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	results, err := mod.CheckAll(ctx, csp.CheckOptions{Depth: 5})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Result.OK {
		t.Fatal("false assert passed")
	}
	if results[0].Result.Counter == nil {
		t.Fatal("no counterexample")
	}
	report := csp.FormatAssertResults(results)
	if !strings.Contains(report, "FAIL") || !strings.Contains(report, "counterexample") {
		t.Errorf("report:\n%s", report)
	}
}

func TestLoadFile(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	path := filepath.Join(dir, "x.csp")
	if err := os.WriteFile(path, []byte(paper.CopierSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := csp.LoadFile(ctx, path, csp.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := csp.LoadFile(ctx, filepath.Join(dir, "missing.csp"), csp.Options{}); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.csp")
	if err := os.WriteFile(bad, []byte("p = ???"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := csp.LoadFile(ctx, bad, csp.Options{}); err == nil {
		t.Fatal("unparsable file accepted")
	}
}

func TestProcLookups(t *testing.T) {
	mod := csp.FromModule(paper.ProtocolSystem(2), csp.Options{NatWidth: 2})
	if _, err := mod.Proc(paper.NameSender); err != nil {
		t.Error(err)
	}
	if _, err := mod.Proc("ghost"); err == nil {
		t.Error("undefined process accepted")
	}
	if _, err := mod.Proc(paper.NameQ); err == nil {
		t.Error("array without subscript accepted")
	}
	if _, err := mod.ProcIdx(paper.NameQ, 0); err != nil {
		t.Error(err)
	}
	if _, err := mod.ProcIdx(paper.NameSender, 0); err == nil {
		t.Error("ProcIdx on plain process accepted")
	}
}

func TestProveThroughFacade(t *testing.T) {
	ctx := context.Background()
	mod := csp.FromModule(paper.CopySystem(), csp.Options{NatWidth: 2})
	cl, err := mod.Check(ctx, proofs.CopierProof(), csp.CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cl.String() != "copier sat wire <= input" {
		t.Errorf("conclusion = %s", cl)
	}
	validity := &assertion.ValidityConfig{MaxLen: 2}
	if _, err := mod.Check(ctx, proofs.CopierProof(), csp.CheckOptions{Validity: validity}); err != nil {
		t.Errorf("custom validity config: %v", err)
	}
}

// TestRunThroughFacade drives the goroutine runtime with and without a
// monitor; TestEnginesAgree covers the runtime engine's sampled walk.
func TestRunThroughFacade(t *testing.T) {
	ctx := context.Background()
	mod := csp.FromModule(paper.CopySystem(), csp.Options{NatWidth: 2})
	net, err := mod.Proc(paper.NameCopyNet)
	if err != nil {
		t.Fatal(err)
	}
	opts := csp.EngineOptions{Seed: 3, MaxEvents: 20}
	res, err := mod.Run(ctx, net, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != 20 {
		t.Errorf("events = %d", len(res.Events))
	}
	mon, err := mod.Run(ctx, net, opts, mod.MonitorSat(paper.CopyNetSat()))
	if err != nil || mon.MonitorErr != nil {
		t.Fatalf("monitored run: %v %v", err, mon.MonitorErr)
	}
}

// TestRunHonoursContext cancels a run's context from its monitor at the
// first event: the run must stop there, not at MaxEvents, and report the
// cancellation.
func TestRunHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mod := loadSpec(t, "copier.csp")
	p, err := mod.Proc("copier")
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	_, err = mod.Run(ctx, p, csp.EngineOptions{MaxEvents: 1024}, func(csp.EventRecord, csp.History) error {
		events++
		cancel()
		return nil
	})
	if !errors.Is(err, csp.ErrCanceled) {
		t.Fatalf("Run returned %v after %d events; want an error wrapping ErrCanceled", err, events)
	}
	if events != 1 {
		t.Fatalf("the monitor saw %d events after canceling at the first", events)
	}
}
