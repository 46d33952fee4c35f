package csp_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"cspsat/pkg/csp"
)

const spec = `
copier = input?x:NAT -> wire!x -> copier
recopier = wire?y:NAT -> output!y -> recopier
net = copier || recopier
sys = chan wire; net
assert copier sat wire <= input
`

func load(t *testing.T) *csp.Module {
	t.Helper()
	mod, err := csp.Load(context.Background(), spec, csp.Options{NatWidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

func TestLoadErrParse(t *testing.T) {
	_, err := csp.Load(context.Background(), "copier = ->", csp.Options{})
	if err == nil {
		t.Fatal("want parse error")
	}
	if !errors.Is(err, csp.ErrParse) {
		t.Fatalf("error does not wrap csp.ErrParse: %v", err)
	}
}

func TestLoadCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := csp.Load(ctx, spec, csp.Options{}); !errors.Is(err, csp.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

func TestEngineString(t *testing.T) {
	for e, want := range map[csp.Engine]string{
		csp.EngineOp:      "op",
		csp.EngineDenote:  "denote",
		csp.EngineRuntime: "runtime",
	} {
		if got := e.String(); got != want {
			t.Errorf("Engine(%d).String() = %q, want %q", int(e), got, want)
		}
	}
}

// TestEnginesAgree pins the two exhaustive engines to each other through
// the facade, and checks the runtime engine's sampled walk is a prefix-
// closed under-approximation of the exhaustive trace set.
func TestEnginesAgree(t *testing.T) {
	mod := load(t)
	p, err := mod.Proc("sys")
	if err != nil {
		t.Fatal(err)
	}
	opRes, err := mod.Traces(context.Background(), p, csp.EngineOptions{Engine: csp.EngineOp, Depth: 6})
	if err != nil {
		t.Fatal(err)
	}
	denRes, err := mod.Traces(context.Background(), p, csp.EngineOptions{Engine: csp.EngineDenote, Depth: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !opRes.Set.Same(denRes.Set) {
		t.Fatal("op and denote engines disagree through the facade")
	}
	if denRes.Iterations < 1 {
		t.Fatalf("denote engine reported %d iterations", denRes.Iterations)
	}
	runRes, err := mod.Traces(context.Background(), p, csp.EngineOptions{Engine: csp.EngineRuntime, Seed: 1, MaxEvents: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !runRes.Set.SubsetOf(opRes.Set) {
		t.Fatal("runtime engine observed a trace the op engine says is impossible")
	}
}

func TestTracesCanceled(t *testing.T) {
	mod := load(t)
	p, err := mod.Proc("sys")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range []csp.Engine{csp.EngineOp, csp.EngineDenote, csp.EngineRuntime} {
		if _, err := mod.Traces(ctx, p, csp.EngineOptions{Engine: e, Depth: 6}); !errors.Is(err, csp.ErrCanceled) {
			t.Errorf("engine %v: want ErrCanceled, got %v", e, err)
		}
	}
}

// TestOpTracesProgress checks that a serial op exploration reports through
// EngineOptions.Progress: exactly one final "explore" event, so a host's
// progress snapshot covers the op engine at every worker count.
func TestOpTracesProgress(t *testing.T) {
	mod := load(t)
	p, err := mod.Proc("sys")
	if err != nil {
		t.Fatal(err)
	}
	var events []csp.ProgressEvent
	opts := csp.EngineOptions{Engine: csp.EngineOp, Depth: 6, Progress: func(e csp.ProgressEvent) { events = append(events, e) }}
	if _, err := mod.Traces(context.Background(), p, opts); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("got %d progress events, want 1: %+v", len(events), events)
	}
	if e := events[0]; e.Stage != "explore" || !e.Done || e.StatesExpanded <= 0 || e.Depth != 6 {
		t.Fatalf("progress event %+v, want a Done explore event at depth 6 with StatesExpanded > 0", e)
	}
}

func TestCheckAllAndSat(t *testing.T) {
	mod := load(t)
	results, err := mod.CheckAll(context.Background(), csp.CheckOptions{Depth: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("want 1 assert result, got %d", len(results))
	}
	if !results[0].OK() {
		t.Fatalf("assert failed: %v", results[0])
	}
	out := csp.FormatAssertResults(results)
	if !strings.Contains(out, "OK") {
		t.Fatalf("FormatAssertResults missing OK line:\n%s", out)
	}
}

func TestStatsAfterReset(t *testing.T) {
	csp.ResetCaches()
	mod := load(t)
	p, err := mod.Proc("sys")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mod.Traces(context.Background(), p, csp.EngineOptions{Depth: 5}); err != nil {
		t.Fatal(err)
	}
	s := csp.Stats()
	if s.InternedNodes == 0 {
		t.Fatal("Stats reports no interned nodes after an exploration")
	}
}

// TestFalseClaimsNotProved pins false claims that the model checker
// refutes and the prover once proved. The first reads c only inside a
// constant-array subscript, which R_<> and R[e⌢c/c] must rewrite too. In
// the second the input rule's fresh variable v0 would be captured by the
// claim's own binder, and in the third the claim's binder of x would
// capture y once y is renamed to q's parameter x. In the fourth the
// process's own input binds v0, which the synthesiser once chose as the
// outer input's fresh variable, so P[v0/x] captured it.
func TestFalseClaimsNotProved(t *testing.T) {
	for _, c := range []struct{ src, cex string }{
		{"const K[0..1] = [0, 5]\nP = c!0 -> STOP\nassert P sat K[#c] == 0\n", "<c.0>"},
		{"P = c?x:{0..1} -> STOP\nassert P sat forall v0 in {5}. c <= <v0>\n", "<c.0>"},
		{"set M = {0..1}\nq[x:M] = c!x -> STOP\nassert forall y in M. q[y] sat forall x in {1}. #c <= y\n", "<c.0>"},
		{"P = c?x:{0..1} -> d?v0:{0..1} -> e!x -> STOP\nassert P sat e <= d\n", "<c.0, d.1, e.0>"},
	} {
		ctx := context.Background()
		mod, err := csp.Load(ctx, c.src, csp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		proved, err := mod.ProveAsserts(ctx, csp.CheckOptions{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(proved) != 1 || proved[0].OK {
			t.Errorf("%s: ProveAsserts = %+v, want one unproved result", c.src, proved)
		}
		checked, err := mod.CheckAll(ctx, csp.CheckOptions{Depth: 4})
		if err != nil {
			t.Fatal(err)
		}
		if len(checked) != 1 || checked[0].OK() || checked[0].Result.Counter == nil || checked[0].Result.Counter.Trace.String() != c.cex {
			t.Errorf("%s: CheckAll = %v, want a counterexample on %s", c.src, checked, c.cex)
		}
	}
}

// TestInternalChoiceChannels checks that the channels a process uses only
// under |~| resolve in its asserts: #b is a channel's history, not an
// unbound variable, and offers may name a and b.
func TestInternalChoiceChannels(t *testing.T) {
	ctx := context.Background()
	src := "P = a!0 -> STOP |~| b!1 -> STOP\nassert P sat #b <= 1\nassert P sat offers a, b\n"
	mod, err := csp.Load(ctx, src, csp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	traces, err := mod.CheckAll(ctx, csp.CheckOptions{Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 2 || !traces[0].OK() {
		t.Errorf("CheckAll = %v, want #b <= 1 holding", traces)
	}
	failures, err := mod.CheckAll(ctx, csp.CheckOptions{Depth: 4, Model: csp.ModelFailures})
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 2 || failures[1].OK() || failures[1].Result.Refusal == nil ||
		len(failures[1].Result.Refusal.Acceptance) != 0 || failures[1].Result.Refusal.Trace.String() != "<a.0>" {
		t.Errorf("failures CheckAll = %v, want offers a, b failing with a deadlock after <a.0>", failures)
	}
}

// TestSetQuantifierClaim checks a true claim whose assertion quantifies
// over a set that mentions the claim's own variable: instantiating y must
// reach the y of {0..y}, which neither checker could evaluate unbound.
func TestSetQuantifierClaim(t *testing.T) {
	ctx := context.Background()
	src := "set M = {0..1}\nq[y:M] = c!y -> STOP\nassert forall y in M. q[y] sat forall z in {0..y}. #c <= 1\n"
	mod, err := csp.Load(ctx, src, csp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	checked, err := mod.CheckAll(ctx, csp.CheckOptions{Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(checked) != 1 || !checked[0].OK() {
		t.Errorf("CheckAll = %v, want the claim holding", checked)
	}
	proved, err := mod.ProveAsserts(ctx, csp.CheckOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(proved) != 1 || !proved[0].OK {
		t.Errorf("ProveAsserts = %+v, want the claim proved", proved)
	}
}
