package runtime_test

import (
	"context"
	"errors"
	"testing"

	"cspsat/internal/assertion"
	"cspsat/internal/op"
	"cspsat/internal/paper"
	"cspsat/internal/runtime"
	"cspsat/internal/sem"
	"cspsat/internal/syntax"
	"cspsat/internal/trace"
	"cspsat/internal/value"
)

func TestRunCopierNetwork(t *testing.T) {
	m := paper.CopySystem()
	env := sem.NewEnv(m, 3)
	res, err := runtime.Run(context.Background(), syntax.Ref{Name: paper.NameCopyNet}, runtime.Config{
		Env: env, Seed: 1, MaxEvents: 60,
		Monitor: runtime.MonitorSat(paper.CopyNetSat(), env, nil),
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.MonitorErr != nil {
		t.Fatalf("monitor: %v", res.MonitorErr)
	}
	if res.LeafCount != 2 {
		t.Fatalf("leaf count = %d, want 2", res.LeafCount)
	}
	if len(res.Trace) != 60 {
		t.Fatalf("trace length = %d, want 60 (free-running network)", len(res.Trace))
	}
	// Every run trace must be a trace of the operational semantics.
	hist := trace.Ch(res.Trace)
	if !trace.IsPrefixSeq(hist.Get("output"), hist.Get("wire")) {
		t.Errorf("output not a prefix of wire: %s", hist)
	}
	if !trace.IsPrefixSeq(hist.Get("wire"), hist.Get("input")) {
		t.Errorf("wire not a prefix of input: %s", hist)
	}
}

func TestRunCopySysHidesWire(t *testing.T) {
	m := paper.CopySystem()
	env := sem.NewEnv(m, 3)
	res, err := runtime.Run(context.Background(), syntax.Ref{Name: paper.NameCopySys}, runtime.Config{
		Env: env, Seed: 7, MaxEvents: 50,
		Monitor: runtime.MonitorSat(paper.CopyNetSat(), env, nil),
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.MonitorErr != nil {
		t.Fatalf("monitor: %v", res.MonitorErr)
	}
	sawHidden := false
	for _, rec := range res.Events {
		if rec.Ev.Chan == "wire" {
			if !rec.Hidden {
				t.Fatalf("wire event not marked hidden: %v", rec)
			}
			sawHidden = true
		}
	}
	if !sawHidden {
		t.Fatal("no hidden wire events in 50 steps")
	}
	for _, ev := range res.Trace {
		if ev.Chan == "wire" {
			t.Fatalf("hidden channel leaked into visible trace: %s", res.Trace)
		}
	}
}

func TestRunProtocolMonitored(t *testing.T) {
	m := paper.ProtocolSystem(2)
	env := sem.NewEnv(m, 2)
	res, err := runtime.Run(context.Background(), syntax.Ref{Name: paper.NameProtocol}, runtime.Config{
		Env: env, Seed: 42, MaxEvents: 400,
		Monitor: runtime.MonitorSat(paper.ProtocolSat(), env, nil),
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.MonitorErr != nil {
		t.Fatalf("monitor: %v", res.MonitorErr)
	}
	hist := trace.Ch(res.Trace)
	if len(hist.Get("output")) == 0 {
		t.Fatal("protocol delivered nothing in 400 events")
	}
	if !trace.IsPrefixSeq(hist.Get("output"), hist.Get("input")) {
		t.Fatalf("output not a prefix of input: %s", hist)
	}
}

func TestRunMultiplierComputesScalarProducts(t *testing.T) {
	m := paper.MultiplierSystem([]int64{5, 3, 2})
	env := sem.NewEnv(m, 3)
	res, err := runtime.Run(context.Background(), syntax.Ref{Name: paper.NameMultiplier}, runtime.Config{
		Env: env, Seed: 3, MaxEvents: 300,
		Monitor: runtime.MonitorSat(paper.MultiplierSat(), env, nil),
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.MonitorErr != nil {
		t.Fatalf("monitor: %v", res.MonitorErr)
	}
	if res.LeafCount != 5 {
		t.Fatalf("leaf count = %d, want 5", res.LeafCount)
	}
	hist := trace.Ch(res.Trace)
	if len(hist.Get("output")) == 0 {
		t.Fatal("multiplier produced no outputs in 300 events")
	}
}

func TestMonitorCatchesViolation(t *testing.T) {
	m := paper.CopySystem()
	env := sem.NewEnv(m, 3)
	// The false claim input ≤ wire must be caught as soon as input leads.
	bad := assertion.PrefixLE(assertion.Chan("input"), assertion.Chan("wire"))
	res, err := runtime.Run(context.Background(), syntax.Ref{Name: paper.NameCopyNet}, runtime.Config{
		Env: env, Seed: 5, MaxEvents: 50,
		Monitor: runtime.MonitorSat(bad, env, nil),
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.MonitorErr == nil {
		t.Fatal("expected the monitor to flag the violation")
	}
	if !errors.Is(res.MonitorErr, runtime.ErrSatViolated) {
		t.Fatalf("monitor error %v does not wrap ErrSatViolated", res.MonitorErr)
	}
}

func TestQuiescenceOnStop(t *testing.T) {
	m := syntax.NewModule()
	m.MustDefine(syntax.Def{Name: "once", Body: syntax.Output{
		Ch: syntax.ChanRef{Name: "out"}, Val: syntax.IntLit{Val: 7}, Cont: syntax.Stop{},
	}})
	env := sem.NewEnv(m, 2)
	res, err := runtime.Run(context.Background(), syntax.Ref{Name: "once"}, runtime.Config{Env: env, Seed: 1})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.Quiescent {
		t.Fatal("expected quiescence after the single output")
	}
	want := trace.T{{Chan: "out", Msg: value.Int(7)}}
	if !res.Trace.Equal(want) {
		t.Fatalf("trace %s, want %s", res.Trace, want)
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	m := paper.ProtocolSystem(2)
	env := sem.NewEnv(m, 2)
	run := func() trace.T {
		res, err := runtime.Run(context.Background(), syntax.Ref{Name: paper.NameProtocol}, runtime.Config{
			Env: env, Seed: 99, MaxEvents: 200,
		})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return res.Trace
	}
	a, b := run(), run()
	if !a.Equal(b) {
		t.Fatalf("same seed, different traces:\n  %s\n  %s", a, b)
	}
}

// TestRunTraceIsOpTrace replays runtime traces against the operational
// semantics: everything the concurrent execution does must be a trace the
// model admits.
func TestRunTraceIsOpTrace(t *testing.T) {
	m := paper.ProtocolSystem(2)
	env := sem.NewEnv(m, 2)
	for seed := int64(0); seed < 6; seed++ {
		res, err := runtime.Run(context.Background(), syntax.Ref{Name: paper.NameProtocol}, runtime.Config{
			Env: env, Seed: seed, MaxEvents: 12,
		})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		st := op.NewState(syntax.Ref{Name: paper.NameProtocol}, env)
		_, ok, err := op.VisibleEvents(st, res.Trace)
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		if !ok {
			t.Fatalf("seed %d: runtime trace %s is not an operational trace", seed, res.Trace)
		}
	}
}

func TestRunInternalChoice(t *testing.T) {
	// maybe = out!1 -> STOP |~| out!2 -> STOP: each run resolves the
	// choice internally and emits exactly one value; across seeds both
	// resolutions occur.
	m := syntax.NewModule()
	m.MustDefine(syntax.Def{Name: "maybe", Body: syntax.IChoice{
		L: syntax.Output{Ch: syntax.ChanRef{Name: "out"}, Val: syntax.IntLit{Val: 1}, Cont: syntax.Stop{}},
		R: syntax.Output{Ch: syntax.ChanRef{Name: "out"}, Val: syntax.IntLit{Val: 2}, Cont: syntax.Stop{}},
	}})
	env := sem.NewEnv(m, 2)
	seen := map[string]bool{}
	for seed := int64(0); seed < 10; seed++ {
		res, err := runtime.Run(context.Background(), syntax.Ref{Name: "maybe"}, runtime.Config{Env: env, Seed: seed, MaxEvents: 10})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Quiescent {
			t.Fatalf("seed %d: expected quiescence, got %v", seed, res.Events)
		}
		if len(res.Trace) != 1 || res.Trace[0].Chan != "out" {
			t.Fatalf("seed %d: trace %s", seed, res.Trace)
		}
		seen[res.Trace.String()] = true
		// The resolving τ-step is logged as hidden.
		if !res.Events[0].Hidden {
			t.Fatalf("seed %d: first event should be the hidden choice: %v", seed, res.Events)
		}
	}
	if len(seen) != 2 {
		t.Errorf("10 seeds resolved the choice one way only: %v", seen)
	}
}

// TestRuntimeBroadcast: the coordinator implements the paper's §1.2
// multiway synchronisation — one outputter, two inputters, one event.
func TestRuntimeBroadcast(t *testing.T) {
	m := syntax.NewModule()
	one := syntax.EnumSet{Elems: []syntax.Expr{syntax.IntLit{Val: 1}}}
	m.MustDefine(syntax.Def{Name: "src", Body: syntax.Output{
		Ch: syntax.ChanRef{Name: "c"}, Val: syntax.IntLit{Val: 1}, Cont: syntax.Stop{}}})
	m.MustDefine(syntax.Def{Name: "sink1", Body: syntax.Input{
		Ch: syntax.ChanRef{Name: "c"}, Var: "x", Dom: one,
		Cont: syntax.Output{Ch: syntax.ChanRef{Name: "d"}, Val: syntax.Var{Name: "x"}, Cont: syntax.Stop{}}}})
	m.MustDefine(syntax.Def{Name: "sink2", Body: syntax.Input{
		Ch: syntax.ChanRef{Name: "c"}, Var: "y", Dom: one,
		Cont: syntax.Output{Ch: syntax.ChanRef{Name: "e"}, Val: syntax.Var{Name: "y"}, Cont: syntax.Stop{}}}})
	m.MustDefine(syntax.Def{Name: "net", Body: syntax.ParAll(
		syntax.Ref{Name: "src"}, syntax.Ref{Name: "sink1"}, syntax.Ref{Name: "sink2"})})
	env := sem.NewEnv(m, 2)
	res, err := runtime.Run(context.Background(), syntax.Ref{Name: "net"}, runtime.Config{Env: env, Seed: 2, MaxEvents: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Quiescent || res.LeafCount != 3 {
		t.Fatalf("quiescent=%v leaves=%d", res.Quiescent, res.LeafCount)
	}
	if len(res.Trace) != 3 || res.Trace[0].Chan != "c" {
		t.Fatalf("trace = %s", res.Trace)
	}
	// The broadcast event had all three leaves as participants.
	if got := len(res.Events[0].Leaves); got != 3 {
		t.Fatalf("broadcast participants = %d, want 3", got)
	}
}
