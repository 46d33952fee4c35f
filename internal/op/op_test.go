package op_test

import (
	"context"
	"strings"
	"testing"

	"cspsat/internal/op"
	"cspsat/internal/paper"
	"cspsat/internal/sem"
	"cspsat/internal/syntax"
	"cspsat/internal/trace"
	"cspsat/internal/value"
)

func natDom() syntax.SetExpr { return syntax.SetName{Name: "NAT"} }

func outP(c string, e syntax.Expr, k syntax.Proc) syntax.Proc {
	return syntax.Output{Ch: syntax.ChanRef{Name: c}, Val: e, Cont: k}
}

func inP(c, x string, dom syntax.SetExpr, k syntax.Proc) syntax.Proc {
	return syntax.Input{Ch: syntax.ChanRef{Name: c}, Var: x, Dom: dom, Cont: k}
}

func emptyEnv(width int) sem.Env { return sem.NewEnv(syntax.NewModule(), width) }

func TestStepOutputAndInput(t *testing.T) {
	env := emptyEnv(3)
	p := outP("c", syntax.IntLit{Val: 5}, syntax.Stop{})
	ts, err := op.Step(op.NewState(p, env))
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 1 || ts[0].Ev.String() != "c.5" || ts[0].Tau {
		t.Fatalf("output step = %v", ts)
	}
	next, err := op.Step(ts[0].Next)
	if err != nil || len(next) != 0 {
		t.Fatalf("STOP has transitions: %v %v", next, err)
	}

	q := inP("c", "x", natDom(), outP("d", syntax.Var{Name: "x"}, syntax.Stop{}))
	ts, err = op.Step(op.NewState(q, env))
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 3 { // sampled NAT width 3 at the external boundary
		t.Fatalf("input fan-out = %d", len(ts))
	}
	// The value is substituted into the continuation.
	for _, tr := range ts {
		if !strings.Contains(tr.Next.Proc.String(), "d!"+tr.Ev.Msg.String()) {
			t.Errorf("continuation %s does not carry %s", tr.Next.Proc, tr.Ev.Msg)
		}
	}
}

// TestParSyncExactOutsideSample is the decisive offer-semantics test: an
// internal output whose value lies outside the NAT sample must still
// synchronise with an input of NAT — only external inputs are sampled.
func TestParSyncExactOutsideSample(t *testing.T) {
	env := emptyEnv(2) // sample = {0,1}
	left := outP("c", syntax.IntLit{Val: 17}, syntax.Stop{})
	right := inP("c", "x", natDom(), outP("d", syntax.Var{Name: "x"}, syntax.Stop{}))
	par := syntax.Par{L: left, R: right}
	ts, err := op.Step(op.NewState(par, env))
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 1 || ts[0].Ev.String() != "c.17" {
		t.Fatalf("sync outside sample failed: %v", ts)
	}
	// And the received 17 flows onward.
	after, err := op.Step(ts[0].Next)
	if err != nil || len(after) != 1 || after[0].Ev.String() != "d.17" {
		t.Fatalf("value propagation: %v %v", after, err)
	}
}

func TestParRefusesUnmatchedSharedEvent(t *testing.T) {
	env := emptyEnv(2)
	// Both sides share channel c but offer different values.
	par := syntax.Par{
		L: outP("c", syntax.IntLit{Val: 1}, syntax.Stop{}),
		R: outP("c", syntax.IntLit{Val: 2}, syntax.Stop{}),
	}
	ts, err := op.Step(op.NewState(par, env))
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 0 {
		t.Fatalf("mismatched outputs synchronised: %v", ts)
	}
	// Same value: exactly one joint event.
	par2 := syntax.Par{
		L: outP("c", syntax.IntLit{Val: 1}, syntax.Stop{}),
		R: outP("c", syntax.IntLit{Val: 1}, syntax.Stop{}),
	}
	ts, err = op.Step(op.NewState(par2, env))
	if err != nil || len(ts) != 1 {
		t.Fatalf("matched outputs: %v %v", ts, err)
	}
}

func TestParInputInputIntersection(t *testing.T) {
	env := emptyEnv(4)
	// c?x:{0..2} composed with c?y:{1..3}: the joint input accepts {1,2}.
	par := syntax.Par{
		L: inP("c", "x", syntax.RangeSet{Lo: syntax.IntLit{Val: 0}, Hi: syntax.IntLit{Val: 2}}, syntax.Stop{}),
		R: inP("c", "y", syntax.RangeSet{Lo: syntax.IntLit{Val: 1}, Hi: syntax.IntLit{Val: 3}}, syntax.Stop{}),
	}
	ts, err := op.Step(op.NewState(par, env))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, tr := range ts {
		got[tr.Ev.String()] = true
	}
	if len(got) != 2 || !got["c.1"] || !got["c.2"] {
		t.Fatalf("input∩input events = %v", got)
	}
}

func TestHidingMakesTauAndLoneInputSampled(t *testing.T) {
	env := emptyEnv(2)
	h := syntax.Hiding{
		Channels: []syntax.ChanItem{{Name: "c"}},
		Body:     inP("c", "x", natDom(), syntax.Stop{}),
	}
	ts, err := op.Step(op.NewState(h, env))
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 {
		t.Fatalf("lone hidden input fan-out = %d", len(ts))
	}
	for _, tr := range ts {
		if !tr.Tau {
			t.Errorf("hidden event not τ: %v", tr)
		}
	}
}

func TestUnguardedRecursionDetected(t *testing.T) {
	m := syntax.NewModule()
	m.MustDefine(syntax.Def{Name: "p", Body: syntax.Ref{Name: "p"}})
	env := sem.NewEnv(m, 2)
	if _, err := op.Step(op.NewState(syntax.Ref{Name: "p"}, env)); err == nil {
		t.Fatal("unguarded recursion not detected")
	}
}

func TestTracesArePrefixClosedAndDeterministic(t *testing.T) {
	env := sem.NewEnv(paper.ProtocolSystem(2), 2)
	p := syntax.Ref{Name: paper.NameProtocol}
	a, err := op.Traces(p, env, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := op.Traces(p, env, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("trace enumeration not deterministic")
	}
	for _, tr := range a.Traces() {
		for _, pfx := range tr.Prefixes() {
			if !a.Contains(pfx) {
				t.Fatalf("prefix %s of %s missing", pfx, tr)
			}
		}
	}
}

func TestTauCycleTerminates(t *testing.T) {
	// p = chan c; q where q = c!0 -> q : pure hidden divergence. The
	// explorer must terminate with just the empty trace.
	m := syntax.NewModule()
	m.MustDefine(syntax.Def{Name: "q", Body: outP("c", syntax.IntLit{Val: 0}, syntax.Ref{Name: "q"})})
	m.MustDefine(syntax.Def{Name: "p", Body: syntax.Hiding{
		Channels: []syntax.ChanItem{{Name: "c"}},
		Body:     syntax.Ref{Name: "q"},
	}})
	env := sem.NewEnv(m, 2)
	s, err := op.Traces(syntax.Ref{Name: "p"}, env, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 1 {
		t.Fatalf("diverging process has %d traces, want 1 (<>)", s.Size())
	}
}

func TestTauClosureStateCap(t *testing.T) {
	// A counter that counts up on a hidden channel never repeats a state;
	// the τ-closure cap must fire rather than hang.
	m := syntax.NewModule()
	m.MustDefine(syntax.Def{
		Name: "count", Param: "n", ParamDom: syntax.SetName{Name: "NAT"},
		Body: outP("c", syntax.Var{Name: "n"}, syntax.Ref{
			Name: "count",
			Sub:  syntax.Binary{Op: syntax.OpAdd, L: syntax.Var{Name: "n"}, R: syntax.IntLit{Val: 1}},
		}),
	})
	m.MustDefine(syntax.Def{Name: "p", Body: syntax.Hiding{
		Channels: []syntax.ChanItem{{Name: "c"}},
		Body:     syntax.Ref{Name: "count", Sub: syntax.IntLit{Val: 0}},
	}})
	env := sem.NewEnv(m, 2)
	x := op.NewExplorer()
	x.MaxTauStates = 64
	_, err := x.Traces(op.NewState(syntax.Ref{Name: "p"}, env), 3)
	if err == nil || !strings.Contains(err.Error(), "τ-closure") {
		t.Fatalf("cap did not fire: %v", err)
	}
}

func TestVisibleEventsMenu(t *testing.T) {
	env := sem.NewEnv(paper.CopySystem(), 2)
	st := op.NewState(syntax.Ref{Name: paper.NameCopySys}, env)
	// After <input.1> the system can input again or output 1.
	menu, ok, err := op.VisibleEvents(st, trace.T{{Chan: "input", Msg: value.Int(1)}})
	if err != nil || !ok {
		t.Fatalf("VisibleEvents: %v %v", ok, err)
	}
	events := map[string]bool{}
	for _, m := range menu {
		events[m.Ev.String()] = true
	}
	for _, want := range []string{"input.0", "input.1", "output.1"} {
		if !events[want] {
			t.Errorf("menu missing %s: %v", want, events)
		}
	}
	// A trace the process cannot perform is rejected.
	_, ok, err = op.VisibleEvents(st, trace.T{{Chan: "output", Msg: value.Int(1)}})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("impossible trace accepted")
	}
}

func TestSimulatorWalks(t *testing.T) {
	env := sem.NewEnv(paper.ProtocolSystem(2), 2)
	sim := op.NewSimulator(7)
	visible, log, err := sim.Walk(op.NewState(syntax.Ref{Name: paper.NameProtocol}, env), 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(visible) != 6 {
		t.Fatalf("visible = %s", visible)
	}
	if len(log) < len(visible) {
		t.Fatalf("log shorter than visible trace")
	}
	// Determinism under seed.
	sim2 := op.NewSimulator(7)
	v2, _, err := sim2.Walk(op.NewState(syntax.Ref{Name: paper.NameProtocol}, env), 6)
	if err != nil || !visible.Equal(v2) {
		t.Fatalf("same seed, different walks: %s vs %s", visible, v2)
	}
}

func TestSimulatorDetectsHiddenDivergence(t *testing.T) {
	m := syntax.NewModule()
	m.MustDefine(syntax.Def{Name: "q", Body: outP("c", syntax.IntLit{Val: 0}, syntax.Ref{Name: "q"})})
	m.MustDefine(syntax.Def{Name: "p", Body: syntax.Hiding{
		Channels: []syntax.ChanItem{{Name: "c"}},
		Body:     syntax.Ref{Name: "q"},
	}})
	env := sem.NewEnv(m, 2)
	sim := op.NewSimulator(1)
	sim.MaxTauRun = 32
	_, _, err := sim.Walk(op.NewState(syntax.Ref{Name: "p"}, env), 3)
	if err == nil || !strings.Contains(err.Error(), "divergence") {
		t.Fatalf("divergence not flagged: %v", err)
	}
}

func TestOfferStrings(t *testing.T) {
	env := emptyEnv(2)
	offs, err := op.Offers(op.NewState(inP("c", "x", natDom(), syntax.Stop{}), env))
	if err != nil || len(offs) != 1 {
		t.Fatalf("offers: %v %v", offs, err)
	}
	if got := offs[0].String(); got != "c?NAT" {
		t.Errorf("input offer String = %q", got)
	}
	offs, err = op.Offers(op.NewState(outP("c", syntax.IntLit{Val: 3}, syntax.Stop{}), env))
	if err != nil || offs[0].String() != "c!3" {
		t.Errorf("output offer String = %q (%v)", offs[0].String(), err)
	}
}

func TestIntersectDomain(t *testing.T) {
	d := op.IntersectDomain{
		A: value.IntRange{Lo: 0, Hi: 5},
		B: value.Nat{SampleWidth: 3},
	}
	if !d.Contains(value.Int(4)) || d.Contains(value.Int(6)) || d.Contains(value.Int(-1)) {
		t.Error("membership wrong")
	}
	if !d.IsFinite() {
		t.Error("intersection with a finite side must be finite")
	}
	got := d.Enumerate()
	// Union of samples filtered by joint membership: {0..5} ∪ {0,1,2} → 0..5.
	if len(got) != 6 {
		t.Errorf("Enumerate = %v", got)
	}
}

func TestFindDeadlocks(t *testing.T) {
	// The crossing network: each side insists on its own first step.
	m := syntax.NewModule()
	one := syntax.EnumSet{Elems: []syntax.Expr{syntax.IntLit{Val: 1}}}
	m.MustDefine(syntax.Def{Name: "p", Body: outP("s", syntax.IntLit{Val: 1},
		inP("c", "x", one, syntax.Ref{Name: "p"}))})
	m.MustDefine(syntax.Def{Name: "q", Body: outP("c", syntax.IntLit{Val: 1},
		inP("s", "y", one, syntax.Ref{Name: "q"}))})
	m.MustDefine(syntax.Def{Name: "net", Body: syntax.Par{L: syntax.Ref{Name: "p"}, R: syntax.Ref{Name: "q"}}})
	env := sem.NewEnv(m, 2)
	dls, err := op.FindDeadlocks(context.Background(), op.NewState(syntax.Ref{Name: "net"}, env), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(dls) == 0 {
		t.Fatal("crossing network's deadlock not found")
	}
	if len(dls[0].Trace) != 0 {
		t.Errorf("deadlock should be immediate, found after %s", dls[0].Trace)
	}

	// The protocol never deadlocks within the bound.
	penv := sem.NewEnv(paper.ProtocolSystem(2), 2)
	dls, err = op.FindDeadlocks(context.Background(), op.NewState(syntax.Ref{Name: paper.NameProtocol}, penv), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(dls) != 0 {
		t.Fatalf("protocol deadlocks: %v after %s", dls[0].State.Proc, dls[0].Trace)
	}

	// A process that stops after one step deadlocks (by design) after it:
	// partial correctness cannot distinguish this from the crossing bug.
	m2 := syntax.NewModule()
	m2.MustDefine(syntax.Def{Name: "once", Body: outP("out", syntax.IntLit{Val: 7}, syntax.Stop{})})
	env2 := sem.NewEnv(m2, 2)
	dls, err = op.FindDeadlocks(context.Background(), op.NewState(syntax.Ref{Name: "once"}, env2), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(dls) != 1 || len(dls[0].Trace) != 1 {
		t.Fatalf("expected one deadlock after <out.7>, got %v", dls)
	}
}

func TestDotLTS(t *testing.T) {
	env := sem.NewEnv(paper.CopySystem(), 1)
	g, err := op.DotLTS(op.NewState(syntax.Ref{Name: paper.NameCopySys}, env), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"digraph lts", "doublecircle", "input.0", "τ wire.0", "style=dashed"} {
		if !strings.Contains(g, want) {
			t.Errorf("dot output missing %q:\n%s", want, g)
		}
	}
	// Recursion closes the cycle: state count stays finite and small.
	if n := strings.Count(g, "shape=circle"); n > 8 {
		t.Errorf("copysys LTS should be tiny, got %d states", n)
	}
}

// TestMultiwayBroadcast exercises the paper's §1.2 note: "a channel may
// have a single process which outputs on it and many other processes which
// input from it. All such inputs occur simultaneously with the output."
// Synchronisation must thread through nested compositions.
func TestMultiwayBroadcast(t *testing.T) {
	env := emptyEnv(2)
	one := syntax.EnumSet{Elems: []syntax.Expr{syntax.IntLit{Val: 1}}}
	a := outP("c", syntax.IntLit{Val: 1}, syntax.Stop{})
	b := inP("c", "x", one, outP("d", syntax.Var{Name: "x"}, syntax.Stop{}))
	c := inP("c", "y", one, outP("e", syntax.Var{Name: "y"}, syntax.Stop{}))
	net := syntax.Par{L: syntax.Par{L: a, R: b}, R: c}

	ts, err := op.Step(op.NewState(net, env))
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 1 || ts[0].Ev.String() != "c.1" {
		t.Fatalf("broadcast initial step = %v", ts)
	}
	// Both receivers got the value simultaneously: d.1 and e.1 now
	// interleave freely.
	set, err := op.Traces(net, env, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<c.1, d.1, e.1>", "<c.1, e.1, d.1>"} {
		found := false
		for _, tr := range set.Traces() {
			if tr.String() == want {
				found = true
			}
		}
		if !found {
			t.Errorf("missing broadcast continuation %s in %s", want, set)
		}
	}
	// And nothing can happen before the three-way sync.
	if set.Contains(trace.T{{Chan: "d", Msg: value.Int(1)}}) {
		t.Error("receiver ran ahead of the broadcast")
	}
}

// TestAllInputChannel is the §1.2 note's second half: when every connected
// process inputs, the communication still happens "with a highly
// non-determinate result" — any jointly acceptable value.
func TestAllInputChannel(t *testing.T) {
	env := emptyEnv(3)
	b := inP("c", "x", syntax.RangeSet{Lo: syntax.IntLit{Val: 0}, Hi: syntax.IntLit{Val: 2}}, syntax.Stop{})
	c := inP("c", "y", syntax.RangeSet{Lo: syntax.IntLit{Val: 1}, Hi: syntax.IntLit{Val: 4}}, syntax.Stop{})
	net := syntax.Par{L: b, R: c}
	ts, err := op.Step(op.NewState(net, env))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, tr := range ts {
		got[tr.Ev.String()] = true
	}
	if !got["c.1"] || !got["c.2"] || got["c.0"] || got["c.3"] {
		t.Fatalf("all-input events = %v, want exactly the intersection {1,2}", got)
	}
}
