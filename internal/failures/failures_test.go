package failures_test

import (
	"context"
	"math"
	"testing"

	"cspsat/internal/check"
	"cspsat/internal/failures"
	"cspsat/internal/paper"
	"cspsat/internal/sem"
	"cspsat/internal/syntax"
	"cspsat/internal/trace"
	"cspsat/internal/value"
)

func copierEnv() sem.Env { return sem.NewEnv(paper.CopySystem(), 2) }

func ev(c string, m int64) trace.Event {
	return trace.Event{Chan: trace.Chan(c), Msg: value.Int(m)}
}

// TestSection4DefectResolved is the headline: the trace model identifies
// STOP |~| copier with copier (the §4 defect, checkable), while the
// stable-failures model distinguishes them — exactly the "more realistic
// model of non-determinism" the conclusion hopes for.
func TestSection4DefectResolved(t *testing.T) {
	env := copierEnv()
	copier := syntax.Ref{Name: paper.NameCopier}
	ichoice := syntax.IChoice{L: syntax.Stop{}, R: copier}

	// Trace model: identical (the defect).
	ck := check.New(env, nil, 5)
	eq, err := ck.Equivalent(ichoice, copier)
	if err != nil {
		t.Fatal(err)
	}
	if !eq.OK {
		t.Fatalf("trace model should identify STOP |~| copier with copier: %s", eq)
	}

	// Failures model: distinguished.
	mi, err := failures.Compute(ichoice, env, 4)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := failures.Compute(copier, env, 4)
	if err != nil {
		t.Fatal(err)
	}
	cex, err := failures.Equivalent(mi, mc)
	if err != nil {
		t.Fatal(err)
	}
	if cex == nil {
		t.Fatal("failures model failed to distinguish STOP |~| copier from copier")
	}
	// Specifically: the internal choice may refuse everything initially...
	if !mi.Refuses(nil, []trace.Event{ev("input", 0), ev("input", 1)}) {
		t.Error("STOP |~| copier should be able to refuse all inputs")
	}
	// ...while the copier must accept some input.
	if mc.Refuses(nil, []trace.Event{ev("input", 0), ev("input", 1)}) {
		t.Error("copier must not refuse all inputs")
	}
	// And deadlock potential shows up only on the internal-choice side.
	if _, can := mi.CanDeadlock(); !can {
		t.Error("STOP |~| copier can deadlock (the STOP branch)")
	}
	if tr, can := mc.CanDeadlock(); can {
		t.Errorf("copier cannot deadlock, yet model says it can after %s", tr)
	}
}

// TestExternalChoiceStaysIdentified: the paper's own | merges offers, so
// STOP | P remains equal to P even in the failures model — the finer model
// changes exactly what should change and nothing else.
func TestExternalChoiceStaysIdentified(t *testing.T) {
	env := copierEnv()
	copier := syntax.Ref{Name: paper.NameCopier}
	alt := syntax.Alt{L: syntax.Stop{}, R: copier}
	ma, err := failures.Compute(alt, env, 4)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := failures.Compute(copier, env, 4)
	if err != nil {
		t.Fatal(err)
	}
	cex, err := failures.Equivalent(ma, mc)
	if err != nil {
		t.Fatal(err)
	}
	if cex != nil {
		t.Fatalf("STOP | copier should stay failures-equal to copier: %s", cex)
	}
}

func TestAcceptancesOfPrefixAndChoice(t *testing.T) {
	env := sem.NewEnv(syntax.NewModule(), 2)
	out := func(c string, v int64, k syntax.Proc) syntax.Proc {
		return syntax.Output{Ch: syntax.ChanRef{Name: c}, Val: syntax.IntLit{Val: v}, Cont: k}
	}
	// a!1 -> STOP | b!2 -> STOP : one stable state offering both.
	ext := syntax.Alt{L: out("a", 1, syntax.Stop{}), R: out("b", 2, syntax.Stop{})}
	m, err := failures.Compute(ext, env, 2)
	if err != nil {
		t.Fatal(err)
	}
	accs, ok := m.Acceptances(nil)
	if !ok || len(accs) != 1 || len(accs[0]) != 2 {
		t.Fatalf("external choice acceptances = %v", accs)
	}
	if m.Refuses(nil, []trace.Event{ev("a", 1)}) {
		t.Error("external choice refusing a while offering it")
	}
	if !m.Refuses(nil, []trace.Event{ev("c", 9)}) {
		t.Error("not-offered event should be refusable")
	}

	// a!1 -> STOP |~| b!2 -> STOP : two stable states, each offering one.
	internal := syntax.IChoice{L: out("a", 1, syntax.Stop{}), R: out("b", 2, syntax.Stop{})}
	mi, err := failures.Compute(internal, env, 2)
	if err != nil {
		t.Fatal(err)
	}
	accs, ok = mi.Acceptances(nil)
	if !ok || len(accs) != 2 {
		t.Fatalf("internal choice acceptances = %v", accs)
	}
	if !mi.Refuses(nil, []trace.Event{ev("a", 1)}) {
		t.Error("internal choice must be able to refuse a (by resolving right)")
	}
	if mi.Refuses(nil, []trace.Event{ev("a", 1), ev("b", 2)}) {
		t.Error("internal choice cannot refuse both branches")
	}
	// Failures refinement: the internal choice refines the external one's
	// traces but not its failures; the external refines neither direction?
	// Classic: ext ⊑F int fails (int refuses {a}); int ⊑F ext holds? ext's
	// acceptance {a,b} is not ⊆ of either singleton — wait, refinement
	// needs: every impl acceptance ⊇ some spec acceptance. impl=ext has
	// acceptance {a,b} ⊇ {a} (spec=int) ✓, so ext ⊑F int holds; and
	// impl=int has acceptance {a} which contains no spec acceptance of
	// ext ({a,b} ⊄ {a}), so int ⊑F ext fails.
	me := m
	if cex, err := failures.Refines(me, mi); err != nil || cex != nil {
		t.Errorf("ext ⊑F int should hold: %v %v", cex, err)
	}
	if cex, err := failures.Refines(mi, me); err != nil || cex == nil {
		t.Errorf("int ⊑F ext should fail: %v %v", cex, err)
	}
}

// TestDeadlockedStableStateRefusesEverything ties failures to FindDeadlocks.
func TestDeadlockedStableStateRefusesEverything(t *testing.T) {
	env := sem.NewEnv(syntax.NewModule(), 2)
	once := syntax.Output{Ch: syntax.ChanRef{Name: "out"}, Val: syntax.IntLit{Val: 7}, Cont: syntax.Stop{}}
	m, err := failures.Compute(once, env, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr, can := m.CanDeadlock()
	if !can {
		t.Fatal("out!7 -> STOP must reach a deadlocked stable state")
	}
	if tr.String() != "<out.7>" {
		t.Errorf("deadlock after %s, want <out.7>", tr)
	}
}

// TestProtocolFailuresSane: the hidden NACK loop makes some protocol states
// unstable, but the protocol still cannot refuse everything at the start.
func TestProtocolFailuresSane(t *testing.T) {
	env := sem.NewEnv(paper.ProtocolSystem(2), 2)
	m, err := failures.Compute(syntax.Ref{Name: paper.NameProtocol}, env, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.Refuses(nil, []trace.Event{ev("input", 0), ev("input", 1)}) {
		t.Error("fresh protocol refusing all inputs")
	}
	if _, can := m.CanDeadlock(); can {
		t.Error("protocol deadlocks in the failures model")
	}
	// Refinement against a two-place buffer spec: after the receiver ACKs,
	// the sender may accept a second message before the first is output,
	// so the protocol behaves as a buffer of capacity two:
	//
	//	buf2      = input?x:M -> hold[x]
	//	hold[x:M] = output!x -> buf2 | input?y:M -> output!x -> hold[y]
	msgs := syntax.RangeSet{Lo: syntax.IntLit{Val: 0}, Hi: syntax.IntLit{Val: 1}}
	bufMod := syntax.NewModule()
	bufMod.MustDefine(syntax.Def{Name: "buf2", Body: syntax.Input{
		Ch: syntax.ChanRef{Name: "input"}, Var: "x", Dom: msgs,
		Cont: syntax.Ref{Name: "hold", Sub: syntax.Var{Name: "x"}},
	}})
	bufMod.MustDefine(syntax.Def{Name: "hold", Param: "x", ParamDom: msgs,
		Body: syntax.Alt{
			L: syntax.Output{Ch: syntax.ChanRef{Name: "output"}, Val: syntax.Var{Name: "x"},
				Cont: syntax.Ref{Name: "buf2"}},
			R: syntax.Input{Ch: syntax.ChanRef{Name: "input"}, Var: "y", Dom: msgs,
				Cont: syntax.Output{Ch: syntax.ChanRef{Name: "output"}, Val: syntax.Var{Name: "x"},
					Cont: syntax.Ref{Name: "hold", Sub: syntax.Var{Name: "y"}}}},
		}})
	bufEnv := sem.NewEnv(bufMod, 2)
	spec, err := failures.Compute(syntax.Ref{Name: "buf2"}, bufEnv, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The protocol is failures-EQUIVALENT to the two-place buffer: every
	// retransmission state is unstable (the hidden wire sync is always
	// pending), so the stable states on both sides match exactly. The
	// unreliable wire vanishes without residue — the protocol-correctness
	// statement the paper's partial-correctness framework cannot even
	// express.
	cex, err := failures.Equivalent(m, spec)
	if err != nil {
		t.Fatal(err)
	}
	if cex != nil {
		t.Errorf("protocol should be failures-equivalent to the two-place buffer: %s", cex)
	}
}

// TestModelDepthMismatchRejected guards the API misuse.
func TestModelDepthMismatchRejected(t *testing.T) {
	env := copierEnv()
	a, _ := failures.Compute(syntax.Stop{}, env, 2)
	b, _ := failures.Compute(syntax.Stop{}, env, 3)
	if _, err := failures.Refines(a, b); err == nil {
		t.Fatal("depth mismatch accepted")
	}
}

// TestDivergence: the protocol can livelock — receiver NACKs forever, all
// hidden — which is exactly the fairness evasion the paper's introduction
// mentions. The buffer it is failures-equivalent to cannot. Divergence is
// the observable difference between them.
func TestDivergence(t *testing.T) {
	env := sem.NewEnv(paper.ProtocolSystem(2), 2)
	tr, div, err := failures.Diverges(context.Background(), syntax.Ref{Name: paper.NameProtocol}, env, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !div {
		t.Fatal("the protocol can retransmit forever; divergence not found")
	}
	if len(tr) != 1 || tr[0].Chan != "input" {
		t.Errorf("shortest divergence should follow one input, got %s", tr)
	}

	// The copier system never diverges: each hidden wire event is preceded
	// by a fresh input.
	cenv := copierEnv()
	_, div, err = failures.Diverges(context.Background(), syntax.Ref{Name: paper.NameCopySys}, cenv, 4)
	if err != nil {
		t.Fatal(err)
	}
	if div {
		t.Error("copysys wrongly flagged divergent")
	}

	// Pure hidden loop diverges immediately.
	m := syntax.NewModule()
	m.MustDefine(syntax.Def{Name: "spin", Body: syntax.Output{
		Ch: syntax.ChanRef{Name: "c"}, Val: syntax.IntLit{Val: 0}, Cont: syntax.Ref{Name: "spin"}}})
	m.MustDefine(syntax.Def{Name: "hidden", Body: syntax.Hiding{
		Channels: []syntax.ChanItem{{Name: "c"}}, Body: syntax.Ref{Name: "spin"}}})
	henv := sem.NewEnv(m, 2)
	tr, div, err = failures.Diverges(context.Background(), syntax.Ref{Name: "hidden"}, henv, 2)
	if err != nil || !div || len(tr) != 0 {
		t.Errorf("hidden spin: div=%v tr=%s err=%v", div, tr, err)
	}

	// Internal choice alone introduces τ-steps but no cycle.
	ic := syntax.IChoice{L: syntax.Stop{}, R: syntax.Stop{}}
	_, div, err = failures.Diverges(context.Background(), ic, henv, 2)
	if err != nil || div {
		t.Errorf("τ-split flagged divergent: %v %v", div, err)
	}
}

func TestDeterministic(t *testing.T) {
	env := copierEnv()
	mc, err := failures.Compute(syntax.Ref{Name: paper.NameCopier}, env, 4)
	if err != nil {
		t.Fatal(err)
	}
	if w := mc.Deterministic(); w != nil {
		t.Errorf("copier flagged nondeterministic: %s", w)
	}
	ms, err := failures.Compute(syntax.Ref{Name: paper.NameCopySys}, env, 4)
	if err != nil {
		t.Fatal(err)
	}
	if w := ms.Deterministic(); w != nil {
		t.Errorf("copysys flagged nondeterministic: %s", w)
	}
	// Internal choice is the canonical source of nondeterminism.
	out := func(c string, v int64) syntax.Proc {
		return syntax.Output{Ch: syntax.ChanRef{Name: c}, Val: syntax.IntLit{Val: v}, Cont: syntax.Stop{}}
	}
	mi, err := failures.Compute(syntax.IChoice{L: out("a", 1), R: out("b", 2)},
		sem.NewEnv(syntax.NewModule(), 2), 3)
	if err != nil {
		t.Fatal(err)
	}
	w := mi.Deterministic()
	if w == nil {
		t.Fatal("internal choice not flagged nondeterministic")
	}
	if len(w.Trace) != 0 {
		t.Errorf("witness should be at the start: %s", w)
	}
	// The protocol, despite its hidden races, resolves to deterministic
	// visible behaviour (it equals a buffer).
	penv := sem.NewEnv(paper.ProtocolSystem(2), 2)
	mp, err := failures.Compute(syntax.Ref{Name: paper.NameProtocol}, penv, 4)
	if err != nil {
		t.Fatal(err)
	}
	if w := mp.Deterministic(); w != nil {
		t.Errorf("protocol flagged nondeterministic: %s", w)
	}
}

// TestSizeCountsTraces checks the model's trace count, which it computes
// over (node, remaining depth) instead of listing traces: it must equal
// the number of traces Traces lists, and at the request caps, where a
// one-place buffer over 64 values has about 2^192 traces, it must stop at
// math.MaxInt instead of wrapping.
func TestSizeCountsTraces(t *testing.T) {
	env := copierEnv()
	copier := syntax.Ref{Name: paper.NameCopier}
	penv := sem.NewEnv(paper.ProtocolSystem(2), 2)
	for _, c := range []struct {
		name  string
		p     syntax.Proc
		env   sem.Env
		depth int
	}{
		{"copier", copier, env, 6},
		{"flaky", syntax.IChoice{L: syntax.Stop{}, R: copier}, env, 5},
		{"copysys", syntax.Ref{Name: paper.NameCopySys}, env, 7},
		{"protocol", syntax.Ref{Name: paper.NameProtocol}, penv, 6},
		{"stop", syntax.Stop{}, env, 3},
		{"depth 0", copier, env, 0},
	} {
		m, err := failures.Compute(c.p, c.env, c.depth)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := m.Size(), len(m.Traces()); got != want {
			t.Errorf("%s: Size %d, Traces lists %d", c.name, got, want)
		}
	}

	buf1 := syntax.Input{Ch: syntax.ChanRef{Name: "input"}, Var: "x", Dom: syntax.SetName{Name: "NAT"},
		Cont: syntax.Output{Ch: syntax.ChanRef{Name: "output"}, Val: syntax.Var{Name: "x"}, Cont: syntax.Ref{Name: "buf1"}}}
	mod := syntax.NewModule()
	mod.MustDefine(syntax.Def{Name: "buf1", Body: buf1})
	m, err := failures.Compute(syntax.Ref{Name: "buf1"}, sem.NewEnv(mod, 64), 64)
	if err != nil {
		t.Fatal(err)
	}
	if m.Size() != math.MaxInt {
		t.Errorf("buf1 at nat 64 and depth 64: Size %d, want math.MaxInt", m.Size())
	}
}
