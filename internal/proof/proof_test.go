package proof_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"cspsat/internal/assertion"
	"cspsat/internal/csperr"
	"cspsat/internal/paper"
	"cspsat/internal/proof"
	"cspsat/internal/sem"
	"cspsat/internal/syntax"
	"cspsat/internal/value"
)

func checker(t *testing.T) *proof.Checker {
	t.Helper()
	env := sem.NewEnv(paper.CopySystem(), 2)
	c := proof.NewChecker(env, nil)
	c.Validity = assertion.ValidityConfig{MaxLen: 3}
	return c
}

func TestTrivialityRule(t *testing.T) {
	c := checker(t)
	// ⊢ wire <= wire is always true, so any process satisfies it.
	cl, err := c.Check(proof.Triviality{
		P: syntax.Ref{Name: paper.NameCopier},
		T: assertion.PrefixLE(assertion.Chan("wire"), assertion.Chan("wire")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if cl.String() != "copier sat wire <= wire" {
		t.Errorf("conclusion = %s", cl)
	}
	// A falsifiable T is rejected.
	if _, err := c.Check(proof.Triviality{
		P: syntax.Stop{},
		T: assertion.PrefixLE(assertion.Chan("wire"), assertion.Chan("input")),
	}); err == nil {
		t.Error("falsifiable T accepted by triviality")
	}
}

// TestDischargeCanceled checks that a side condition is discharged under
// the checker's context: an obligation of 3,796,416 cases over the
// server's default domain, which no pruning shortens, gives up soon after
// a 20ms deadline.
func TestDischargeCanceled(t *testing.T) {
	c := proof.NewChecker(sem.NewEnv(paper.CopySystem(), 3), nil)
	c.Validity = assertion.ValidityConfig{
		MaxLen:     3,
		DefaultDom: value.Union{A: value.Nat{SampleWidth: 3}, B: value.NewEnum(value.Sym("ACK"), value.Sym("NACK"))},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	c.Ctx = ctx
	lens := assertion.Arith{Op: assertion.AAdd,
		L: assertion.Arith{Op: assertion.AAdd, L: assertion.Len{S: assertion.Chan("a")}, R: assertion.Len{S: assertion.Chan("b")}},
		R: assertion.Len{S: assertion.Chan("c")}}
	start := time.Now()
	_, err := c.Check(proof.Triviality{P: syntax.Stop{}, T: assertion.Cmp{Op: assertion.CGe, L: lens, R: assertion.Int(0)}})
	if took := time.Since(start); took > 250*time.Millisecond {
		t.Errorf("Check returned %v after its 20ms deadline", took)
	}
	if !errors.Is(err, csperr.ErrCanceled) {
		t.Fatalf("Check: got %v, want an error wrapping ErrCanceled", err)
	}
}

func TestConjunctionRule(t *testing.T) {
	c := checker(t)
	p1 := proof.Emptiness{R: paper.CopierSat()}
	p2 := proof.Emptiness{R: paper.CopierLenSat()}
	cl, err := c.Check(proof.Conjunction{P1: p1, P2: p2})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cl.A.(assertion.And); !ok {
		t.Fatalf("conclusion not a conjunction: %s", cl)
	}
	// Different processes are rejected.
	bad := proof.Conjunction{
		P1: p1,
		P2: proof.Triviality{P: syntax.Ref{Name: paper.NameCopier},
			T: assertion.PrefixLE(assertion.Chan("wire"), assertion.Chan("wire"))},
	}
	if _, err := c.Check(bad); err == nil {
		t.Error("conjunction across processes accepted")
	}
}

func TestAlternativeRule(t *testing.T) {
	c := checker(t)
	r := paper.CopierSat()
	cl, err := c.Check(proof.Alternative{
		P1: proof.Emptiness{R: r},
		P2: proof.Emptiness{R: r},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cl.String() != "(STOP | STOP) sat wire <= input" {
		t.Errorf("conclusion = %s", cl)
	}
	// Different assertions rejected.
	if _, err := c.Check(proof.Alternative{
		P1: proof.Emptiness{R: r},
		P2: proof.Emptiness{R: paper.RecopierSat()},
	}); err == nil {
		t.Error("alternative with differing assertions accepted")
	}
}

func TestOutputRulePremiseShape(t *testing.T) {
	c := checker(t)
	r := paper.CopierSat() // wire <= input
	// Correct premise: STOP sat (3^wire <= input)? That is R[3^wire/wire]
	// ... which is falsifiable at the empty history, so use a premise the
	// emptiness rule can in fact discharge: R = wire <= 3^input, premise
	// R[3^wire/wire] = 3^wire <= 3^input, and R_<>: <> <= <3>.
	r2 := assertion.PrefixLE(assertion.Chan("wire"),
		assertion.Cons{Head: assertion.Int(3), Tail: assertion.Chan("input")})
	prem := proof.Emptiness{R: assertion.PrefixLE(
		assertion.Cons{Head: assertion.Int(3), Tail: assertion.Chan("wire")},
		assertion.Cons{Head: assertion.Int(3), Tail: assertion.Chan("input")})}
	cl, err := c.Check(proof.OutputStep{
		Ch:      syntax.ChanRef{Name: "wire"},
		Val:     syntax.IntLit{Val: 3},
		R:       r2,
		Premise: prem,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cl.String() != "wire!3 -> STOP sat wire <= 3^input" {
		t.Errorf("conclusion = %s", cl)
	}
	// Wrong premise assertion is rejected.
	if _, err := c.Check(proof.OutputStep{
		Ch:      syntax.ChanRef{Name: "wire"},
		Val:     syntax.IntLit{Val: 3},
		R:       r,
		Premise: proof.Emptiness{R: r},
	}); err == nil {
		t.Error("output rule accepted a premise that is not R[e^c/c]")
	}
}

func TestInputRuleFreshnessConditions(t *testing.T) {
	c := checker(t)
	r := paper.CopierSat()
	body := syntax.Output{Ch: syntax.ChanRef{Name: "wire"}, Val: syntax.Var{Name: "x"}, Cont: syntax.Stop{}}
	mk := func(fresh string) proof.InputStep {
		return proof.InputStep{
			Ch: syntax.ChanRef{Name: "input"}, Var: "x", Dom: syntax.SetName{Name: "NAT"},
			Body: body, Fresh: fresh, R: r,
			Premise: proof.ForAllIntro{Var: fresh, Dom: syntax.SetName{Name: "NAT"},
				Premise: proof.Emptiness{R: r}},
		}
	}
	// Fresh variable clashing with a free variable of the body: rejected
	// before the premise is even compared.
	bad := mk("x")
	bad.Body = syntax.Output{Ch: syntax.ChanRef{Name: "wire"}, Val: syntax.Var{Name: "v"}, Cont: syntax.Stop{}}
	bad.Fresh = "v"
	if _, err := c.Check(bad); err == nil || !strings.Contains(err.Error(), "fresh") {
		t.Errorf("freshness violation not reported: %v", err)
	}
	// Fresh variable free in R.
	bad2 := mk("v")
	bad2.R = assertion.PrefixLE(assertion.Var("v"), assertion.Chan("input"))
	if _, err := c.Check(bad2); err == nil || !strings.Contains(err.Error(), "fresh") {
		t.Errorf("freshness-in-R violation not reported: %v", err)
	}
	// Fresh variable bound in R: R[v⌢input/input] would put v under R's
	// own binder of v, and this premise proves the false claim so made.
	seqOfV := assertion.SeqLit{Elems: []assertion.Term{assertion.Var("v")}}
	five := syntax.EnumSet{Elems: []syntax.Expr{syntax.IntLit{Val: 5}}}
	bits := syntax.RangeSet{Lo: syntax.IntLit{Val: 0}, Hi: syntax.IntLit{Val: 1}}
	bound := assertion.ForAllSet{Var: "v", Dom: five, Body: assertion.PrefixLE(assertion.Chan("input"), seqOfV)}
	captured := bound
	captured.Body = assertion.PrefixLE(assertion.Cons{Head: assertion.Var("v"), Tail: assertion.Chan("input")}, seqOfV)
	bad3 := proof.InputStep{
		Ch: syntax.ChanRef{Name: "input"}, Var: "x", Dom: bits, Body: syntax.Stop{}, Fresh: "v", R: bound,
		Premise: proof.ForAllIntro{Var: "v", Dom: bits, Premise: proof.Emptiness{R: captured}},
	}
	if _, err := c.Check(bad3); err == nil || !strings.Contains(err.Error(), "fresh") {
		t.Errorf("fresh variable bound in R not reported: %v", err)
	}
}

// TestInputRuleRefusesCapture hand-builds the proof the synthesiser once
// made for c?x:{0..1} -> d?v0:{0..1} -> e!x -> STOP sat e <= d, choosing
// v0, which the body binds, as the outer input's fresh variable. Its
// premise is about the captured body d?v0:{0..1} -> e!v0 -> STOP, whose
// claim holds though the process's does not (<c.0, d.1, e.0>), so the
// input rule must refuse the substitution.
func TestInputRuleRefusesCapture(t *testing.T) {
	c := proof.NewChecker(sem.NewEnv(syntax.NewModule(), 2), nil)
	c.Validity = assertion.ValidityConfig{MaxLen: 2}
	bits := syntax.RangeSet{Lo: syntax.IntLit{Val: 0}, Hi: syntax.IntLit{Val: 1}}
	r := assertion.PrefixLE(assertion.Chan("e"), assertion.Chan("d"))
	v1d := assertion.Cons{Head: assertion.Var("v1"), Tail: assertion.Chan("d")}
	v1e := assertion.Cons{Head: assertion.Var("v1"), Tail: assertion.Chan("e")}
	inner := proof.InputStep{
		Ch: syntax.ChanRef{Name: "d"}, Var: "v0", Dom: bits,
		Body:  syntax.Output{Ch: syntax.ChanRef{Name: "e"}, Val: syntax.Var{Name: "v0"}, Cont: syntax.Stop{}},
		Fresh: "v1", R: r,
		Premise: proof.ForAllIntro{Var: "v1", Dom: bits, Premise: proof.OutputStep{
			Ch: syntax.ChanRef{Name: "e"}, Val: syntax.Var{Name: "v1"},
			R:       assertion.PrefixLE(assertion.Chan("e"), v1d),
			Premise: proof.Emptiness{R: assertion.PrefixLE(v1e, v1d)},
		}},
	}
	outer := proof.InputStep{
		Ch: syntax.ChanRef{Name: "c"}, Var: "x", Dom: bits,
		Body: syntax.Input{Ch: syntax.ChanRef{Name: "d"}, Var: "v0", Dom: bits,
			Cont: syntax.Output{Ch: syntax.ChanRef{Name: "e"}, Val: syntax.Var{Name: "x"}, Cont: syntax.Stop{}}},
		Fresh: "v0", R: r,
		Premise: proof.ForAllIntro{Var: "v0", Dom: bits, Premise: inner},
	}
	if _, err := c.Check(inner); err != nil {
		t.Fatalf("the captured body's proof: %v", err)
	}
	if cl, err := c.Check(outer); err == nil || !strings.Contains(err.Error(), "capture") {
		t.Errorf("Check = %s, %v; want the input rule to refuse the capture", cl, err)
	}
}

func TestInstantiateRule(t *testing.T) {
	c := checker(t)
	nat := syntax.SetName{Name: "NAT"}
	// ∀v∈NAT. STOP sat wire <= v^input, then instantiate v := 2.
	quantified := proof.ForAllIntro{
		Var: "v", Dom: nat,
		Premise: proof.Emptiness{R: assertion.PrefixLE(
			assertion.Chan("wire"),
			assertion.Cons{Head: assertion.Var("v"), Tail: assertion.Chan("input")})},
	}
	cl, err := c.Check(proof.Instantiate{Premise: quantified, Terms: []assertion.Term{assertion.Int(2)}})
	if err != nil {
		t.Fatal(err)
	}
	if cl.String() != "STOP sat wire <= 2^input" {
		t.Errorf("conclusion = %s", cl)
	}
	// Out-of-domain instantiation rejected (NAT contains no symbols).
	if _, err := c.Check(proof.Instantiate{Premise: quantified,
		Terms: []assertion.Term{assertion.Sym("ACK")}}); err == nil {
		t.Error("out-of-domain instantiation accepted")
	}
	// Too many terms rejected.
	if _, err := c.Check(proof.Instantiate{Premise: quantified,
		Terms: []assertion.Term{assertion.Int(0), assertion.Int(1)}}); err == nil {
		t.Error("over-instantiation accepted")
	}
}

func TestUnfoldRule(t *testing.T) {
	c := checker(t)
	// copynet ≜ copier ‖ recopier: conclude about the name from the body.
	r := assertion.PrefixLE(assertion.Chan("wire"), assertion.Chan("wire"))
	body := proof.Triviality{
		P: syntax.Par{L: syntax.Ref{Name: paper.NameCopier}, R: syntax.Ref{Name: paper.NameRecopier}},
		T: r,
	}
	cl, err := c.Check(proof.Unfold{Ref: syntax.Ref{Name: paper.NameCopyNet}, Premise: body})
	if err != nil {
		t.Fatal(err)
	}
	if cl.String() != "copynet sat wire <= wire" {
		t.Errorf("conclusion = %s", cl)
	}
	// Premise about a different process is rejected.
	wrong := proof.Triviality{P: syntax.Stop{}, T: r}
	if _, err := c.Check(proof.Unfold{Ref: syntax.Ref{Name: paper.NameCopyNet}, Premise: wrong}); err == nil {
		t.Error("unfold with mismatched body accepted")
	}
	if _, err := c.Check(proof.Unfold{Ref: syntax.Ref{Name: "ghost"}, Premise: wrong}); err == nil {
		t.Error("unfold of undefined process accepted")
	}
}

func TestRecursionValidation(t *testing.T) {
	env := sem.NewEnv(paper.ProtocolSystem(2), 2)
	c := proof.NewChecker(env, nil)
	c.Validity = assertion.ValidityConfig{MaxLen: 2,
		DefaultDom: value.IntRange{Lo: 0, Hi: 1}}
	// Claim about an array with no quantifier: rejected.
	bad := proof.Recursion{Defs: []proof.RecDef{{
		Name:    paper.NameQ,
		Claim:   proof.Claim{Proc: syntax.Ref{Name: paper.NameQ}, A: assertion.True()},
		Premise: proof.Emptiness{R: assertion.True()},
	}}}
	if _, err := c.Check(bad); err == nil {
		t.Error("array recursion without quantifier accepted")
	}
	// Quantifier domain differing from the parameter domain: rejected.
	bad2 := proof.Recursion{Defs: []proof.RecDef{{
		Name: paper.NameQ,
		Claim: proof.Claim{
			Quants: []proof.Quant{{Var: "x", Dom: syntax.SetName{Name: "NAT"}}},
			Proc:   syntax.Ref{Name: paper.NameQ, Sub: syntax.Var{Name: "x"}},
			A:      assertion.True(),
		},
		Premise: proof.Emptiness{R: assertion.True()},
	}}}
	if _, err := c.Check(bad2); err == nil {
		t.Error("mismatched quantifier domain accepted")
	}
	// Unknown process name.
	bad3 := proof.Recursion{Defs: []proof.RecDef{{
		Name:    "ghost",
		Claim:   proof.Claim{Proc: syntax.Ref{Name: "ghost"}, A: assertion.True()},
		Premise: proof.Emptiness{R: assertion.True()},
	}}}
	if _, err := c.Check(bad3); err == nil {
		t.Error("recursion over undefined process accepted")
	}
	// Main index out of range.
	bad4 := proof.Recursion{Main: 3}
	if _, err := c.Check(bad4); err == nil {
		t.Error("empty/misindexed recursion accepted")
	}
}

func TestForAllIntroSideCondition(t *testing.T) {
	// ∀-introduction must refuse a variable free in a hypothesis in scope.
	env := sem.NewEnv(paper.CopySystem(), 2)
	c := proof.NewChecker(env, nil)
	c.Validity = assertion.ValidityConfig{MaxLen: 2}
	// Inside a recursion on copier with claim mentioning free variable k,
	// generalising over k must fail.
	rWithK := assertion.PrefixLE(
		assertion.Cons{Head: assertion.Var("k"), Tail: assertion.Chan("wire")},
		assertion.Cons{Head: assertion.Var("k"), Tail: assertion.Chan("input")})
	rec := proof.Recursion{Defs: []proof.RecDef{{
		Name:  paper.NameCopier,
		Claim: proof.Claim{Proc: syntax.Ref{Name: paper.NameCopier}, A: rWithK},
		Premise: proof.ForAllIntro{
			Var: "k", Dom: syntax.SetName{Name: "NAT"},
			Premise: proof.Hypothesis{Name: paper.NameCopier},
		},
	}}}
	_, err := c.Check(rec)
	if err == nil || !strings.Contains(err.Error(), "free in hypothesis") {
		t.Errorf("∀-intro side condition not enforced: %v", err)
	}
}

func TestClaimString(t *testing.T) {
	cl := proof.Claim{
		Quants: []proof.Quant{{Var: "x", Dom: syntax.SetName{Name: "M"}}},
		Proc:   syntax.Ref{Name: "q", Sub: syntax.Var{Name: "x"}},
		A:      assertion.True(),
	}
	if got := cl.String(); got != "forall x in M. q[x] sat true" {
		t.Errorf("Claim.String = %q", got)
	}
}

func TestRuleNames(t *testing.T) {
	names := []struct {
		p    proof.Proof
		want string
	}{
		{proof.Triviality{}, "triviality"},
		{proof.Consequence{}, "consequence"},
		{proof.Conjunction{}, "conjunction"},
		{proof.Emptiness{}, "emptiness"},
		{proof.OutputStep{}, "output"},
		{proof.InputStep{}, "input"},
		{proof.Alternative{}, "alternative"},
		{proof.Parallelism{}, "parallelism"},
		{proof.ChanIntro{}, "chan"},
		{proof.Recursion{}, "recursion"},
		{proof.Hypothesis{}, "hypothesis"},
		{proof.ForAllIntro{}, "forall-intro"},
		{proof.Instantiate{}, "forall-elim"},
		{proof.Unfold{}, "unfold"},
	}
	for _, tc := range names {
		if got := tc.p.Rule(); got != tc.want {
			t.Errorf("Rule() = %q, want %q", got, tc.want)
		}
	}
}

func TestRenderTableStyle(t *testing.T) {
	c := checker(t)
	var steps []proof.Step
	c.Steps = &steps
	if _, err := c.Check(proofsCopierLike()); err != nil {
		t.Fatal(err)
	}
	out := proof.RenderString(steps)
	// Structure: numbered lines, justifications citing premises.
	if !strings.Contains(out, "( 1)") || !strings.Contains(out, "[emptiness]") {
		t.Errorf("render:\n%s", out)
	}
	if !strings.Contains(out, "[conjunction (1,2)]") {
		t.Errorf("premise citation missing:\n%s", out)
	}
	lines := strings.Count(out, "\n")
	if lines != len(steps) {
		t.Errorf("rendered %d lines for %d steps", lines, len(steps))
	}
}

// proofsCopierLike builds a tiny two-premise proof for render tests.
func proofsCopierLike() proof.Proof {
	return proof.Conjunction{
		P1: proof.Emptiness{R: paper.CopierSat()},
		P2: proof.Emptiness{R: paper.CopierLenSat()},
	}
}
