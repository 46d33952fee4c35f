package assertion_test

import (
	"context"
	"strings"
	"testing"

	"cspsat/internal/assertion"
	"cspsat/internal/sem"
	"cspsat/internal/syntax"
	"cspsat/internal/trace"
	"cspsat/internal/value"
)

func ctx(t *testing.T, hist trace.History) *assertion.Ctx {
	t.Helper()
	return assertion.NewCtx(sem.NewEnv(syntax.NewModule(), 3), hist, nil)
}

func hist(pairs ...any) trace.History {
	h := make(trace.History)
	for i := 0; i < len(pairs); i += 2 {
		c := trace.Chan(pairs[i].(string))
		for _, v := range pairs[i+1].([]int64) {
			h[c] = append(h[c], value.Int(v))
		}
	}
	return h
}

func evalT(t *testing.T, term assertion.Term, c *assertion.Ctx) value.V {
	t.Helper()
	v, err := assertion.EvalTerm(term, c)
	if err != nil {
		t.Fatalf("EvalTerm(%s): %v", term, err)
	}
	return v
}

func evalA(t *testing.T, a assertion.A, c *assertion.Ctx) bool {
	t.Helper()
	b, err := assertion.Eval(a, c)
	if err != nil {
		t.Fatalf("Eval(%s): %v", a, err)
	}
	return b
}

func TestTermEvaluation(t *testing.T) {
	c := ctx(t, hist("wire", []int64{27, 0}, "input", []int64{27, 0, 3}))

	if got := evalT(t, assertion.Chan("wire"), c); got.String() != "<27,0>" {
		t.Errorf("wire = %s", got)
	}
	if got := evalT(t, assertion.Len{S: assertion.Chan("input")}, c); got.AsInt() != 3 {
		t.Errorf("#input = %v", got)
	}
	at := assertion.At{S: assertion.Chan("input"), Idx: assertion.Int(3)}
	if got := evalT(t, at, c); got.AsInt() != 3 {
		t.Errorf("input[3] = %v", got)
	}
	cons := assertion.Cons{Head: assertion.Int(9), Tail: assertion.Chan("wire")}
	if got := evalT(t, cons, c); got.String() != "<9,27,0>" {
		t.Errorf("9^wire = %s", got)
	}
	cat := assertion.Cat{L: assertion.Chan("wire"), R: assertion.Chan("wire")}
	if got := evalT(t, cat, c); got.String() != "<27,0,27,0>" {
		t.Errorf("wire++wire = %s", got)
	}
	seq := assertion.SeqLit{Elems: []assertion.Term{assertion.Int(1), assertion.Sym("ACK")}}
	if got := evalT(t, seq, c); got.String() != "<1,ACK>" {
		t.Errorf("<1,ACK> = %s", got)
	}
	sum := assertion.Sum{Var: "j", Lo: assertion.Int(1), Hi: assertion.Int(3),
		Body: assertion.Arith{Op: assertion.AMul, L: assertion.Var("j"), R: assertion.Var("j")}}
	if got := evalT(t, sum, c); got.AsInt() != 14 {
		t.Errorf("sum j^2 = %v", got)
	}
}

func TestTermErrors(t *testing.T) {
	c := ctx(t, hist())
	cases := []assertion.Term{
		assertion.Var("free"), // unbound
		assertion.At{S: assertion.Chan("w"), Idx: assertion.Int(1)},    // out of range
		assertion.At{S: assertion.Chan("w"), Idx: assertion.Int(0)},    // 1-based
		assertion.Len{S: assertion.Int(1)},                             // # of non-seq
		assertion.Cons{Head: assertion.Int(1), Tail: assertion.Int(2)}, // cons onto non-seq
		assertion.Arith{Op: assertion.ADiv, L: assertion.Int(1), R: assertion.Int(0)},
		assertion.Apply{Fn: "nope", Args: nil}, // unknown function
	}
	for _, tc := range cases {
		if _, err := assertion.EvalTerm(tc, c); err == nil {
			t.Errorf("EvalTerm(%s) accepted", tc)
		}
	}
}

func TestChanArraySubscriptEvaluation(t *testing.T) {
	h := make(trace.History)
	h[trace.Sub("row", 2)] = []value.V{value.Int(8)}
	c := ctx(t, h).Bind("j", value.Int(2))
	term := assertion.ChanIdx("row", assertion.Var("j"))
	if got := evalT(t, term, c); got.String() != "<8>" {
		t.Errorf("row[j] = %s", got)
	}
}

func TestCmpSemantics(t *testing.T) {
	c := ctx(t, hist("wire", []int64{1, 2}, "input", []int64{1, 2, 3}))
	w, in := assertion.Chan("wire"), assertion.Chan("input")
	// Sequence prefix order.
	if !evalA(t, assertion.Cmp{Op: assertion.CLe, L: w, R: in}, c) {
		t.Error("wire <= input false")
	}
	if evalA(t, assertion.Cmp{Op: assertion.CLe, L: in, R: w}, c) {
		t.Error("input <= wire true")
	}
	if !evalA(t, assertion.Cmp{Op: assertion.CLt, L: w, R: in}, c) {
		t.Error("strict prefix false")
	}
	if evalA(t, assertion.Cmp{Op: assertion.CLt, L: w, R: w}, c) {
		t.Error("s < s true")
	}
	if !evalA(t, assertion.Cmp{Op: assertion.CGe, L: in, R: w}, c) {
		t.Error("input >= wire false")
	}
	if !evalA(t, assertion.Cmp{Op: assertion.CEq, L: w, R: w}, c) {
		t.Error("seq == itself false")
	}
	// Integers.
	if !evalA(t, assertion.Cmp{Op: assertion.CLt, L: assertion.Int(1), R: assertion.Int(2)}, c) {
		t.Error("1 < 2 false")
	}
	// Mixed kinds compare only with ==/!=.
	mixed := assertion.Cmp{Op: assertion.CNe, L: assertion.Int(1), R: assertion.Sym("ACK")}
	if !evalA(t, mixed, c) {
		t.Error("1 != ACK false")
	}
	bad := assertion.Cmp{Op: assertion.CLt, L: assertion.Int(1), R: assertion.Sym("ACK")}
	if _, err := assertion.Eval(bad, c); err == nil {
		t.Error("ordering across kinds accepted")
	}
}

func TestConnectivesAndQuantifiers(t *testing.T) {
	c := ctx(t, hist("out", []int64{0, 1, 2}))
	tt, ff := assertion.BoolA{Val: true}, assertion.BoolA{Val: false}
	if !evalA(t, assertion.Implies{L: ff, R: ff}, c) ||
		!evalA(t, assertion.Implies{L: ff, R: tt}, c) ||
		evalA(t, assertion.Implies{L: tt, R: ff}, c) {
		t.Error("implication table wrong")
	}
	if !evalA(t, assertion.Not{Body: ff}, c) || evalA(t, assertion.And{L: tt, R: ff}, c) ||
		!evalA(t, assertion.Or{L: ff, R: tt}, c) {
		t.Error("connectives wrong")
	}
	// ∀i: 1..#out. out[i] == i-1.
	rangeAll := assertion.ForAllRange{
		Var: "i", Lo: assertion.Int(1), Hi: assertion.Len{S: assertion.Chan("out")},
		Body: assertion.Eq(
			assertion.At{S: assertion.Chan("out"), Idx: assertion.Var("i")},
			assertion.Arith{Op: assertion.ASub, L: assertion.Var("i"), R: assertion.Int(1)},
		),
	}
	if !evalA(t, rangeAll, c) {
		t.Error("forall range false")
	}
	// Empty range is vacuously true.
	vac := assertion.ForAllRange{Var: "i", Lo: assertion.Int(5), Hi: assertion.Int(1),
		Body: assertion.BoolA{Val: false}}
	if !evalA(t, vac, c) {
		t.Error("empty range not vacuous")
	}
	exists := assertion.ExistsRange{Var: "i", Lo: assertion.Int(1), Hi: assertion.Int(3),
		Body: assertion.Eq(assertion.At{S: assertion.Chan("out"), Idx: assertion.Var("i")}, assertion.Int(2))}
	if !evalA(t, exists, c) {
		t.Error("exists false")
	}
	// Set quantifier.
	setAll := assertion.ForAllSet{Var: "x",
		Dom:  syntax.RangeSet{Lo: syntax.IntLit{Val: 0}, Hi: syntax.IntLit{Val: 2}},
		Body: assertion.Cmp{Op: assertion.CLe, L: assertion.Var("x"), R: assertion.Int(2)}}
	if !evalA(t, setAll, c) {
		t.Error("forall set false")
	}
}

// TestProtocolF checks the paper's defining equations for f one by one.
func TestProtocolF(t *testing.T) {
	seq := func(vs ...value.V) value.V { return value.Seq(vs...) }
	x, y := value.Int(4), value.Int(9)
	ack, nack := value.Sym("ACK"), value.Sym("NACK")
	apply := func(v value.V) value.V {
		out, err := assertion.ProtocolF([]value.V{v})
		if err != nil {
			t.Fatalf("f(%s): %v", v, err)
		}
		return out
	}
	cases := []struct {
		in, want value.V
		note     string
	}{
		{seq(), seq(), "f(<>) = <>"},
		{seq(x), seq(x), "f(<x>) = <x>"},
		{seq(x, ack), seq(x), "f(x^ACK) = <x>"},
		{seq(x, nack), seq(), "f(x^NACK) = <>"},
		{seq(x, ack, y), seq(x, y), "f(x^ACK^<y>) = x^f(<y>)"},
		{seq(x, nack, y), seq(y), "f(x^NACK^<y>) = f(<y>)"},
		{seq(x, nack, x, ack), seq(x), "paper's example f(<x,NACK,x,ACK>) = <x>"},
		{seq(x, nack, x, nack, x, ack), seq(x), "double retransmission"},
		{seq(x, ack, y, nack), seq(x), "delivered then retransmitting"},
	}
	for _, tc := range cases {
		if got := apply(tc.in); !got.Equal(tc.want) {
			t.Errorf("%s: f(%s) = %s, want %s", tc.note, tc.in, got, tc.want)
		}
	}
	// f is total on ill-formed wire histories too.
	for _, in := range []value.V{seq(ack), seq(nack), seq(ack, nack), seq(x, y)} {
		apply(in)
	}
	// Arity and kind errors.
	if _, err := assertion.ProtocolF(nil); err == nil {
		t.Error("f() accepted")
	}
	if _, err := assertion.ProtocolF([]value.V{value.Int(1)}); err == nil {
		t.Error("f(non-seq) accepted")
	}
}

func TestRegistryBuiltins(t *testing.T) {
	r := assertion.NewRegistry()
	for _, name := range []string{"f", "front", "last1", "take"} {
		if _, ok := r.Func(name); !ok {
			t.Errorf("builtin %s missing", name)
		}
	}
	front, _ := r.Func("front")
	got, err := front([]value.V{value.Seq(value.Int(1), value.Int(2))})
	if err != nil || got.String() != "<1>" {
		t.Errorf("front = %v %v", got, err)
	}
	last1, _ := r.Func("last1")
	got, err = last1([]value.V{value.Seq(value.Int(1), value.Int(2))})
	if err != nil || got.String() != "<2>" {
		t.Errorf("last1 = %v %v", got, err)
	}
	take, _ := r.Func("take")
	got, err = take([]value.V{value.Int(1), value.Seq(value.Int(7), value.Int(8))})
	if err != nil || got.String() != "<7>" {
		t.Errorf("take = %v %v", got, err)
	}
	// Custom predicate round trip.
	r.RegisterPred("even", func(args []value.V) (bool, error) {
		return args[0].AsInt()%2 == 0, nil
	})
	c := assertion.NewCtx(sem.NewEnv(syntax.NewModule(), 2), trace.History{}, r)
	ok, err := assertion.Eval(assertion.Pred{Name: "even", Args: []assertion.Term{assertion.Int(4)}}, c)
	if err != nil || !ok {
		t.Errorf("predicate eval: %v %v", ok, err)
	}
}

func TestSubstitutions(t *testing.T) {
	// R = f(wire) <= x^input.
	r := assertion.PrefixLE(
		assertion.Apply{Fn: "f", Args: []assertion.Term{assertion.Chan("wire")}},
		assertion.Cons{Head: assertion.Var("x"), Tail: assertion.Chan("input")},
	)
	// R_<>.
	empty := assertion.EmptyAllChans(r)
	if got := empty.String(); strings.Contains(got, "wire") || strings.Contains(got, "input") {
		t.Errorf("EmptyAllChans left channels: %s", got)
	}
	// R[v^wire/wire].
	subst, err := assertion.SubstChanCons(r, "wire", assertion.Var("v"))
	if err != nil {
		t.Fatal(err)
	}
	if got := subst.String(); got != "f(v^wire) <= x^input" {
		t.Errorf("SubstChanCons = %q", got)
	}
	// R[3/x].
	inst, err := assertion.SubstVar(r, "x", assertion.Int(3))
	if err != nil || inst.String() != "f(wire) <= 3^input" {
		t.Errorf("SubstVar = %v, %v", inst, err)
	}
	// Substitution respects binders.
	q := assertion.ForAllRange{Var: "x", Lo: assertion.Int(1), Hi: assertion.Var("x"),
		Body: assertion.Eq(assertion.Var("x"), assertion.Var("x"))}
	qi, err := assertion.SubstVar(q, "x", assertion.Int(9))
	want := "forall x:1..9. x == x"
	if err != nil || qi.String() != want {
		t.Errorf("binder subst = %v, %v, want %q", qi, err, want)
	}
	// The substitutions reach into constant-array subscripts.
	k := assertion.Eq(assertion.ConstIndex{Name: "K", Sub: assertion.Len{S: assertion.Chan("wire")}}, assertion.Var("x"))
	if got := assertion.EmptyAllChans(k).String(); got != "K[#<>] == x" {
		t.Errorf("EmptyAllChans(%s) = %q", k, got)
	}
	if got, err := assertion.SubstChanCons(k, "wire", assertion.Var("v")); err != nil || got.String() != "K[#(v^wire)] == x" {
		t.Errorf("SubstChanCons(%s) = %v, %v", k, got, err)
	}
	// A substitution that a binder would capture is refused.
	under := func(body assertion.A) assertion.A {
		return assertion.ForAllRange{Var: "v", Lo: assertion.Int(0), Hi: assertion.Int(1), Body: body}
	}
	if got, err := assertion.SubstChanCons(under(assertion.PrefixLE(assertion.Chan("wire"), assertion.Var("v"))), "wire", assertion.Var("v")); err == nil {
		t.Errorf("SubstChanCons let the binder of v capture v: %s", got)
	}
	if got, err := assertion.SubstVar(under(assertion.Eq(assertion.Var("x"), assertion.Var("v"))), "x", assertion.Var("v")); err == nil {
		t.Errorf("SubstVar let the binder of v capture v: %s", got)
	}
	if got, err := assertion.SubstVar(under(assertion.Eq(assertion.Var("x"), assertion.Var("v"))), "x", assertion.Var("w")); err != nil || got.String() != "forall v:0..1. w == v" {
		t.Errorf("SubstVar = %v, %v", got, err)
	}
	// R[t/y] reaches the set of a ∀z∈S, which lies outside z's scope, in
	// t's process-language form; a t without one is refused, as is one
	// that an enclosing binder would capture.
	set := assertion.ForAllSet{Var: "z", Dom: syntax.RangeSet{Lo: syntax.IntLit{Val: 0}, Hi: syntax.Var{Name: "y"}},
		Body: assertion.Cmp{Op: assertion.CLe, L: assertion.Len{S: assertion.Chan("c")}, R: assertion.Var("z")}}
	for _, tc := range []struct {
		r    assertion.Term
		a    assertion.A
		want string // "" when refused
	}{
		{assertion.Int(1), set, "forall z in {0..1}. #c <= z"},
		{assertion.Var("z"), set, "forall z in {0..z}. #c <= z"},
		{assertion.Len{S: assertion.Chan("c")}, set, ""},
		{assertion.Var("v"), under(set), ""},
		{assertion.Int(1), assertion.ForAllRange{Var: "y", Lo: assertion.Int(0), Hi: assertion.Int(1), Body: set}, "forall y:0..1. forall z in {0..y}. #c <= z"},
	} {
		got, err := assertion.SubstVar(tc.a, "y", tc.r)
		switch {
		case tc.want == "" && err == nil:
			t.Errorf("SubstVar(%s, y, %s) = %s, want a refusal", tc.a, tc.r, got)
		case tc.want != "" && (err != nil || got.String() != tc.want):
			t.Errorf("SubstVar(%s, y, %s) = %v, %v, want %s", tc.a, tc.r, got, err, tc.want)
		}
	}
}

func TestSubstChanConsSymbolicSubscriptRejected(t *testing.T) {
	r := assertion.PrefixLE(assertion.ChanIdx("col", assertion.Var("j")), assertion.Chan("input"))
	if _, err := assertion.SubstChanCons(r, trace.Sub("col", 1), assertion.Int(0)); err == nil {
		t.Fatal("symbolic channel subscript substitution accepted")
	}
	// A literal subscript is fine and only hits the matching element.
	r2 := assertion.And{
		L: assertion.PrefixLE(assertion.ChanIdx("col", assertion.Int(1)), assertion.Chan("input")),
		R: assertion.PrefixLE(assertion.ChanIdx("col", assertion.Int(2)), assertion.Chan("input")),
	}
	got, err := assertion.SubstChanCons(r2, trace.Sub("col", 1), assertion.Int(0))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != "(0^col[1] <= input & col[2] <= input)" {
		t.Errorf("selective substitution = %q", got.String())
	}
}

func TestFreeChansAndVars(t *testing.T) {
	a := assertion.ForAllRange{
		Var: "i", Lo: assertion.Int(1), Hi: assertion.Len{S: assertion.Chan("output")},
		Body: assertion.Eq(
			assertion.At{S: assertion.Chan("output"), Idx: assertion.Var("i")},
			assertion.Arith{Op: assertion.AMul,
				L: assertion.Var("k"),
				R: assertion.At{S: assertion.ChanIdx("row", assertion.Var("j")), Idx: assertion.Var("i")}},
		),
	}
	chans := assertion.FreeChans(a)
	if !chans["output"] || !chans["row[*]"] || len(chans) != 2 {
		t.Errorf("FreeChans = %v", chans)
	}
	vars := assertion.FreeVars(a)
	if !vars["k"] || !vars["j"] || vars["i"] {
		t.Errorf("FreeVars = %v", vars)
	}
	// A channel or variable only inside a constant-array subscript is free.
	k := assertion.Eq(assertion.ConstIndex{Name: "K", Sub: assertion.Arith{Op: assertion.AAdd,
		L: assertion.Len{S: assertion.Chan("a")}, R: assertion.Var("y")}}, assertion.Int(1))
	if chans := assertion.FreeChans(k); !chans["a"] || len(chans) != 1 {
		t.Errorf("FreeChans(%s) = %v", k, chans)
	}
	if vars := assertion.FreeVars(k); !vars["y"] || len(vars) != 1 {
		t.Errorf("FreeVars(%s) = %v", k, vars)
	}
	// So is a variable only in the set of a ∀z∈S, unless a binder binds it.
	set := assertion.ForAllSet{Var: "z", Dom: syntax.RangeSet{Lo: syntax.IntLit{Val: 0}, Hi: syntax.Var{Name: "y"}},
		Body: assertion.Cmp{Op: assertion.CLe, L: assertion.Len{S: assertion.Chan("c")}, R: assertion.Var("z")}}
	if vars := assertion.FreeVars(set); !vars["y"] || len(vars) != 1 {
		t.Errorf("FreeVars(%s) = %v", set, vars)
	}
	bound := assertion.ForAllRange{Var: "y", Lo: assertion.Int(0), Hi: assertion.Int(1), Body: set}
	if vars := assertion.FreeVars(bound); len(vars) != 0 {
		t.Errorf("FreeVars(%s) = %v", bound, vars)
	}
}

func TestBoundedValidity(t *testing.T) {
	env := sem.NewEnv(syntax.NewModule(), 2)
	cfg := assertion.ValidityConfig{Env: env, MaxLen: 2}

	// Valid: wire <= wire.
	valid := assertion.PrefixLE(assertion.Chan("wire"), assertion.Chan("wire"))
	cex, err := assertion.Valid(context.Background(), valid, cfg)
	if err != nil || cex != nil {
		t.Fatalf("wire<=wire: %v %v", cex, err)
	}
	// Valid with a variable: (wire <= input) => (v^wire <= v^input).
	mono := assertion.Implies{
		L: assertion.PrefixLE(assertion.Chan("wire"), assertion.Chan("input")),
		R: assertion.PrefixLE(
			assertion.Cons{Head: assertion.Var("v"), Tail: assertion.Chan("wire")},
			assertion.Cons{Head: assertion.Var("v"), Tail: assertion.Chan("input")},
		),
	}
	cex, err = assertion.Valid(context.Background(), mono, cfg)
	if err != nil || cex != nil {
		t.Fatalf("monotonicity: %v %v", cex, err)
	}
	// Invalid: wire <= input, counterexample reported.
	invalid := assertion.PrefixLE(assertion.Chan("wire"), assertion.Chan("input"))
	cex, err = assertion.Valid(context.Background(), invalid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cex == nil {
		t.Fatal("wire<=input declared valid")
	}
	if cex.String() == "" {
		t.Error("empty counterexample rendering")
	}
	// The transitivity fact behind the protocol's consequence step.
	trans := assertion.Implies{
		L: assertion.And{
			L: assertion.PrefixLE(assertion.Chan("a"), assertion.Chan("b")),
			R: assertion.PrefixLE(assertion.Chan("b"), assertion.Chan("c")),
		},
		R: assertion.PrefixLE(assertion.Chan("a"), assertion.Chan("c")),
	}
	cex, err = assertion.Valid(context.Background(), trans, cfg)
	if err != nil || cex != nil {
		t.Fatalf("transitivity: %v %v", cex, err)
	}
}

func TestBoundedValidityLimits(t *testing.T) {
	env := sem.NewEnv(syntax.NewModule(), 3)
	// Case-space overflow is an error, not a silent pass.
	cfg := assertion.ValidityConfig{Env: env, MaxLen: 4, MaxCases: 10}
	wide := assertion.PrefixLE(assertion.Chan("a"), assertion.Chan("b"))
	if _, err := assertion.Valid(context.Background(), wide, cfg); err == nil {
		t.Fatal("case-space overflow not reported")
	}
	// Symbolically subscripted channels cannot be enumerated.
	sym := assertion.PrefixLE(assertion.ChanIdx("col", assertion.Var("j")), assertion.Chan("b"))
	if _, err := assertion.Valid(context.Background(), sym, assertion.ValidityConfig{Env: env}); err == nil {
		t.Fatal("wildcard channel accepted")
	}
}

// TestValidityCountsBeforeEnumerating checks that Valid refuses an
// oversized case space before it builds any channel's history list. Over
// the server's default domain at nat 64, NAT ∪ {ACK, NACK} with 66 values,
// each channel has 291,919 histories of length ≤ 3, so building even one
// list costs more allocations than the bound allows.
func TestValidityCountsBeforeEnumerating(t *testing.T) {
	env := sem.NewEnv(syntax.NewModule(), 64)
	cfg := assertion.ValidityConfig{
		Env:        env,
		MaxLen:     3,
		DefaultDom: value.Union{A: value.Nat{SampleWidth: 64}, B: value.NewEnum(value.Sym("ACK"), value.Sym("NACK"))},
	}
	a := assertion.PrefixLE(assertion.Chan("wire"), assertion.Chan("input"))
	want := "assertion: bounded validity space exceeds 4194304 cases"
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := assertion.Valid(context.Background(), a, cfg); err == nil || err.Error() != want {
			t.Fatalf("Valid: got %v, want %q", err, want)
		}
	})
	if allocs > 1000 {
		t.Fatalf("Valid made %.0f allocations to refuse the case space", allocs)
	}
}

func TestValidityUsesVarDomains(t *testing.T) {
	env := sem.NewEnv(syntax.NewModule(), 2)
	// y ranges over {ACK} only: f(x^y^wire) = x^f(wire), so the Table-1
	// obligation holds; over {ACK,NACK} it would fail.
	ob := assertion.Implies{
		L: assertion.PrefixLE(
			assertion.Apply{Fn: "f", Args: []assertion.Term{assertion.Chan("wire")}},
			assertion.Chan("input")),
		R: assertion.PrefixLE(
			assertion.Apply{Fn: "f", Args: []assertion.Term{
				assertion.Cons{Head: assertion.Var("x"),
					Tail: assertion.Cons{Head: assertion.Var("y"), Tail: assertion.Chan("wire")}}}},
			assertion.Cons{Head: assertion.Var("x"), Tail: assertion.Chan("input")}),
	}
	msgs := value.Domain(value.IntRange{Lo: 0, Hi: 1})
	cfg := assertion.ValidityConfig{
		Env:    env,
		MaxLen: 3,
		ChanDom: map[string]value.Domain{
			"wire":  value.Union{A: msgs, B: value.NewEnum(value.Sym("ACK"), value.Sym("NACK"))},
			"input": msgs,
		},
		VarDom: map[string]value.Domain{
			"x": msgs,
			"y": value.NewEnum(value.Sym("ACK")),
		},
	}
	cex, err := assertion.Valid(context.Background(), ob, cfg)
	if err != nil || cex != nil {
		t.Fatalf("Table-1 ACK obligation: %v %v", cex, err)
	}
	cfg.VarDom["y"] = value.NewEnum(value.Sym("ACK"), value.Sym("NACK"))
	cex, err = assertion.Valid(context.Background(), ob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cex == nil {
		t.Fatal("widened y should produce a counterexample")
	}
}

// TestResolveChans checks that resolving literal channel subscripts keeps
// a formula's rendering and value, leaves symbolic subscripts alone, and
// costs nothing on a formula without literal subscripts, which is most of
// the formulas the model checker meets.
func TestResolveChans(t *testing.T) {
	a := assertion.And{
		L: assertion.PrefixLE(assertion.ChanIdx("c", assertion.Int(1)), assertion.ChanIdx("c", assertion.Int(0))),
		R: assertion.ForAllRange{Var: "j", Lo: assertion.Int(0), Hi: assertion.Int(1),
			Body: assertion.Cmp{Op: assertion.CLe,
				L: assertion.Len{S: assertion.ChanIdx("c", assertion.Var("j"))},
				R: assertion.Arith{Op: assertion.AAdd, L: assertion.Len{S: assertion.ChanIdx("c", assertion.Int(0))}, R: assertion.Int(1)}}},
	}
	r := assertion.ResolveChans(a)
	if r.String() != a.String() {
		t.Fatalf("resolved form renders as %s, want %s", r, a)
	}
	if got := r.(assertion.And).L.(assertion.Cmp).L; got != assertion.Chan("c[1]") {
		t.Errorf("c[1] resolved to %#v", got)
	}
	if got := r.(assertion.And).R.(assertion.ForAllRange).Body.(assertion.Cmp).L.(assertion.Len).S.(assertion.ChanT); got.Sub == nil {
		t.Errorf("symbolic subscript resolved to %#v", got)
	}
	for _, h := range []trace.History{
		hist(),
		hist("c[0]", []int64{1, 2}, "c[1]", []int64{1}),
		hist("c[0]", []int64{1}, "c[1]", []int64{2}),
		hist("c[0]", []int64{1}, "c[1]", []int64{1, 2, 3}),
	} {
		want, wantErr := assertion.Eval(a, ctx(t, h))
		got, err := assertion.Eval(r, ctx(t, h))
		if got != want || (err == nil) != (wantErr == nil) {
			t.Errorf("under %s: resolved form gives %v, %v; original %v, %v", h, got, err, want, wantErr)
		}
	}
	var plain assertion.A = assertion.And{
		L: assertion.PrefixLE(assertion.Apply{Fn: "f", Args: []assertion.Term{assertion.Chan("wire")}}, assertion.Chan("input")),
		R: assertion.ForAllRange{Var: "j", Lo: assertion.Int(0), Hi: assertion.Int(1),
			Body: assertion.Cmp{Op: assertion.CLe, L: assertion.Len{S: assertion.ChanIdx("c", assertion.Var("j"))}, R: assertion.Int(1)}},
	}
	if allocs := testing.AllocsPerRun(10, func() { assertion.ResolveChans(plain) }); allocs != 0 {
		t.Errorf("ResolveChans allocates %v times on %s, which has no literal subscript", allocs, plain)
	}
}
