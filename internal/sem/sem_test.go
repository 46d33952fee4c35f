package sem_test

import (
	"errors"
	"strings"
	"testing"

	"cspsat/internal/paper"
	"cspsat/internal/sem"
	"cspsat/internal/syntax"
	"cspsat/internal/trace"
	"cspsat/internal/value"
)

func env(t *testing.T) sem.Env {
	t.Helper()
	return sem.NewEnv(syntax.NewModule(), 3)
}

func TestEvalExprArithmetic(t *testing.T) {
	e := env(t).Bind("x", value.Int(4)).Bind("y", value.Int(3))
	cases := []struct {
		expr syntax.Expr
		want int64
	}{
		{syntax.IntLit{Val: 7}, 7},
		{syntax.Var{Name: "x"}, 4},
		{syntax.Binary{Op: syntax.OpAdd, L: syntax.Var{Name: "x"}, R: syntax.Var{Name: "y"}}, 7},
		{syntax.Binary{Op: syntax.OpSub, L: syntax.Var{Name: "x"}, R: syntax.Var{Name: "y"}}, 1},
		{syntax.Binary{Op: syntax.OpMul, L: syntax.Var{Name: "x"}, R: syntax.Var{Name: "y"}}, 12},
		{syntax.Binary{Op: syntax.OpDiv, L: syntax.Var{Name: "x"}, R: syntax.IntLit{Val: 2}}, 2},
		{syntax.Binary{Op: syntax.OpMod, L: syntax.Var{Name: "x"}, R: syntax.Var{Name: "y"}}, 1},
	}
	for _, tc := range cases {
		got, err := e.EvalExpr(tc.expr)
		if err != nil {
			t.Fatalf("%v: %v", tc.expr, err)
		}
		if got.AsInt() != tc.want {
			t.Errorf("%v = %v, want %d", tc.expr, got, tc.want)
		}
	}
}

func TestEvalExprErrors(t *testing.T) {
	e := env(t)
	if _, err := e.EvalExpr(syntax.Var{Name: "nope"}); !errors.Is(err, sem.ErrUnbound) {
		t.Errorf("unbound variable error = %v", err)
	}
	div0 := syntax.Binary{Op: syntax.OpDiv, L: syntax.IntLit{Val: 1}, R: syntax.IntLit{Val: 0}}
	if _, err := e.EvalExpr(div0); err == nil {
		t.Error("division by zero accepted")
	}
	sym := syntax.Binary{Op: syntax.OpAdd, L: syntax.SymLit{Name: "ACK"}, R: syntax.IntLit{Val: 1}}
	if _, err := e.EvalExpr(sym); err == nil {
		t.Error("arithmetic on symbols accepted")
	}
}

func TestEvalConstArray(t *testing.T) {
	m := syntax.NewModule()
	m.DefineArray(syntax.ValueArray{Name: "v", Lo: 1, Elems: []int64{5, 3, 2}})
	e := sem.NewEnv(m, 3)
	got, err := e.EvalExpr(syntax.Index{Name: "v", Sub: syntax.IntLit{Val: 2}})
	if err != nil || got.AsInt() != 3 {
		t.Fatalf("v[2] = %v, %v", got, err)
	}
	if _, err := e.EvalExpr(syntax.Index{Name: "v", Sub: syntax.IntLit{Val: 0}}); err == nil {
		t.Error("below-range subscript accepted")
	}
	if _, err := e.EvalExpr(syntax.Index{Name: "v", Sub: syntax.IntLit{Val: 4}}); err == nil {
		t.Error("above-range subscript accepted")
	}
	if _, err := e.EvalExpr(syntax.Index{Name: "w", Sub: syntax.IntLit{Val: 1}}); err == nil {
		t.Error("unknown array accepted")
	}
}

func TestEvalSet(t *testing.T) {
	m := syntax.NewModule()
	m.DefineSet("M", syntax.RangeSet{Lo: syntax.IntLit{Val: 0}, Hi: syntax.IntLit{Val: 2}})
	e := sem.NewEnv(m, 5)

	nat, err := e.EvalSet(syntax.SetName{Name: "NAT"})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(nat.Enumerate()); got != 5 {
		t.Errorf("NAT sample = %d, want env width 5", got)
	}
	named, err := e.EvalSet(syntax.SetName{Name: "M"})
	if err != nil {
		t.Fatal(err)
	}
	if !named.Contains(value.Int(2)) || named.Contains(value.Int(3)) {
		t.Error("named set membership wrong")
	}
	enum, err := e.EvalSet(syntax.EnumSet{Elems: []syntax.Expr{syntax.SymLit{Name: "ACK"}}})
	if err != nil || !enum.Contains(value.Sym("ACK")) {
		t.Errorf("enum set: %v %v", enum, err)
	}
	union, err := e.EvalSet(syntax.UnionSet{A: syntax.SetName{Name: "M"},
		B: syntax.EnumSet{Elems: []syntax.Expr{syntax.SymLit{Name: "ACK"}}}})
	if err != nil || !union.Contains(value.Sym("ACK")) || !union.Contains(value.Int(0)) {
		t.Errorf("union set: %v %v", union, err)
	}
	if _, err := e.EvalSet(syntax.SetName{Name: "NOPE"}); err == nil {
		t.Error("unknown set accepted")
	}
}

func TestEvalChanRefAndItems(t *testing.T) {
	e := env(t).Bind("i", value.Int(2))
	c, err := e.EvalChanRef(syntax.ChanRef{Name: "col", Sub: syntax.Binary{
		Op: syntax.OpSub, L: syntax.Var{Name: "i"}, R: syntax.IntLit{Val: 1}}})
	if err != nil || string(c) != "col[1]" {
		t.Fatalf("EvalChanRef = %q, %v", c, err)
	}
	set, err := e.EvalChanItems([]syntax.ChanItem{
		{Name: "wire"},
		{Name: "col", Lo: syntax.IntLit{Val: 0}, Hi: syntax.IntLit{Val: 2}},
		{Name: "row", Sub: syntax.Var{Name: "i"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"wire", "col[0]", "col[1]", "col[2]", "row[2]"} {
		if !set.Contains(trace.Chan(want)) {
			t.Errorf("missing %s in %s", want, set)
		}
	}
	if set.Len() != 5 {
		t.Errorf("set size = %d", set.Len())
	}
}

func TestInstantiate(t *testing.T) {
	m := paper.ProtocolSystem(2)
	e := sem.NewEnv(m, 2)
	// q[1] instantiates the body with x:=1.
	body, err := e.Instantiate(syntax.Ref{Name: paper.NameQ, Sub: syntax.IntLit{Val: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body.String(), "wire!1") {
		t.Errorf("instantiated body = %s", body)
	}
	// Out-of-domain subscript rejected.
	if _, err := e.Instantiate(syntax.Ref{Name: paper.NameQ, Sub: syntax.IntLit{Val: 9}}); err == nil {
		t.Error("subscript outside M accepted")
	}
	// Array without subscript, plain with subscript, unknown name.
	if _, err := e.Instantiate(syntax.Ref{Name: paper.NameQ}); err == nil {
		t.Error("array without subscript accepted")
	}
	if _, err := e.Instantiate(syntax.Ref{Name: paper.NameSender, Sub: syntax.IntLit{Val: 0}}); err == nil {
		t.Error("plain process with subscript accepted")
	}
	if _, err := e.Instantiate(syntax.Ref{Name: "ghost"}); err == nil {
		t.Error("undefined process accepted")
	}
}

func TestBindShadowing(t *testing.T) {
	e := env(t).Bind("x", value.Int(1)).Bind("x", value.Int(2))
	v, ok := e.LookupVar("x")
	if !ok || v.AsInt() != 2 {
		t.Fatalf("shadowed lookup = %v %v", v, ok)
	}
}
