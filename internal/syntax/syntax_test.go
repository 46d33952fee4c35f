package syntax_test

import (
	"reflect"
	"testing"

	"cspsat/internal/syntax"
)

func v(name string) syntax.Var      { return syntax.Var{Name: name} }
func lit(i int64) syntax.IntLit     { return syntax.IntLit{Val: i} }
func ch(name string) syntax.ChanRef { return syntax.ChanRef{Name: name} }
func natSet() syntax.SetExpr        { return syntax.SetName{Name: "NAT"} }
func out(c string, e syntax.Expr, k syntax.Proc) syntax.Proc {
	return syntax.Output{Ch: ch(c), Val: e, Cont: k}
}

func TestExprString(t *testing.T) {
	e := syntax.Binary{
		Op: syntax.OpAdd,
		L:  syntax.Binary{Op: syntax.OpMul, L: syntax.Index{Name: "v", Sub: v("i")}, R: v("x")},
		R:  v("y"),
	}
	if got := e.String(); got != "((v[i] * x) + y)" {
		t.Errorf("String = %q", got)
	}
	if got := (syntax.SymLit{Name: "ACK"}).String(); got != "ACK" {
		t.Errorf("SymLit = %q", got)
	}
}

func TestProcStringFollowsPaperConventions(t *testing.T) {
	// Right-associated arrows render without parentheses.
	p := syntax.Input{Ch: ch("input"), Var: "x", Dom: natSet(),
		Cont: out("wire", v("x"), syntax.Ref{Name: "copier"})}
	if got := p.String(); got != "input?x:NAT -> wire!x -> copier" {
		t.Errorf("prefix chain = %q", got)
	}
	alt := syntax.Alt{L: syntax.Stop{}, R: syntax.Stop{}}
	if got := alt.String(); got != "(STOP | STOP)" {
		t.Errorf("alt = %q", got)
	}
	par := syntax.Par{L: syntax.Ref{Name: "p"}, R: syntax.Ref{Name: "q"}}
	if got := par.String(); got != "(p || q)" {
		t.Errorf("par = %q", got)
	}
	epar := syntax.Par{
		L: syntax.Ref{Name: "p"}, R: syntax.Ref{Name: "q"},
		AlphaL: []syntax.ChanItem{{Name: "a"}},
		AlphaR: []syntax.ChanItem{{Name: "b"}},
	}
	if got := epar.String(); got != "(p [a || b] q)" {
		t.Errorf("explicit par = %q", got)
	}
	hide := syntax.Hiding{
		Channels: []syntax.ChanItem{{Name: "col", Lo: lit(0), Hi: lit(3)}},
		Body:     syntax.Ref{Name: "network"},
	}
	if got := hide.String(); got != "(chan col[0..3]; network)" {
		t.Errorf("hiding = %q", got)
	}
}

func TestSubstProcRespectsBinders(t *testing.T) {
	// (c?x:NAT -> wire!x -> out!y -> STOP): substituting for x must stop at
	// the binder; substituting for y must proceed under it.
	body := syntax.Input{Ch: ch("c"), Var: "x", Dom: natSet(),
		Cont: out("wire", v("x"), out("out", v("y"), syntax.Stop{}))}

	sx, err := syntax.SubstProc(body, "x", lit(7))
	if err != nil || !reflect.DeepEqual(sx, syntax.Proc(body)) {
		t.Errorf("substitution crossed the binder:\n  %s (%v)", sx, err)
	}
	sy, err := syntax.SubstProc(body, "y", lit(7))
	want := syntax.Input{Ch: ch("c"), Var: "x", Dom: natSet(),
		Cont: out("wire", v("x"), out("out", lit(7), syntax.Stop{}))}
	if err != nil || !reflect.DeepEqual(sy, syntax.Proc(want)) {
		t.Errorf("substitution under binder failed:\n  got  %s (%v)\n  want %s", sy, err, want)
	}
}

func TestSubstProcEverywhere(t *testing.T) {
	p := syntax.Par{
		L: syntax.Ref{Name: "q", Sub: v("i")},
		R: syntax.Hiding{
			Channels: []syntax.ChanItem{{Name: "col", Sub: v("i")}},
			Body:     out("col", syntax.Binary{Op: syntax.OpAdd, L: v("i"), R: lit(1)}, syntax.Stop{}),
		},
	}
	got, err := syntax.SubstProc(p, "i", lit(2))
	want := syntax.Par{
		L: syntax.Ref{Name: "q", Sub: lit(2)},
		R: syntax.Hiding{
			Channels: []syntax.ChanItem{{Name: "col", Sub: lit(2)}},
			Body:     out("col", syntax.Binary{Op: syntax.OpAdd, L: lit(2), R: lit(1)}, syntax.Stop{}),
		},
	}
	if err != nil || !reflect.DeepEqual(got, syntax.Proc(want)) {
		t.Errorf("got %s (%v) want %s", got, err, want)
	}
}

func TestSubstSetAndChanItem(t *testing.T) {
	s := syntax.RangeSet{Lo: v("i"), Hi: syntax.Binary{Op: syntax.OpAdd, L: v("i"), R: lit(2)}}
	got := syntax.SubstSet(s, "i", lit(1))
	want := syntax.RangeSet{Lo: lit(1), Hi: syntax.Binary{Op: syntax.OpAdd, L: lit(1), R: lit(2)}}
	if !reflect.DeepEqual(got, syntax.SetExpr(want)) {
		t.Errorf("SubstSet = %v", got)
	}
	hide := syntax.Hiding{Channels: []syntax.ChanItem{{Name: "col", Lo: v("i"), Hi: v("j")}}, Body: syntax.Stop{}}
	gh, err := syntax.SubstProc(hide, "i", lit(0))
	wantHide := syntax.Hiding{Channels: []syntax.ChanItem{{Name: "col", Lo: lit(0), Hi: v("j")}}, Body: syntax.Stop{}}
	if err != nil || !reflect.DeepEqual(gh, syntax.Proc(wantHide)) {
		t.Errorf("SubstProc on a hiding = %s (%v), want %s", gh, err, wantHide)
	}
}

func TestFreeVarsProc(t *testing.T) {
	p := syntax.Input{Ch: syntax.ChanRef{Name: "row", Sub: v("i")}, Var: "x", Dom: natSet(),
		Cont: out("col", syntax.Binary{Op: syntax.OpMul, L: v("x"), R: v("k")}, syntax.Stop{})}
	fv := syntax.FreeVarsProc(p)
	if !fv["i"] || !fv["k"] || fv["x"] {
		t.Errorf("FreeVars = %v", fv)
	}
	// Shadowing: outer x is free in the channel subscript but the body's x
	// is bound.
	p2 := syntax.Input{Ch: syntax.ChanRef{Name: "c", Sub: v("x")}, Var: "x", Dom: natSet(),
		Cont: out("d", v("x"), syntax.Stop{})}
	fv2 := syntax.FreeVarsProc(p2)
	if !fv2["x"] {
		t.Errorf("subscript occurrence of x should be free: %v", fv2)
	}
}

func TestModuleDefineAndLookup(t *testing.T) {
	m := syntax.NewModule()
	if err := m.Define(syntax.Def{Name: "p", Body: syntax.Stop{}}); err != nil {
		t.Fatal(err)
	}
	if err := m.Define(syntax.Def{Name: "p", Body: syntax.Stop{}}); err == nil {
		t.Fatal("duplicate definition accepted")
	}
	d, ok := m.Lookup("p")
	if !ok || d.Name != "p" {
		t.Fatalf("Lookup = %v %v", d, ok)
	}
	if _, ok := m.Lookup("q"); ok {
		t.Fatal("phantom definition")
	}
	if got := m.Names(); len(got) != 1 || got[0] != "p" {
		t.Fatalf("Names = %v", got)
	}
}

func TestDefString(t *testing.T) {
	d := syntax.Def{Name: "q", Param: "x", ParamDom: syntax.SetName{Name: "M"},
		Body: syntax.Stop{}}
	if got := d.String(); got != "q[x:M] = STOP" {
		t.Errorf("Def.String = %q", got)
	}
	if !d.IsArray() {
		t.Error("array def not IsArray")
	}
}

func TestParAll(t *testing.T) {
	if _, ok := syntax.ParAll().(syntax.Stop); !ok {
		t.Error("empty ParAll should be STOP")
	}
	single := syntax.ParAll(syntax.Ref{Name: "p"})
	if !reflect.DeepEqual(single, syntax.Proc(syntax.Ref{Name: "p"})) {
		t.Error("singleton ParAll should be the process itself")
	}
	three := syntax.ParAll(syntax.Ref{Name: "a"}, syntax.Ref{Name: "b"}, syntax.Ref{Name: "c"})
	want := syntax.Par{L: syntax.Par{L: syntax.Ref{Name: "a"}, R: syntax.Ref{Name: "b"}}, R: syntax.Ref{Name: "c"}}
	if !reflect.DeepEqual(three, syntax.Proc(want)) {
		t.Errorf("ParAll = %s", three)
	}
}
