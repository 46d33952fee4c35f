package syntax_test

import (
	"math/rand"
	"testing"

	"cspsat/internal/gen"
	"cspsat/internal/syntax"
)

// agree fails unless Equal(p, q) says what comparing the renderings says,
// and equal terms hash alike.
func agree(t *testing.T, p, q syntax.Proc) {
	t.Helper()
	same := p.String() == q.String()
	if got := syntax.Equal(p, q); got != same {
		t.Fatalf("Equal = %v for\n  %s\n  %s", got, p, q)
	}
	if same && syntax.Hash(p) != syntax.Hash(q) {
		t.Fatalf("render-equal terms hash apart:\n  %s", p)
	}
}

// TestIdentityFollowsRendering covers the places where String drops
// structure, each beside a near miss that it prints differently.
func TestIdentityFollowsRendering(t *testing.T) {
	in := func(dom syntax.SetExpr) syntax.Proc {
		return syntax.Input{Ch: ch("c"), Var: "x", Dom: dom, Cont: syntax.Stop{}}
	}
	a, b, c := syntax.SetName{Name: "A"}, syntax.SetName{Name: "B"}, syntax.SetName{Name: "C"}
	item := func(name string, sub syntax.Expr) syntax.ChanItem { return syntax.ChanItem{Name: name, Sub: sub} }
	par := func(l, r []syntax.ChanItem) syntax.Proc {
		return syntax.Par{L: syntax.Stop{}, R: syntax.Stop{}, AlphaL: l, AlphaR: r}
	}
	hide := func(items ...syntax.ChanItem) syntax.Proc {
		return syntax.Hiding{Channels: items, Body: syntax.Stop{}}
	}
	for _, c := range []struct{ p, q syntax.Proc }{
		{out("c", syntax.SymLit{Name: "ACK"}, syntax.Stop{}), out("c", v("ACK"), syntax.Stop{})},
		{out("c", syntax.SymLit{Name: "ACK"}, syntax.Stop{}), out("c", v("NACK"), syntax.Stop{})},
		{out("c", lit(3), syntax.Stop{}), out("c", syntax.SymLit{Name: "3"}, syntax.Stop{})},
		{out("c", lit(3), syntax.Stop{}), out("c", syntax.SymLit{Name: "03"}, syntax.Stop{})},
		{out("c", lit(-3), syntax.Stop{}), out("c", v("-3"), syntax.Stop{})},
		{in(syntax.UnionSet{A: syntax.UnionSet{A: a, B: b}, B: c}), in(syntax.UnionSet{A: a, B: syntax.UnionSet{A: b, B: c}})},
		{in(syntax.UnionSet{A: a, B: b}), in(syntax.UnionSet{A: a, B: c})},
		{in(syntax.UnionSet{A: a, B: b}), in(a)},
		{par(nil, []syntax.ChanItem{item("a", nil)}), par([]syntax.ChanItem{}, []syntax.ChanItem{item("a", nil)})},
		{par(nil, nil), par([]syntax.ChanItem{}, nil)},
		{par(nil, nil), par(nil, nil)},
		{par([]syntax.ChanItem{item("a", nil)}, []syntax.ChanItem{item("b", nil)}), par([]syntax.ChanItem{item("a", nil)}, []syntax.ChanItem{item("c", nil)})},
		{hide(syntax.ChanItem{Name: "d", Lo: lit(0), Hi: lit(2), Sub: lit(7)}), hide(syntax.ChanItem{Name: "d", Lo: lit(0), Hi: lit(2)})},
		{hide(item("d", lit(1))), hide(item("d", lit(2)))},
		{hide(item("d", nil), item("e", nil)), hide(item("de", nil))},
		{syntax.Ref{Name: "q", Sub: lit(1)}, syntax.Ref{Name: "q"}},
		{syntax.Alt{L: syntax.Stop{}, R: syntax.Stop{}}, syntax.IChoice{L: syntax.Stop{}, R: syntax.Stop{}}},
	} {
		agree(t, c.p, c.q)
	}
}

// TestIdentityOnGeneratedTerms compares every pair of a batch of generated
// terms, with parallel composition and hiding, and each term with a copy
// generated apart from the same seed.
func TestIdentityOnGeneratedTerms(t *testing.T) {
	batch := func() []syntax.Proc {
		r := rand.New(rand.NewSource(20))
		var terms []syntax.Proc
		for i := 0; i < 200; i++ {
			_, p := gen.Module(r, gen.Config{MaxDepth: 3, Defs: 1, AllowPar: true, AllowHide: true})
			terms = append(terms, p)
		}
		return terms
	}
	terms, copies := batch(), batch()
	for i, p := range terms {
		agree(t, p, copies[i])
		for _, q := range terms {
			agree(t, p, q)
		}
	}
}

// TestIdentityAllocatesNothing pins Hash and Equal to reading terms in
// place, unions included.
func TestIdentityAllocatesNothing(t *testing.T) {
	dom := func() syntax.SetExpr {
		return syntax.UnionSet{A: syntax.SetName{Name: "A"}, B: syntax.UnionSet{A: syntax.SetName{Name: "B"}, B: natSet()}}
	}
	term := func() syntax.Proc {
		return syntax.Hiding{
			Channels: []syntax.ChanItem{{Name: "d", Lo: lit(0), Hi: lit(2)}},
			Body: syntax.Par{
				L:      syntax.Input{Ch: ch("c"), Var: "x", Dom: dom(), Cont: out("d", v("x"), syntax.Ref{Name: "q", Sub: lit(1)})},
				R:      out("c", syntax.SymLit{Name: "ACK"}, syntax.Stop{}),
				AlphaL: []syntax.ChanItem{{Name: "c"}, {Name: "d", Sub: lit(1)}},
				AlphaR: []syntax.ChanItem{{Name: "c"}},
			},
		}
	}
	p, q := term(), term()
	if n := testing.AllocsPerRun(100, func() { syntax.Hash(p) }); n != 0 {
		t.Errorf("Hash allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if !syntax.Equal(p, q) {
			t.Fatal("a term differs from its copy")
		}
	}); n != 0 {
		t.Errorf("Equal allocates %v times", n)
	}
}
