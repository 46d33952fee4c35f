package syntax_test

import (
	"maps"
	"reflect"
	"strings"
	"testing"

	"cspsat/internal/syntax"
)

// captor is d?y:NAT -> e!x -> STOP: its input binds y over an occurrence
// of x, so substituting anything that mentions y for x would capture it.
func captor() syntax.Proc {
	return syntax.Input{Ch: ch("d"), Var: "y", Dom: natSet(), Cont: out("e", v("x"), syntax.Stop{})}
}

func TestSubstProcRefusesCapture(t *testing.T) {
	items := []syntax.ChanItem{{Name: "a"}}
	for _, p := range []syntax.Proc{
		captor(),
		out("a", lit(0), captor()),
		syntax.Alt{L: syntax.Stop{}, R: captor()},
		syntax.IChoice{L: captor(), R: syntax.Stop{}},
		syntax.Par{L: syntax.Stop{}, R: captor(), AlphaL: items, AlphaR: items},
		syntax.Hiding{Channels: items, Body: captor()},
	} {
		for _, r := range []syntax.Expr{v("y"), syntax.Binary{Op: syntax.OpAdd, L: v("y"), R: lit(1)}} {
			got, err := syntax.SubstProc(p, "x", r)
			if err == nil || !strings.Contains(err.Error(), "capture") {
				t.Errorf("%s[%s/x] = %v, %v; want a capture error", p, r, got, err)
			}
		}
	}
}

func TestSubstProcWithoutCapture(t *testing.T) {
	inRange := syntax.RangeSet{Lo: v("x"), Hi: v("x")}
	for _, c := range []struct{ p, want syntax.Proc }{
		// x occurs in the input's domain and beside it, outside its scope.
		{
			syntax.Alt{L: syntax.Input{Ch: ch("d"), Var: "y", Dom: inRange, Cont: syntax.Stop{}}, R: out("e", v("x"), syntax.Stop{})},
			syntax.Alt{L: syntax.Input{Ch: ch("d"), Var: "y", Dom: syntax.RangeSet{Lo: v("y"), Hi: v("y")}, Cont: syntax.Stop{}}, R: out("e", v("y"), syntax.Stop{})},
		},
		// The input binds y over no occurrence of x.
		{
			out("e", v("x"), syntax.Input{Ch: ch("d"), Var: "y", Dom: natSet(), Cont: out("e", v("y"), syntax.Stop{})}),
			out("e", v("y"), syntax.Input{Ch: ch("d"), Var: "y", Dom: natSet(), Cont: out("e", v("y"), syntax.Stop{})}),
		},
		// An input binding x itself ends the substitution before the one
		// that would capture y.
		{
			syntax.Input{Ch: ch("c"), Var: "x", Dom: natSet(), Cont: captor()},
			syntax.Input{Ch: ch("c"), Var: "x", Dom: natSet(), Cont: captor()},
		},
	} {
		got, err := syntax.SubstProc(c.p, "x", v("y"))
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s[y/x] = %v, %v; want %s", c.p, got, err, c.want)
		}
	}
}

func TestVarNames(t *testing.T) {
	// c[i]?x:{0..k} -> d?y:NAT -> e!x -> q[j]: i, k and j free, x bound and
	// used, y bound and unused.
	p := syntax.Input{Ch: syntax.ChanRef{Name: "c", Sub: v("i")}, Var: "x", Dom: syntax.RangeSet{Lo: lit(0), Hi: v("k")},
		Cont: syntax.Input{Ch: ch("d"), Var: "y", Dom: natSet(), Cont: out("e", v("x"), syntax.Ref{Name: "q", Sub: v("j")})}}
	want := map[string]bool{"i": true, "k": true, "x": true, "y": true, "j": true}
	if got := syntax.VarNames(p); !maps.Equal(got, want) {
		t.Errorf("VarNames = %v, want %v", got, want)
	}
	if got := syntax.FreeVarsProc(p); !maps.Equal(got, map[string]bool{"i": true, "k": true, "j": true}) {
		t.Errorf("FreeVarsProc = %v", got)
	}
}

// TestChansCensus checks that the census sees a channel under every
// process form and marks an element or a range of an array as such.
func TestChansCensus(t *testing.T) {
	sub := syntax.ChanRef{Name: "arr", Sub: v("i")}
	p := syntax.Hiding{
		Channels: []syntax.ChanItem{{Name: "hid"}, {Name: "col", Lo: lit(0), Hi: lit(3)}},
		Body: syntax.Par{
			L: syntax.Alt{
				L: out("alt", lit(0), syntax.Stop{}),
				R: syntax.IChoice{L: out("ich", lit(0), syntax.Stop{}), R: syntax.Ref{Name: "q"}},
			},
			R:      syntax.Input{Ch: sub, Var: "x", Dom: natSet(), Cont: out("cont", v("x"), syntax.Stop{})},
			AlphaL: []syntax.ChanItem{{Name: "left"}},
			AlphaR: []syntax.ChanItem{{Name: "right", Sub: lit(1)}},
		},
	}
	got := map[string]bool{}
	syntax.Chans(p, func(name string, array bool) { got[name] = got[name] || array })
	want := map[string]bool{
		"hid": false, "col": true, "alt": false, "ich": false, "arr": true,
		"cont": false, "left": false, "right": true,
	}
	if !maps.Equal(got, want) {
		t.Errorf("census = %v, want %v", got, want)
	}
}

// TestSubstLiteralAllocatesNothing pins the cost of the explorer's
// successor minting where the variable does not occur: the term comes
// back as it was, its alphabet lists shared, and nothing is allocated.
func TestSubstLiteralAllocatesNothing(t *testing.T) {
	items := []syntax.ChanItem{{Name: "col", Lo: lit(0), Hi: lit(3)}, {Name: "row", Sub: lit(1)}}
	var p syntax.Proc = syntax.Par{
		L: syntax.Input{Ch: syntax.ChanRef{Name: "row", Sub: lit(1)}, Var: "y", Dom: syntax.EnumSet{Elems: []syntax.Expr{lit(0), v("k")}},
			Cont: out("col", syntax.Binary{Op: syntax.OpMul, L: v("y"), R: syntax.Index{Name: "v", Sub: v("k")}}, syntax.Ref{Name: "q", Sub: v("k")})},
		R:      syntax.Hiding{Channels: items, Body: syntax.IChoice{L: syntax.Stop{}, R: syntax.Alt{L: syntax.Stop{}, R: syntax.Stop{}}}},
		AlphaL: items, AlphaR: items,
	}
	var r syntax.Expr = lit(7)
	var got syntax.Proc
	allocs := testing.AllocsPerRun(10, func() {
		got, _ = syntax.SubstProc(p, "x", r)
	})
	if allocs != 0 {
		t.Errorf("SubstProc allocated %v times on a term without x", allocs)
	}
	if par, ok := got.(syntax.Par); !ok || !syntax.Equal(par, p) || &par.AlphaL[0] != &items[0] {
		t.Errorf("SubstProc = %s, want its input", got)
	}
}
