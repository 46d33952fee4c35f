package assertion

import (
	"fmt"
	"strconv"

	"cspsat/internal/syntax"
	"cspsat/internal/trace"
	"cspsat/internal/value"
)

// The substitutions of §2.1 and §3.4:
//
//	R_<>        every channel name replaced by the empty sequence (rule 4)
//	R[e⌢c/c]    channel c replaced by e prefixed to c (rules 5 and 6)
//	R[t/x]      variable x replaced by a term (rule 6's fresh variable, ∀-elim)
//
// All are passes of the one traversal in walk.go, so they reach into
// subscripts, and they refuse to substitute a term under a binder of one of
// its free variables rather than let the binder capture it.

// matchChan reports whether x, a reference to c's array or channel name
// with no subscript or an integer literal one, denotes the channel c.
func matchChan(x ChanT, c trace.Chan) bool {
	_, sub, hasSub := c.ArrayName()
	if x.Sub == nil {
		return !hasSub
	}
	return hasSub && x.Sub.(Lit).Val.AsInt() == sub
}

// SubstChanCons returns R with every occurrence of channel c replaced by
// head⌢c — the paper's R[e⌢c/c] used by the output and input rules. It
// fails if R subscripts the same channel array symbolically, since then
// occurrences of c cannot be decided syntactically, and if a binder in R
// would capture a variable of head.
func SubstChanCons(a A, c trace.Chan, head Term) (A, error) {
	name, _, _ := c.ArrayName()
	var symbolic error
	out, err := substitute(a, head, rewrite{node: func(t Term, _ bool) Term {
		x, ok := t.(ChanT)
		switch {
		case !ok || x.Name != name:
		case x.Sub != nil && !literalSub(x):
			symbolic = fmt.Errorf("assertion: channel %s subscripted symbolically (%s); substitution undecidable", name, x)
		case matchChan(x, c):
			return Cons{Head: head, Tail: x}
		}
		return nil
	}})
	if symbolic != nil {
		return nil, symbolic
	}
	return out, err
}

// EmptyAllChans returns R_<>: R with every channel name replaced by the
// constant empty sequence (rule 4, emptiness).
func EmptyAllChans(a A) A {
	return rewrite{node: func(t Term, _ bool) Term {
		if _, ok := t.(ChanT); ok {
			return Empty()
		}
		return nil
	}}.run(a)
}

// SubstVar returns R with every free occurrence of variable x replaced by
// term r, stopping at binders of the same name (ForAll/Exists/Sum). Into
// the set of a ∀z∈S it puts r's process-language form, so it fails where x
// is free in such a set and r has none. It fails if a binder in R would
// capture a variable of r.
func SubstVar(a A, x string, r Term) (A, error) {
	var inexpressible error
	out, err := substitute(a, r, rewrite{
		node: func(t Term, bound bool) Term {
			if v, ok := t.(VarT); ok && v.Name == x && !bound {
				return r
			}
			return nil
		},
		set: func(s syntax.SetExpr, free map[string]bool) syntax.SetExpr {
			if !free[x] {
				return nil
			}
			e, err := TermToExpr(r)
			if err != nil {
				inexpressible = err
				return nil
			}
			return syntax.SubstSet(s, x, e)
		},
	})
	if inexpressible != nil {
		return nil, inexpressible
	}
	return out, err
}

// substitute runs the pass w, which puts t in places, over a. It fails
// where a binder in a would capture a variable of t.
func substitute(a A, t Term, w rewrite) (A, error) {
	var err error
	w.changed = func(v string) {
		if err == nil && termVars(t)[v] {
			err = fmt.Errorf("assertion: substituting %s under the binder of %s would capture it", t, v)
		}
	}
	out := w.run(a)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FreeChans returns the concrete channels mentioned by the assertion. When
// a channel array is subscripted by a non-literal term, the name is
// reported with a trailing "[*]" wildcard entry so callers can treat the
// whole array as mentioned (as rule 8's "all channels mentioned in R"
// requires).
func FreeChans(a A) map[string]bool {
	out := map[string]bool{}
	rewrite{node: func(t Term, _ bool) Term {
		if x, ok := t.(ChanT); ok {
			out[chanKey(x)] = true
		}
		return nil
	}}.run(a)
	return out
}

func chanKey(x ChanT) string {
	if x.Sub == nil {
		return x.Name
	}
	if literalSub(x) {
		return x.Name + "[" + strconv.FormatInt(x.Sub.(Lit).Val.AsInt(), 10) + "]"
	}
	return x.Name + "[*]"
}

// literalSub reports whether x is subscripted by an integer literal.
func literalSub(x ChanT) bool {
	lit, ok := x.Sub.(Lit)
	return ok && lit.Val.Kind() == value.KindInt
}

// FreeVars returns the variables occurring free in the assertion, those of
// the sets of ∀z∈S and ∃z∈S among them (channel names excluded — they are
// "bound" by the sat judgement, §2). It returns nil when there are none.
func FreeVars(a A) map[string]bool {
	var out map[string]bool
	rewrite{node: collectVars(&out), set: collectSetVars(&out)}.run(a)
	return out
}

// termVars returns the variables occurring free in t, as FreeVars does.
func termVars(t Term) map[string]bool {
	var out map[string]bool
	w := rewrite{node: collectVars(&out)}
	w.term(t, nil)
	return out
}

// collectVars returns a node that adds every free variable it meets to
// *out, making the map at the first.
func collectVars(out *map[string]bool) func(Term, bool) Term {
	return func(t Term, bound bool) Term {
		if v, ok := t.(VarT); ok && !bound {
			if *out == nil {
				*out = map[string]bool{}
			}
			(*out)[v.Name] = true
		}
		return nil
	}
}

// collectSetVars is collectVars for the sets of ∀z∈S and ∃z∈S.
func collectSetVars(out *map[string]bool) func(syntax.SetExpr, map[string]bool) syntax.SetExpr {
	return func(_ syntax.SetExpr, free map[string]bool) syntax.SetExpr {
		for v := range free {
			if *out == nil {
				*out = map[string]bool{}
			}
			(*out)[v] = true
		}
		return nil
	}
}

// VarNames returns every variable name in the assertion: those occurring
// free or bound, and those a binder binds.
func VarNames(a A) map[string]bool {
	out := map[string]bool{}
	rewrite{binders: out, set: collectSetVars(&out), node: func(t Term, _ bool) Term {
		if v, ok := t.(VarT); ok {
			out[v.Name] = true
		}
		return nil
	}}.run(a)
	return out
}

// Resolve returns a with every Unresolved term replaced by what f returns
// for it, or f's first error. f sees the placeholder with its subscript
// resolved already, and whether a binder in a binds its name.
func Resolve(a A, f func(u Unresolved, bound bool) (Term, error)) (A, error) {
	var err error
	out := rewrite{node: func(t Term, bound bool) Term {
		u, ok := t.(Unresolved)
		if !ok || err != nil {
			return nil
		}
		var r Term
		r, err = f(u, bound)
		return r
	}}.run(a)
	if err != nil {
		return nil, err
	}
	return out, nil
}
