package assertion

import (
	"fmt"
	"strconv"

	"cspsat/internal/trace"
	"cspsat/internal/value"
)

// The substitutions of §2.1 and §3.4:
//
//	R_<>        every channel name replaced by the empty sequence (rule 4)
//	R[e⌢c/c]    channel c replaced by e prefixed to c (rules 5 and 6)
//	R[t/x]      variable x replaced by a term (rule 6's fresh variable, ∀-elim)
//
// All are implemented by a generic term rewrite over the formula.

// mapTerm applies f bottom-up to every term node. Binders are handled by
// the callers (via the bound set threaded through formula mapping).
func mapTerm(t Term, f func(Term) Term) Term {
	switch x := t.(type) {
	case Lit, VarT, ChanT, ConstIndex:
		return f(t)
	case Cons:
		return f(Cons{Head: mapTerm(x.Head, f), Tail: mapTerm(x.Tail, f)})
	case SeqLit:
		elems := make([]Term, len(x.Elems))
		for i, e := range x.Elems {
			elems[i] = mapTerm(e, f)
		}
		return f(SeqLit{Elems: elems})
	case Cat:
		return f(Cat{L: mapTerm(x.L, f), R: mapTerm(x.R, f)})
	case Len:
		return f(Len{S: mapTerm(x.S, f)})
	case At:
		return f(At{S: mapTerm(x.S, f), Idx: mapTerm(x.Idx, f)})
	case Arith:
		return f(Arith{Op: x.Op, L: mapTerm(x.L, f), R: mapTerm(x.R, f)})
	case Sum:
		return f(Sum{Var: x.Var, Lo: mapTerm(x.Lo, f), Hi: mapTerm(x.Hi, f), Body: mapTerm(x.Body, f)})
	case Apply:
		args := make([]Term, len(x.Args))
		for i, a := range x.Args {
			args[i] = mapTerm(a, f)
		}
		return f(Apply{Fn: x.Fn, Args: args})
	default:
		return f(t)
	}
}

// anyTerm reports whether p holds for some term of the formula that
// mapFormula would hand its function, without building anything.
func anyTerm(a A, p func(Term) bool) bool {
	switch x := a.(type) {
	case Cmp:
		return anyIn(x.L, p) || anyIn(x.R, p)
	case Not:
		return anyTerm(x.Body, p)
	case And:
		return anyTerm(x.L, p) || anyTerm(x.R, p)
	case Or:
		return anyTerm(x.L, p) || anyTerm(x.R, p)
	case Implies:
		return anyTerm(x.L, p) || anyTerm(x.R, p)
	case ForAllSet:
		return anyTerm(x.Body, p)
	case ExistsSet:
		return anyTerm(x.Body, p)
	case ForAllRange:
		return anyIn(x.Lo, p) || anyIn(x.Hi, p) || anyTerm(x.Body, p)
	case ExistsRange:
		return anyIn(x.Lo, p) || anyIn(x.Hi, p) || anyTerm(x.Body, p)
	case Pred:
		for _, t := range x.Args {
			if anyIn(t, p) {
				return true
			}
		}
	}
	return false
}

// anyIn reports whether p holds for t or a term inside it, where mapTerm
// would look.
func anyIn(t Term, p func(Term) bool) bool {
	if p(t) {
		return true
	}
	switch x := t.(type) {
	case Cons:
		return anyIn(x.Head, p) || anyIn(x.Tail, p)
	case SeqLit:
		for _, e := range x.Elems {
			if anyIn(e, p) {
				return true
			}
		}
	case Cat:
		return anyIn(x.L, p) || anyIn(x.R, p)
	case Len:
		return anyIn(x.S, p)
	case At:
		return anyIn(x.S, p) || anyIn(x.Idx, p)
	case Arith:
		return anyIn(x.L, p) || anyIn(x.R, p)
	case Sum:
		return anyIn(x.Lo, p) || anyIn(x.Hi, p) || anyIn(x.Body, p)
	case Apply:
		for _, e := range x.Args {
			if anyIn(e, p) {
				return true
			}
		}
	}
	return false
}

// mapFormula applies tf to every term of the formula, respecting nothing —
// binder handling is layered on by the specific substitutions below.
func mapFormula(a A, tf func(Term) Term) A {
	switch x := a.(type) {
	case BoolA:
		return x
	case Cmp:
		return Cmp{Op: x.Op, L: mapTerm(x.L, tf), R: mapTerm(x.R, tf)}
	case Not:
		return Not{Body: mapFormula(x.Body, tf)}
	case And:
		return And{L: mapFormula(x.L, tf), R: mapFormula(x.R, tf)}
	case Or:
		return Or{L: mapFormula(x.L, tf), R: mapFormula(x.R, tf)}
	case Implies:
		return Implies{L: mapFormula(x.L, tf), R: mapFormula(x.R, tf)}
	case ForAllSet:
		return ForAllSet{Var: x.Var, Dom: x.Dom, Body: mapFormula(x.Body, tf)}
	case ExistsSet:
		return ExistsSet{Var: x.Var, Dom: x.Dom, Body: mapFormula(x.Body, tf)}
	case ForAllRange:
		return ForAllRange{Var: x.Var, Lo: mapTerm(x.Lo, tf), Hi: mapTerm(x.Hi, tf), Body: mapFormula(x.Body, tf)}
	case ExistsRange:
		return ExistsRange{Var: x.Var, Lo: mapTerm(x.Lo, tf), Hi: mapTerm(x.Hi, tf), Body: mapFormula(x.Body, tf)}
	case Pred:
		args := make([]Term, len(x.Args))
		for i, t := range x.Args {
			args[i] = mapTerm(t, tf)
		}
		return Pred{Name: x.Name, Args: args}
	default:
		return a
	}
}

// matchChan reports whether a ChanT node denotes the concrete channel c.
// A symbolic subscript (one that is not an integer literal) never matches:
// callers that require exhaustive substitution use ChanRefsDetermined to
// rule such assertions out first.
func matchChan(x ChanT, c trace.Chan) bool {
	name, sub, hasSub := c.ArrayName()
	if x.Sub == nil {
		return !hasSub && x.Name == name
	}
	lit, ok := x.Sub.(Lit)
	if !ok || lit.Val.Kind() != value.KindInt {
		return false
	}
	return hasSub && x.Name == name && lit.Val.AsInt() == sub
}

// SubstChanCons returns R with every occurrence of channel c replaced by
// head⌢c — the paper's R[e⌢c/c] used by the output and input rules. It
// fails if R subscripts the same channel array symbolically, since then
// occurrences of c cannot be decided syntactically.
func SubstChanCons(a A, c trace.Chan, head Term) (A, error) {
	name, _, _ := c.ArrayName()
	if err := checkDetermined(a, name); err != nil {
		return nil, err
	}
	return mapFormula(a, func(t Term) Term {
		if x, ok := t.(ChanT); ok && matchChan(x, c) {
			return Cons{Head: head, Tail: x}
		}
		return t
	}), nil
}

// EmptyAllChans returns R_<>: R with every channel name replaced by the
// constant empty sequence (rule 4, emptiness).
func EmptyAllChans(a A) A {
	return mapFormula(a, func(t Term) Term {
		if _, ok := t.(ChanT); ok {
			return Empty()
		}
		return t
	})
}

// SubstVar returns R with every free occurrence of variable x replaced by
// term r, stopping at binders of the same name (ForAll/Exists/Sum).
func SubstVar(a A, x string, r Term) A {
	return substVarFormula(a, x, r)
}

func substVarTerm(t Term, x string, r Term) Term {
	switch n := t.(type) {
	case VarT:
		if n.Name == x {
			return r
		}
		return t
	case ChanT:
		if n.Sub == nil {
			return t
		}
		return ChanT{Name: n.Name, Sub: substVarTerm(n.Sub, x, r)}
	case ConstIndex:
		return ConstIndex{Name: n.Name, Sub: substVarTerm(n.Sub, x, r)}
	case Cons:
		return Cons{Head: substVarTerm(n.Head, x, r), Tail: substVarTerm(n.Tail, x, r)}
	case SeqLit:
		elems := make([]Term, len(n.Elems))
		for i, e := range n.Elems {
			elems[i] = substVarTerm(e, x, r)
		}
		return SeqLit{Elems: elems}
	case Cat:
		return Cat{L: substVarTerm(n.L, x, r), R: substVarTerm(n.R, x, r)}
	case Len:
		return Len{S: substVarTerm(n.S, x, r)}
	case At:
		return At{S: substVarTerm(n.S, x, r), Idx: substVarTerm(n.Idx, x, r)}
	case Arith:
		return Arith{Op: n.Op, L: substVarTerm(n.L, x, r), R: substVarTerm(n.R, x, r)}
	case Sum:
		out := Sum{Var: n.Var, Lo: substVarTerm(n.Lo, x, r), Hi: substVarTerm(n.Hi, x, r)}
		if n.Var == x {
			out.Body = n.Body
		} else {
			out.Body = substVarTerm(n.Body, x, r)
		}
		return out
	case Apply:
		args := make([]Term, len(n.Args))
		for i, a := range n.Args {
			args[i] = substVarTerm(a, x, r)
		}
		return Apply{Fn: n.Fn, Args: args}
	default:
		return t
	}
}

func substVarFormula(a A, x string, r Term) A {
	switch n := a.(type) {
	case BoolA:
		return a
	case Cmp:
		return Cmp{Op: n.Op, L: substVarTerm(n.L, x, r), R: substVarTerm(n.R, x, r)}
	case Not:
		return Not{Body: substVarFormula(n.Body, x, r)}
	case And:
		return And{L: substVarFormula(n.L, x, r), R: substVarFormula(n.R, x, r)}
	case Or:
		return Or{L: substVarFormula(n.L, x, r), R: substVarFormula(n.R, x, r)}
	case Implies:
		return Implies{L: substVarFormula(n.L, x, r), R: substVarFormula(n.R, x, r)}
	case ForAllSet:
		if n.Var == x {
			return a
		}
		return ForAllSet{Var: n.Var, Dom: n.Dom, Body: substVarFormula(n.Body, x, r)}
	case ExistsSet:
		if n.Var == x {
			return a
		}
		return ExistsSet{Var: n.Var, Dom: n.Dom, Body: substVarFormula(n.Body, x, r)}
	case ForAllRange:
		out := ForAllRange{Var: n.Var, Lo: substVarTerm(n.Lo, x, r), Hi: substVarTerm(n.Hi, x, r)}
		if n.Var == x {
			out.Body = n.Body
		} else {
			out.Body = substVarFormula(n.Body, x, r)
		}
		return out
	case ExistsRange:
		out := ExistsRange{Var: n.Var, Lo: substVarTerm(n.Lo, x, r), Hi: substVarTerm(n.Hi, x, r)}
		if n.Var == x {
			out.Body = n.Body
		} else {
			out.Body = substVarFormula(n.Body, x, r)
		}
		return out
	case Pred:
		args := make([]Term, len(n.Args))
		for i, t := range n.Args {
			args[i] = substVarTerm(t, x, r)
		}
		return Pred{Name: n.Name, Args: args}
	default:
		return a
	}
}

// FreeChans returns the concrete channels mentioned by the assertion. When
// a channel array is subscripted by a non-literal term, the name is
// reported with a trailing "[*]" wildcard entry so callers can treat the
// whole array as mentioned (as rule 8's "all channels mentioned in R"
// requires).
func FreeChans(a A) map[string]bool {
	out := map[string]bool{}
	collect := func(t Term) Term {
		if x, ok := t.(ChanT); ok {
			out[chanKey(x)] = true
		}
		return t
	}
	mapFormula(a, collect)
	return out
}

func chanKey(x ChanT) string {
	if x.Sub == nil {
		return x.Name
	}
	if lit, ok := x.Sub.(Lit); ok && lit.Val.Kind() == value.KindInt {
		return x.Name + "[" + strconv.FormatInt(lit.Val.AsInt(), 10) + "]"
	}
	return x.Name + "[*]"
}

// checkDetermined fails when the assertion subscripts channel array `name`
// with a non-literal term.
func checkDetermined(a A, name string) error {
	var bad error
	mapFormula(a, func(t Term) Term {
		if x, ok := t.(ChanT); ok && x.Name == name && x.Sub != nil {
			if lit, isLit := x.Sub.(Lit); !isLit || lit.Val.Kind() != value.KindInt {
				bad = fmt.Errorf("assertion: channel %s subscripted symbolically (%s); substitution undecidable", name, x)
			}
		}
		return t
	})
	return bad
}

// FreeVars returns the variables occurring free in the assertion
// (channel names excluded — they are "bound" by the sat judgement, §2).
func FreeVars(a A) map[string]bool {
	out := map[string]bool{}
	freeVarsFormula(a, out, map[string]bool{})
	return out
}

func freeVarsTerm(t Term, acc, bound map[string]bool) {
	switch n := t.(type) {
	case VarT:
		if !bound[n.Name] {
			acc[n.Name] = true
		}
	case ChanT:
		if n.Sub != nil {
			freeVarsTerm(n.Sub, acc, bound)
		}
	case ConstIndex:
		freeVarsTerm(n.Sub, acc, bound)
	case Cons:
		freeVarsTerm(n.Head, acc, bound)
		freeVarsTerm(n.Tail, acc, bound)
	case SeqLit:
		for _, e := range n.Elems {
			freeVarsTerm(e, acc, bound)
		}
	case Cat:
		freeVarsTerm(n.L, acc, bound)
		freeVarsTerm(n.R, acc, bound)
	case Len:
		freeVarsTerm(n.S, acc, bound)
	case At:
		freeVarsTerm(n.S, acc, bound)
		freeVarsTerm(n.Idx, acc, bound)
	case Arith:
		freeVarsTerm(n.L, acc, bound)
		freeVarsTerm(n.R, acc, bound)
	case Sum:
		freeVarsTerm(n.Lo, acc, bound)
		freeVarsTerm(n.Hi, acc, bound)
		if !bound[n.Var] {
			bound[n.Var] = true
			freeVarsTerm(n.Body, acc, bound)
			delete(bound, n.Var)
		} else {
			freeVarsTerm(n.Body, acc, bound)
		}
	case Apply:
		for _, a := range n.Args {
			freeVarsTerm(a, acc, bound)
		}
	}
}

func freeVarsFormula(a A, acc, bound map[string]bool) {
	under := func(v string, body A) {
		if bound[v] {
			freeVarsFormula(body, acc, bound)
			return
		}
		bound[v] = true
		freeVarsFormula(body, acc, bound)
		delete(bound, v)
	}
	switch n := a.(type) {
	case Cmp:
		freeVarsTerm(n.L, acc, bound)
		freeVarsTerm(n.R, acc, bound)
	case Not:
		freeVarsFormula(n.Body, acc, bound)
	case And:
		freeVarsFormula(n.L, acc, bound)
		freeVarsFormula(n.R, acc, bound)
	case Or:
		freeVarsFormula(n.L, acc, bound)
		freeVarsFormula(n.R, acc, bound)
	case Implies:
		freeVarsFormula(n.L, acc, bound)
		freeVarsFormula(n.R, acc, bound)
	case ForAllSet:
		under(n.Var, n.Body)
	case ExistsSet:
		under(n.Var, n.Body)
	case ForAllRange:
		freeVarsTerm(n.Lo, acc, bound)
		freeVarsTerm(n.Hi, acc, bound)
		under(n.Var, n.Body)
	case ExistsRange:
		freeVarsTerm(n.Lo, acc, bound)
		freeVarsTerm(n.Hi, acc, bound)
		under(n.Var, n.Body)
	case Pred:
		for _, t := range n.Args {
			freeVarsTerm(t, acc, bound)
		}
	}
}
