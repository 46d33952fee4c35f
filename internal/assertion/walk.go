package assertion

import (
	"slices"

	"cspsat/internal/syntax"
)

// The one traversal of the assertion language. Only this file knows which
// nodes have children, the subscripts of ChanT, ConstIndex and Unresolved
// among them, and which variable each of Sum, ForAllRange, ExistsRange,
// ForAllSet and ExistsSet binds over its body (a binder's bounds and set
// lie outside its scope). The substitutions of §2.1, the free-name queries
// and the parser's name resolution are all passes of it. The set of a
// ∀z∈S or ∃z∈S is a process-language expression, which a pass sees whole.

// rewrite is one pass over a formula. It hands every term to node after
// the term's children, left to right, and puts node's result in the
// term's place. A node is copied only when something below it changed, so
// a pass that changes nothing returns its input and allocates nothing.
//
// Nothing a pass is handed leaks out of it, so the functions and the scope
// of a pass can live on its caller's stack. A field that the pass returned
// or passed on, such as an error or the substituted term, would make every
// node function escape to the heap, so the passes keep those themselves.
type rewrite struct {
	// node returns the term that replaces t, or nil to keep it. t has its
	// children rewritten already. bound reports, for a VarT or an
	// Unresolved, whether an enclosing binder binds its name.
	node func(t Term, bound bool) Term
	// changed, when non-nil, is called with the variable of every binder
	// whose body the pass changed: there the binder would capture a
	// variable of whatever was substituted.
	changed func(v string)
	// set, when non-nil, returns the set that replaces s, the set of a
	// ∀z∈S or ∃z∈S, or nil to keep it. free holds the variables of s that
	// no enclosing binder binds.
	set func(s syntax.SetExpr, free map[string]bool) syntax.SetExpr
	// binders, when non-nil, collects the variable of every binder.
	binders map[string]bool

	changes int // terms node replaced so far
}

// run runs the pass over a.
func (w rewrite) run(a A) A {
	var scope [8]string // binders rarely nest deeper, so the pass need not allocate
	return w.formula(a, scope[:0])
}

// formula rewrites a under the binders of bound.
func (w *rewrite) formula(a A, bound []string) A {
	n := w.changes
	switch x := a.(type) {
	case Cmp:
		x.L, x.R = w.term(x.L, bound), w.term(x.R, bound)
		if w.changes != n {
			a = x
		}
	case Not:
		x.Body = w.formula(x.Body, bound)
		if w.changes != n {
			a = x
		}
	case And:
		x.L, x.R = w.formula(x.L, bound), w.formula(x.R, bound)
		if w.changes != n {
			a = x
		}
	case Or:
		x.L, x.R = w.formula(x.L, bound), w.formula(x.R, bound)
		if w.changes != n {
			a = x
		}
	case Implies:
		x.L, x.R = w.formula(x.L, bound), w.formula(x.R, bound)
		if w.changes != n {
			a = x
		}
	case ForAllSet:
		x.Dom = w.domain(x.Dom, bound)
		x.Body = w.under(x.Var, x.Body, bound)
		if w.changes != n {
			a = x
		}
	case ExistsSet:
		x.Dom = w.domain(x.Dom, bound)
		x.Body = w.under(x.Var, x.Body, bound)
		if w.changes != n {
			a = x
		}
	case ForAllRange:
		x.Lo, x.Hi = w.term(x.Lo, bound), w.term(x.Hi, bound)
		x.Body = w.under(x.Var, x.Body, bound)
		if w.changes != n {
			a = x
		}
	case ExistsRange:
		x.Lo, x.Hi = w.term(x.Lo, bound), w.term(x.Hi, bound)
		x.Body = w.under(x.Var, x.Body, bound)
		if w.changes != n {
			a = x
		}
	case Pred:
		x.Args = w.terms(x.Args, bound)
		if w.changes != n {
			a = x
		}
	}
	return a
}

// domain hands the set s of a ∀z∈S or ∃z∈S to the pass's set.
func (w *rewrite) domain(s syntax.SetExpr, bound []string) syntax.SetExpr {
	if w.set == nil {
		return s
	}
	free := map[string]bool{}
	syntax.FreeVarsSet(s, free)
	for _, v := range bound {
		delete(free, v)
	}
	if r := w.set(s, free); r != nil {
		w.changes++
		return r
	}
	return s
}

// under rewrites the body of a binder of v.
func (w *rewrite) under(v string, body A, bound []string) A {
	n := w.changes
	body = w.formula(body, append(bound, v))
	w.leave(v, n)
	return body
}

// term rewrites t under the binders of bound; a nil t (an absent
// subscript) stays nil.
func (w *rewrite) term(t Term, bound []string) Term {
	n := w.changes
	switch x := t.(type) {
	case nil:
		return nil
	case ChanT:
		x.Sub = w.term(x.Sub, bound)
		if w.changes != n {
			t = x
		}
	case ConstIndex:
		x.Sub = w.term(x.Sub, bound)
		if w.changes != n {
			t = x
		}
	case Unresolved:
		x.Sub = w.term(x.Sub, bound)
		if w.changes != n {
			t = x
		}
	case Cons:
		x.Head, x.Tail = w.term(x.Head, bound), w.term(x.Tail, bound)
		if w.changes != n {
			t = x
		}
	case SeqLit:
		x.Elems = w.terms(x.Elems, bound)
		if w.changes != n {
			t = x
		}
	case Cat:
		x.L, x.R = w.term(x.L, bound), w.term(x.R, bound)
		if w.changes != n {
			t = x
		}
	case Len:
		x.S = w.term(x.S, bound)
		if w.changes != n {
			t = x
		}
	case At:
		x.S, x.Idx = w.term(x.S, bound), w.term(x.Idx, bound)
		if w.changes != n {
			t = x
		}
	case Arith:
		x.L, x.R = w.term(x.L, bound), w.term(x.R, bound)
		if w.changes != n {
			t = x
		}
	case Sum:
		x.Lo, x.Hi = w.term(x.Lo, bound), w.term(x.Hi, bound)
		m := w.changes
		x.Body = w.term(x.Body, append(bound, x.Var))
		w.leave(x.Var, m)
		if w.changes != n {
			t = x
		}
	case Apply:
		x.Args = w.terms(x.Args, bound)
		if w.changes != n {
			t = x
		}
	}
	var isBound bool
	switch x := t.(type) {
	case VarT:
		isBound = slices.Contains(bound, x.Name)
	case Unresolved:
		isBound = slices.Contains(bound, x.Name)
	}
	if r := w.node(t, isBound); r != nil {
		w.changes++
		t = r
	}
	return t
}

// terms rewrites a list of terms, copying it only when one changed.
func (w *rewrite) terms(ts []Term, bound []string) []Term {
	var out []Term
	for i, t := range ts {
		n := w.changes
		r := w.term(t, bound)
		if w.changes != n && out == nil {
			out = slices.Clone(ts)
		}
		if out != nil {
			out[i] = r
		}
	}
	if out == nil {
		return ts
	}
	return out
}

// leave ends the body of a binder of v, begun when the change count was
// n.
func (w *rewrite) leave(v string, n int) {
	if w.binders != nil {
		w.binders[v] = true
	}
	if w.changed != nil && w.changes != n {
		w.changed(v)
	}
}
