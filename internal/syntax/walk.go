package syntax

import (
	"fmt"
	"slices"
)

// The one traversal of the process language. Only this file knows each
// node's children, among them the subscripts of references, channels and
// channel items, the bounds and elements of sets, a composition's
// alphabets and a hiding's list, and that an input c?x:M → P binds x over
// P alone: its channel and M lie outside the scope. Substitution (the
// paper's P[e/x], §2.1 rules 6 and 10), the free- and all-name queries and
// the parser's channel census are passes of it.

// walk is one pass over a term. It hands every variable to vars, every
// channel name to chans and every input's variable, after the input's
// continuation, to binder, and puts what vars returns in the variable's
// place. A node is copied only when something below it changed, so a pass
// that changes nothing returns its input and allocates nothing.
//
// Nothing a pass is handed leaks out of it, so its functions and scope
// live on the caller's stack. The passes keep what they return beside the
// term, such as an error, themselves.
type walk struct {
	// vars, when non-nil, returns the expression that replaces a variable,
	// or nil to keep it. bound reports whether an enclosing input binds it.
	vars func(name string, bound bool) Expr
	// chans, when non-nil, is called with the name of every channel a term
	// communicates on or lists, and whether it is subscripted there: an
	// element or a range of a channel array.
	chans func(name string, array bool)
	// binder, when non-nil, is called with the variable of every input
	// after its continuation, and whether the pass changed the
	// continuation: there the input would capture a variable of whatever
	// was substituted.
	binder func(name string, changed bool)

	changes int // variables vars replaced so far
}

// scope is the chain of variables that enclosing inputs bind.
type scope struct {
	name string
	up   *scope
}

func (s *scope) binds(name string) bool {
	for ; s != nil; s = s.up {
		if s.name == name {
			return true
		}
	}
	return false
}

// proc rewrites p under the inputs of sc.
func (w *walk) proc(p Proc, sc *scope) Proc {
	n := w.changes
	switch t := p.(type) {
	case Ref:
		t.Sub = w.expr(t.Sub, sc)
		if w.changes != n {
			p = t
		}
	case Output:
		t.Ch, t.Val, t.Cont = w.chanRef(t.Ch, sc), w.expr(t.Val, sc), w.proc(t.Cont, sc)
		if w.changes != n {
			p = t
		}
	case Input:
		t.Ch, t.Dom = w.chanRef(t.Ch, sc), w.set(t.Dom, sc)
		m := w.changes
		t.Cont = w.proc(t.Cont, &scope{name: t.Var, up: sc})
		if w.binder != nil {
			w.binder(t.Var, w.changes != m)
		}
		if w.changes != n {
			p = t
		}
	case Alt:
		t.L, t.R = w.proc(t.L, sc), w.proc(t.R, sc)
		if w.changes != n {
			p = t
		}
	case IChoice:
		t.L, t.R = w.proc(t.L, sc), w.proc(t.R, sc)
		if w.changes != n {
			p = t
		}
	case Par:
		t.L, t.R = w.proc(t.L, sc), w.proc(t.R, sc)
		t.AlphaL, t.AlphaR = w.items(t.AlphaL, sc), w.items(t.AlphaR, sc)
		if w.changes != n {
			p = t
		}
	case Hiding:
		t.Channels, t.Body = w.items(t.Channels, sc), w.proc(t.Body, sc)
		if w.changes != n {
			p = t
		}
	}
	return p
}

// expr rewrites e; a nil e, an absent subscript or bound, stays nil.
func (w *walk) expr(e Expr, sc *scope) Expr {
	n := w.changes
	switch t := e.(type) {
	case Var:
		if w.vars == nil {
			break
		}
		if r := w.vars(t.Name, sc.binds(t.Name)); r != nil {
			w.changes++
			e = r
		}
	case Binary:
		t.L, t.R = w.expr(t.L, sc), w.expr(t.R, sc)
		if w.changes != n {
			e = t
		}
	case Index:
		t.Sub = w.expr(t.Sub, sc)
		if w.changes != n {
			e = t
		}
	}
	return e
}

func (w *walk) set(s SetExpr, sc *scope) SetExpr {
	n := w.changes
	switch t := s.(type) {
	case RangeSet:
		t.Lo, t.Hi = w.expr(t.Lo, sc), w.expr(t.Hi, sc)
		if w.changes != n {
			s = t
		}
	case EnumSet:
		t.Elems = w.exprs(t.Elems, sc)
		if w.changes != n {
			s = t
		}
	case UnionSet:
		t.A, t.B = w.set(t.A, sc), w.set(t.B, sc)
		if w.changes != n {
			s = t
		}
	}
	return s
}

func (w *walk) chanRef(c ChanRef, sc *scope) ChanRef {
	if w.chans != nil {
		w.chans(c.Name, c.Sub != nil)
	}
	c.Sub = w.expr(c.Sub, sc)
	return c
}

// items rewrites a channel list, copying it only when an item changed.
func (w *walk) items(items []ChanItem, sc *scope) []ChanItem {
	var out []ChanItem
	for i := range items {
		it := &items[i]
		if w.chans != nil {
			w.chans(it.Name, it.Sub != nil || it.Lo != nil)
		}
		n := w.changes
		sub, lo, hi := w.expr(it.Sub, sc), w.expr(it.Lo, sc), w.expr(it.Hi, sc)
		if w.changes != n {
			if out == nil {
				out = slices.Clone(items)
			}
			out[i] = ChanItem{Name: it.Name, Sub: sub, Lo: lo, Hi: hi}
		}
	}
	if out == nil {
		return items
	}
	return out
}

// exprs rewrites a list of expressions, copying it only when one changed.
func (w *walk) exprs(es []Expr, sc *scope) []Expr {
	var out []Expr
	for i, e := range es {
		n := w.changes
		r := w.expr(e, sc)
		if w.changes != n {
			if out == nil {
				out = slices.Clone(es)
			}
			out[i] = r
		}
	}
	if out == nil {
		return es
	}
	return out
}

// SubstProc returns p with every free occurrence of variable x replaced by
// r. An input that binds x ends the substitution below it. Where an input
// binds a variable of r over a free occurrence of x it would capture that
// variable, and SubstProc fails instead; a literal r has no variable to
// capture, so for one it never fails.
func SubstProc(p Proc, x string, r Expr) (Proc, error) {
	var err error
	w := walk{
		vars: func(name string, bound bool) Expr {
			if name == x && !bound {
				return r
			}
			return nil
		},
		binder: func(name string, changed bool) {
			if changed && err == nil && mentions(r, name) {
				err = fmt.Errorf("syntax: substituting %s for %s under the binder of %s would capture it", r, x, name)
			}
		},
	}
	out := w.proc(p, nil)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SubstSet returns s with every occurrence of variable x replaced by r. A
// set binds no variable, so nothing in it can capture one of r's.
func SubstSet(s SetExpr, x string, r Expr) SetExpr {
	w := walk{vars: func(name string, _ bool) Expr {
		if name == x {
			return r
		}
		return nil
	}}
	return w.set(s, nil)
}

// mentions reports whether variable name occurs in e.
func mentions(e Expr, name string) bool {
	found := false
	w := walk{vars: func(v string, _ bool) Expr {
		found = found || v == name
		return nil
	}}
	w.expr(e, nil)
	return found
}

// FreeVarsProc returns the variables occurring free in p: the proof
// rules' side conditions ("v is a fresh variable not free in P").
func FreeVarsProc(p Proc) map[string]bool {
	free := map[string]bool{}
	addVars(p, free, false)
	return free
}

// VarNames returns every variable name in p, free or bound, and the
// variable of every input: a name outside it is fresh for p, so
// substituting it into p captures nothing.
func VarNames(p Proc) map[string]bool {
	names := map[string]bool{}
	addVars(p, names, true)
	return names
}

// addVars adds the free variables of p to acc; with all, it adds the
// bound ones and the variables of p's inputs too. FreeVarsProc and
// VarNames are small enough to inline, so a caller that only reads their
// map keeps it on its stack.
func addVars(p Proc, acc map[string]bool, all bool) {
	w := walk{vars: func(name string, bound bool) Expr {
		if all || !bound {
			acc[name] = true
		}
		return nil
	}}
	if all {
		w.binder = func(name string, _ bool) { acc[name] = true }
	}
	w.proc(p, nil)
}

// FreeVarsSet adds the variables of s to acc.
func FreeVarsSet(s SetExpr, acc map[string]bool) {
	w := walk{vars: func(name string, _ bool) Expr {
		acc[name] = true
		return nil
	}}
	w.set(s, nil)
}

// Chans calls f with the name of every channel p communicates on or lists
// in an alphabet or a hiding, and whether that occurrence is subscripted:
// an element or a range of a channel array.
func Chans(p Proc, f func(name string, array bool)) {
	w := walk{chans: f}
	w.proc(p, nil)
}
