package syntax

// Substitution of value expressions for free variables. The proof rules
// (§2.1 rules 6 and 10) and the operational unfolding of definitions both
// rely on P[e/x]; substitution respects the single binder of the language,
// the input command's bound variable.
//
// Substitution is copy-on-write: subterms that do not contain x are
// returned unchanged, not rebuilt. Exploration substitutes into successor
// terms on every input step, and most of a network term is closed, so
// identity preservation keeps both the allocation rate and the slice
// identities that downstream caches (alphabet channel lists, literal
// domains) key on.

// substExpr returns e with every free occurrence of variable x replaced by
// r, and whether anything changed.
func substExpr(e Expr, x string, r Expr) (Expr, bool) {
	switch t := e.(type) {
	case IntLit, SymLit:
		return e, false
	case Var:
		if t.Name == x {
			return r, true
		}
		return e, false
	case Binary:
		l, cl := substExpr(t.L, x, r)
		rr, cr := substExpr(t.R, x, r)
		if !cl && !cr {
			return e, false
		}
		return Binary{Op: t.Op, L: l, R: rr}, true
	case Index:
		sub, c := substExpr(t.Sub, x, r)
		if !c {
			return e, false
		}
		return Index{Name: t.Name, Sub: sub}, true
	default:
		return e, false
	}
}

// SubstSet returns s with every free occurrence of x replaced by r.
func SubstSet(s SetExpr, x string, r Expr) SetExpr {
	out, _ := substSet(s, x, r)
	return out
}

func substSet(s SetExpr, x string, r Expr) (SetExpr, bool) {
	switch t := s.(type) {
	case SetName:
		return s, false
	case RangeSet:
		lo, cl := substExpr(t.Lo, x, r)
		hi, ch := substExpr(t.Hi, x, r)
		if !cl && !ch {
			return s, false
		}
		return RangeSet{Lo: lo, Hi: hi}, true
	case EnumSet:
		changed := false
		for _, e := range t.Elems {
			if _, c := substExpr(e, x, r); c {
				changed = true
				break
			}
		}
		if !changed {
			return s, false
		}
		elems := make([]Expr, len(t.Elems))
		for i, e := range t.Elems {
			elems[i], _ = substExpr(e, x, r)
		}
		return EnumSet{Elems: elems}, true
	case UnionSet:
		a, ca := substSet(t.A, x, r)
		b, cb := substSet(t.B, x, r)
		if !ca && !cb {
			return s, false
		}
		return UnionSet{A: a, B: b}, true
	default:
		return s, false
	}
}

// substChanRef substitutes inside a channel subscript.
func substChanRef(c ChanRef, x string, r Expr) (ChanRef, bool) {
	if c.Sub == nil {
		return c, false
	}
	sub, changed := substExpr(c.Sub, x, r)
	if !changed {
		return c, false
	}
	return ChanRef{Name: c.Name, Sub: sub}, true
}

// SubstChanItem substitutes inside a channel-list item.
func SubstChanItem(c ChanItem, x string, r Expr) ChanItem {
	out, _ := substChanItem(c, x, r)
	return out
}

func substChanItem(c ChanItem, x string, r Expr) (ChanItem, bool) {
	changed := false
	out := ChanItem{Name: c.Name}
	if c.Sub != nil {
		var cs bool
		out.Sub, cs = substExpr(c.Sub, x, r)
		changed = changed || cs
	}
	if c.Lo != nil {
		var cl, ch bool
		out.Lo, cl = substExpr(c.Lo, x, r)
		out.Hi, ch = substExpr(c.Hi, x, r)
		changed = changed || cl || ch
	}
	if !changed {
		return c, false
	}
	return out, true
}

// SubstProc returns p with every free occurrence of variable x replaced by
// r, respecting the binding structure: an input command (c?x:M → P) binds x
// in P, and substitution does not descend past a binder of the same name.
func SubstProc(p Proc, x string, r Expr) Proc {
	out, _ := substProc(p, x, r)
	return out
}

func substProc(p Proc, x string, r Expr) (Proc, bool) {
	switch t := p.(type) {
	case Stop:
		return p, false
	case Ref:
		if t.Sub == nil {
			return p, false
		}
		sub, changed := substExpr(t.Sub, x, r)
		if !changed {
			return p, false
		}
		return Ref{Name: t.Name, Sub: sub}, true
	case Output:
		ch, cc := substChanRef(t.Ch, x, r)
		val, cv := substExpr(t.Val, x, r)
		cont, ck := substProc(t.Cont, x, r)
		if !cc && !cv && !ck {
			return p, false
		}
		return Output{Ch: ch, Val: val, Cont: cont}, true
	case Input:
		ch, cc := substChanRef(t.Ch, x, r)
		dom, cd := substSet(t.Dom, x, r)
		cont, ck := t.Cont, false
		if t.Var != x { // x rebound: stop at the binder
			cont, ck = substProc(t.Cont, x, r)
		}
		if !cc && !cd && !ck {
			return p, false
		}
		return Input{Ch: ch, Var: t.Var, Dom: dom, Cont: cont}, true
	case Alt:
		l, cl := substProc(t.L, x, r)
		rr, cr := substProc(t.R, x, r)
		if !cl && !cr {
			return p, false
		}
		return Alt{L: l, R: rr}, true
	case IChoice:
		l, cl := substProc(t.L, x, r)
		rr, cr := substProc(t.R, x, r)
		if !cl && !cr {
			return p, false
		}
		return IChoice{L: l, R: rr}, true
	case Par:
		l, cl := substProc(t.L, x, r)
		rr, cr := substProc(t.R, x, r)
		al, cal := substItems(t.AlphaL, x, r)
		ar, car := substItems(t.AlphaR, x, r)
		if !cl && !cr && !cal && !car {
			return p, false
		}
		return Par{L: l, R: rr, AlphaL: al, AlphaR: ar}, true
	case Hiding:
		chans, cc := substItems(t.Channels, x, r)
		body, cb := substProc(t.Body, x, r)
		if !cc && !cb {
			return p, false
		}
		return Hiding{Channels: chans, Body: body}, true
	default:
		return p, false
	}
}

func substItems(items []ChanItem, x string, r Expr) ([]ChanItem, bool) {
	changed := false
	for _, it := range items {
		if _, c := substChanItem(it, x, r); c {
			changed = true
			break
		}
	}
	if !changed {
		return items, false
	}
	out := make([]ChanItem, len(items))
	for i, it := range items {
		out[i], _ = substChanItem(it, x, r)
	}
	return out, true
}
