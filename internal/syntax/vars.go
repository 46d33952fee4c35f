package syntax

// Free-variable queries over the AST, used by the proof rules' side
// conditions ("v is a fresh variable not free in P, R or c").

// FreeVarsExpr adds the free variables of e to acc.
func FreeVarsExpr(e Expr, acc map[string]bool) {
	switch t := e.(type) {
	case Var:
		acc[t.Name] = true
	case Binary:
		FreeVarsExpr(t.L, acc)
		FreeVarsExpr(t.R, acc)
	case Index:
		FreeVarsExpr(t.Sub, acc)
	}
}

// FreeVarsSet adds the free variables of s to acc.
func FreeVarsSet(s SetExpr, acc map[string]bool) {
	switch t := s.(type) {
	case RangeSet:
		FreeVarsExpr(t.Lo, acc)
		FreeVarsExpr(t.Hi, acc)
	case EnumSet:
		for _, e := range t.Elems {
			FreeVarsExpr(e, acc)
		}
	case UnionSet:
		FreeVarsSet(t.A, acc)
		FreeVarsSet(t.B, acc)
	}
}

// FreeVarsProc returns the set of variables occurring free in p.
func FreeVarsProc(p Proc) map[string]bool {
	acc := map[string]bool{}
	freeVarsProc(p, acc, map[string]bool{})
	return acc
}

func freeVarsProc(p Proc, acc, bound map[string]bool) {
	collect := func(e Expr) {
		tmp := map[string]bool{}
		FreeVarsExpr(e, tmp)
		for v := range tmp {
			if !bound[v] {
				acc[v] = true
			}
		}
	}
	collectSet := func(s SetExpr) {
		tmp := map[string]bool{}
		FreeVarsSet(s, tmp)
		for v := range tmp {
			if !bound[v] {
				acc[v] = true
			}
		}
	}
	collectItems := func(items []ChanItem) {
		for _, it := range items {
			if it.Sub != nil {
				collect(it.Sub)
			}
			if it.Lo != nil {
				collect(it.Lo)
				collect(it.Hi)
			}
		}
	}
	switch t := p.(type) {
	case Stop:
	case Ref:
		if t.Sub != nil {
			collect(t.Sub)
		}
	case Output:
		if t.Ch.Sub != nil {
			collect(t.Ch.Sub)
		}
		collect(t.Val)
		freeVarsProc(t.Cont, acc, bound)
	case Input:
		if t.Ch.Sub != nil {
			collect(t.Ch.Sub)
		}
		collectSet(t.Dom)
		if bound[t.Var] {
			freeVarsProc(t.Cont, acc, bound)
		} else {
			bound[t.Var] = true
			freeVarsProc(t.Cont, acc, bound)
			delete(bound, t.Var)
		}
	case Alt:
		freeVarsProc(t.L, acc, bound)
		freeVarsProc(t.R, acc, bound)
	case IChoice:
		freeVarsProc(t.L, acc, bound)
		freeVarsProc(t.R, acc, bound)
	case Par:
		freeVarsProc(t.L, acc, bound)
		freeVarsProc(t.R, acc, bound)
		collectItems(t.AlphaL)
		collectItems(t.AlphaR)
	case Hiding:
		collectItems(t.Channels)
		freeVarsProc(t.Body, acc, bound)
	}
}
