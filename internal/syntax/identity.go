package syntax

import "strconv"

// Structural identity of process terms. The op engine keys its state table
// by Hash and settles collisions with Equal instead of rendering every
// state: both read a term in place and allocate nothing. They tell terms
// apart exactly as String does — Equal(p, q) holds when p.String() ==
// q.String(), and then Hash(p) == Hash(q). Where the renderer drops
// structure, they compare what it prints:
//
//   - a symbolic constant, a variable and an integer literal that print
//     the same token are equal;
//   - a set union prints without parentheses, so its grouping is ignored;
//   - a composition prints its alphabets only when either is given, and an
//     empty list prints like an absent one beside it;
//   - a channel item prints only the fields its form uses.
//
// Names other than identifiers and numerals are assumed not to print like
// a compound expression, which holds for everything the parser and value
// substitution build.

// Node tags keep the hashes of different forms apart.
const (
	tagStop uint64 = iota + 1
	tagRef
	tagOutput
	tagInput
	tagAlt
	tagIChoice
	tagPar
	tagParAlpha
	tagHiding
	tagAtom
	tagBinary
	tagIndex
	tagNoSub
	tagSetName
	tagRange
	tagEnum
	tagUnion
	tagItem
	tagItemRange
)

const hashSeed uint64 = 14695981039346656037

// mixWord folds v into h.
func mixWord(h, v uint64) uint64 {
	h ^= v
	h *= 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// mixString folds s, then its length, into h.
func mixString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return mixWord(h, uint64(len(s)))
}

// Hash returns a hash of p that is equal for terms Equal calls equal.
func Hash(p Proc) uint64 { return hashProc(hashSeed, p) }

func hashProc(h uint64, p Proc) uint64 {
	switch t := p.(type) {
	case Stop:
		return mixWord(h, tagStop)
	case Ref:
		return hashSub(mixString(mixWord(h, tagRef), t.Name), t.Sub)
	case Output:
		h = hashChanRef(mixWord(h, tagOutput), t.Ch)
		return hashProc(hashExpr(h, t.Val), t.Cont)
	case Input:
		h = hashChanRef(mixWord(h, tagInput), t.Ch)
		h = hashSet(mixString(h, t.Var), t.Dom)
		return hashProc(h, t.Cont)
	case Alt:
		return hashProc(hashProc(mixWord(h, tagAlt), t.L), t.R)
	case IChoice:
		return hashProc(hashProc(mixWord(h, tagIChoice), t.L), t.R)
	case Par:
		h = hashProc(hashProc(mixWord(h, tagPar), t.L), t.R)
		if t.AlphaL == nil && t.AlphaR == nil {
			return h
		}
		return hashItems(hashItems(mixWord(h, tagParAlpha), t.AlphaL), t.AlphaR)
	case Hiding:
		return hashProc(hashItems(mixWord(h, tagHiding), t.Channels), t.Body)
	default:
		return h
	}
}

func hashExpr(h uint64, e Expr) uint64 {
	switch t := e.(type) {
	case IntLit:
		return mixWord(mixWord(h, tagAtom), uint64(t.Val))
	case SymLit:
		return hashName(h, t.Name)
	case Var:
		return hashName(h, t.Name)
	case Binary:
		return hashExpr(hashExpr(mixWord(mixWord(h, tagBinary), uint64(t.Op)), t.L), t.R)
	case Index:
		return hashExpr(mixString(mixWord(h, tagIndex), t.Name), t.Sub)
	default:
		return h
	}
}

// hashName hashes a symbolic constant or variable as the atom it prints
// as: a numeral hashes like the integer literal of the same text.
func hashName(h uint64, name string) uint64 {
	if v, ok := numeral(name); ok {
		return mixWord(mixWord(h, tagAtom), uint64(v))
	}
	return mixString(mixWord(h, tagAtom), name)
}

// hashSub hashes an optional subscript.
func hashSub(h uint64, e Expr) uint64 {
	if e == nil {
		return mixWord(h, tagNoSub)
	}
	return hashExpr(h, e)
}

func hashChanRef(h uint64, c ChanRef) uint64 { return hashSub(mixString(h, c.Name), c.Sub) }

// hashSet hashes a set as the sequence of its union's operands, so that
// unions grouped differently hash alike.
func hashSet(h uint64, s SetExpr) uint64 {
	switch t := s.(type) {
	case SetName:
		return mixString(mixWord(h, tagSetName), t.Name)
	case RangeSet:
		return hashExpr(hashExpr(mixWord(h, tagRange), t.Lo), t.Hi)
	case EnumSet:
		h = mixWord(mixWord(h, tagEnum), uint64(len(t.Elems)))
		for _, e := range t.Elems {
			h = hashExpr(h, e)
		}
		return h
	case UnionSet:
		return hashSet(mixWord(hashSet(h, t.A), tagUnion), t.B)
	default:
		return h
	}
}

// HashExprs returns a hash of a list of expressions that is equal for
// lists that print alike.
func HashExprs(es []Expr) uint64 {
	h := mixWord(hashSeed, uint64(len(es)))
	for _, e := range es {
		h = hashExpr(h, e)
	}
	return h
}

// HashItems returns a hash of a channel list that is equal for lists that
// print alike.
func HashItems(items []ChanItem) uint64 { return hashItems(hashSeed, items) }

func hashItems(h uint64, items []ChanItem) uint64 {
	h = mixWord(h, uint64(len(items)))
	for _, it := range items {
		switch {
		case it.Lo != nil:
			h = hashExpr(hashExpr(mixString(mixWord(h, tagItemRange), it.Name), it.Lo), it.Hi)
		default:
			h = hashSub(mixString(mixWord(h, tagItem), it.Name), it.Sub)
		}
	}
	return h
}

// Equal reports whether p and q render alike, without rendering them.
func Equal(p, q Proc) bool {
	switch t := p.(type) {
	case Stop:
		_, ok := q.(Stop)
		return ok
	case Ref:
		u, ok := q.(Ref)
		return ok && t.Name == u.Name && subEqual(t.Sub, u.Sub)
	case Output:
		u, ok := q.(Output)
		return ok && chanRefEqual(t.Ch, u.Ch) && exprEqual(t.Val, u.Val) && Equal(t.Cont, u.Cont)
	case Input:
		u, ok := q.(Input)
		return ok && chanRefEqual(t.Ch, u.Ch) && t.Var == u.Var && setEqual(t.Dom, u.Dom) && Equal(t.Cont, u.Cont)
	case Alt:
		u, ok := q.(Alt)
		return ok && Equal(t.L, u.L) && Equal(t.R, u.R)
	case IChoice:
		u, ok := q.(IChoice)
		return ok && Equal(t.L, u.L) && Equal(t.R, u.R)
	case Par:
		u, ok := q.(Par)
		if !ok || (t.AlphaL == nil && t.AlphaR == nil) != (u.AlphaL == nil && u.AlphaR == nil) {
			return false
		}
		return itemsEqual(t.AlphaL, u.AlphaL) && itemsEqual(t.AlphaR, u.AlphaR) && Equal(t.L, u.L) && Equal(t.R, u.R)
	case Hiding:
		u, ok := q.(Hiding)
		return ok && itemsEqual(t.Channels, u.Channels) && Equal(t.Body, u.Body)
	default:
		return false
	}
}

func exprEqual(e, f Expr) bool {
	switch t := e.(type) {
	case IntLit:
		switch u := f.(type) {
		case IntLit:
			return t.Val == u.Val
		case SymLit:
			return printsAs(t.Val, u.Name)
		case Var:
			return printsAs(t.Val, u.Name)
		}
	case SymLit:
		return nameEqual(t.Name, f)
	case Var:
		return nameEqual(t.Name, f)
	case Binary:
		u, ok := f.(Binary)
		return ok && t.Op == u.Op && exprEqual(t.L, u.L) && exprEqual(t.R, u.R)
	case Index:
		u, ok := f.(Index)
		return ok && t.Name == u.Name && exprEqual(t.Sub, u.Sub)
	}
	return false
}

// nameEqual reports whether f prints as name.
func nameEqual(name string, f Expr) bool {
	switch u := f.(type) {
	case SymLit:
		return u.Name == name
	case Var:
		return u.Name == name
	case IntLit:
		return printsAs(u.Val, name)
	}
	return false
}

// numeral reports whether name is the decimal text of an integer literal.
func numeral(name string) (int64, bool) {
	if name == "" || (name[0] != '-' && (name[0] < '0' || name[0] > '9')) {
		return 0, false
	}
	v, err := strconv.ParseInt(name, 10, 64)
	return v, err == nil && printsAs(v, name)
}

// printsAs reports whether the integer literal v prints as name.
func printsAs(v int64, name string) bool {
	var buf [20]byte
	return string(strconv.AppendInt(buf[:0], v, 10)) == name
}

func subEqual(e, f Expr) bool {
	if e == nil || f == nil {
		return e == nil && f == nil
	}
	return exprEqual(e, f)
}

func chanRefEqual(c, d ChanRef) bool { return c.Name == d.Name && subEqual(c.Sub, d.Sub) }

// setEqual compares sets as the sequences of their union's operands.
func setEqual(s, t SetExpr) bool {
	var sb, tb [8]SetExpr
	ss, ts := unionOperands(sb[:0], s), unionOperands(tb[:0], t)
	if len(ss) != len(ts) {
		return false
	}
	for i := range ss {
		if !setLeafEqual(ss[i], ts[i]) {
			return false
		}
	}
	return true
}

// unionOperands appends the operands of s's unions, left to right.
func unionOperands(dst []SetExpr, s SetExpr) []SetExpr {
	if u, ok := s.(UnionSet); ok {
		return unionOperands(unionOperands(dst, u.A), u.B)
	}
	return append(dst, s)
}

func setLeafEqual(s, t SetExpr) bool {
	switch a := s.(type) {
	case SetName:
		b, ok := t.(SetName)
		return ok && a.Name == b.Name
	case RangeSet:
		b, ok := t.(RangeSet)
		return ok && exprEqual(a.Lo, b.Lo) && exprEqual(a.Hi, b.Hi)
	case EnumSet:
		b, ok := t.(EnumSet)
		if !ok || len(a.Elems) != len(b.Elems) {
			return false
		}
		for i := range a.Elems {
			if !exprEqual(a.Elems[i], b.Elems[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// itemsEqual compares channel lists as printed; an absent list prints like
// an empty one.
func itemsEqual(a, b []ChanItem) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Name != y.Name || (x.Lo != nil) != (y.Lo != nil) {
			return false
		}
		if x.Lo != nil {
			if !exprEqual(x.Lo, y.Lo) || !exprEqual(x.Hi, y.Hi) {
				return false
			}
		} else if !subEqual(x.Sub, y.Sub) {
			return false
		}
	}
	return true
}
