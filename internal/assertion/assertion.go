package assertion

import (
	"fmt"
	"strings"

	"cspsat/internal/syntax"
)

// A is an assertion (formula) of §2: a predicate over channel histories.
// "P sat A" means A is true before and after every communication by P.
type A interface {
	assertNode()
	String() string
}

// BoolA is the constant true or false.
type BoolA struct{ Val bool }

// CmpOp enumerates comparison operators. LE and others are
// kind-polymorphic the way the paper overloads ≤: on integers they compare
// numerically; LE on two sequences is the prefix order s ≤ t of §2.
type CmpOp int

// Comparison operators.
const (
	CEq CmpOp = iota + 1
	CNe
	CLt
	CLe
	CGt
	CGe
)

func (op CmpOp) String() string {
	switch op {
	case CEq:
		return "=="
	case CNe:
		return "!="
	case CLt:
		return "<"
	case CLe:
		return "<="
	case CGt:
		return ">"
	case CGe:
		return ">="
	default:
		return "?"
	}
}

// Cmp compares two terms.
type Cmp struct {
	Op   CmpOp
	L, R Term
}

// Not is logical negation.
type Not struct{ Body A }

// And is conjunction.
type And struct{ L, R A }

// Or is disjunction.
type Or struct{ L, R A }

// Implies is implication.
type Implies struct{ L, R A }

// ForAllSet quantifies Var over a finite (or sampled) message set, e.g.
// ∀x∈M. R. The domain is a syntax-level set expression evaluated under the
// ambient environment.
type ForAllSet struct {
	Var  string
	Dom  syntax.SetExpr
	Body A
}

// ExistsSet is the dual of ForAllSet.
type ExistsSet struct {
	Var  string
	Dom  syntax.SetExpr
	Body A
}

// ForAllRange quantifies Var over the integer interval [Lo, Hi], whose
// bounds are terms (so they may mention channel histories, as in the
// multiplier invariant ∀i: 1 ≤ i ≤ #output). An empty interval makes the
// formula vacuously true.
type ForAllRange struct {
	Var    string
	Lo, Hi Term
	Body   A
}

// ExistsRange is the dual of ForAllRange.
type ExistsRange struct {
	Var    string
	Lo, Hi Term
	Body   A
}

// Pred applies a registered boolean predicate to argument terms, the escape
// hatch for properties outside the first-order fragment.
type Pred struct {
	Name string
	Args []Term
}

func (BoolA) assertNode()       {}
func (Cmp) assertNode()         {}
func (Not) assertNode()         {}
func (And) assertNode()         {}
func (Or) assertNode()          {}
func (Implies) assertNode()     {}
func (ForAllSet) assertNode()   {}
func (ExistsSet) assertNode()   {}
func (ForAllRange) assertNode() {}
func (ExistsRange) assertNode() {}
func (Pred) assertNode()        {}

func (a BoolA) String() string {
	if a.Val {
		return "true"
	}
	return "false"
}
func (a Cmp) String() string { return a.L.String() + " " + a.Op.String() + " " + a.R.String() }
func (a Not) String() string { return "!(" + a.Body.String() + ")" }
func (a And) String() string { return "(" + a.L.String() + " & " + a.R.String() + ")" }
func (a Or) String() string  { return "(" + a.L.String() + " or " + a.R.String() + ")" }
func (a Implies) String() string {
	return "(" + a.L.String() + " => " + a.R.String() + ")"
}
func (a ForAllSet) String() string {
	return "forall " + a.Var + " in " + a.Dom.String() + ". " + a.Body.String()
}
func (a ExistsSet) String() string {
	return "exists " + a.Var + " in " + a.Dom.String() + ". " + a.Body.String()
}
func (a ForAllRange) String() string {
	return fmt.Sprintf("forall %s:%s..%s. %s", a.Var, a.Lo, a.Hi, a.Body)
}
func (a ExistsRange) String() string {
	return fmt.Sprintf("exists %s:%s..%s. %s", a.Var, a.Lo, a.Hi, a.Body)
}
func (a Pred) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Name + "(" + strings.Join(parts, ",") + ")"
}

// Convenience constructors.

// True is the constant true assertion.
func True() A { return BoolA{Val: true} }

// PrefixLE returns l ≤ r on sequences (the paper's most common assertion
// shape, "wire ≤ input").
func PrefixLE(l, r Term) A { return Cmp{Op: CLe, L: l, R: r} }

// Eq returns l == r.
func Eq(l, r Term) A { return Cmp{Op: CEq, L: l, R: r} }
