package assertion

import (
	"fmt"

	"cspsat/internal/syntax"
	"cspsat/internal/value"
)

// ExprToTerm embeds a process-language expression into the assertion
// language (the output rule substitutes the transmitted expression e into
// R). The two languages share constants, variables, arithmetic and constant
// arrays, so the embedding is total.
func ExprToTerm(e syntax.Expr) (Term, error) {
	switch x := e.(type) {
	case syntax.IntLit:
		return Int(x.Val), nil
	case syntax.SymLit:
		return Sym(x.Name), nil
	case syntax.Var:
		return Var(x.Name), nil
	case syntax.Binary:
		l, err := ExprToTerm(x.L)
		if err != nil {
			return nil, err
		}
		r, err := ExprToTerm(x.R)
		if err != nil {
			return nil, err
		}
		op, err := arithOp(x.Op)
		if err != nil {
			return nil, err
		}
		return Arith{Op: op, L: l, R: r}, nil
	case syntax.Index:
		sub, err := ExprToTerm(x.Sub)
		if err != nil {
			return nil, err
		}
		return ConstIndex{Name: x.Name, Sub: sub}, nil
	default:
		return nil, fmt.Errorf("assertion: cannot embed expression %v into the assertion language", e)
	}
}

// TermToExpr projects an assertion term back into the process language,
// when it lies in the shared fragment (∀-elimination substitutes terms into
// process subscripts, and SubstVar into the set of a ∀z∈S).
func TermToExpr(t Term) (syntax.Expr, error) {
	switch x := t.(type) {
	case Lit:
		switch x.Val.Kind() {
		case value.KindInt:
			return syntax.IntLit{Val: x.Val.AsInt()}, nil
		case value.KindSym:
			return syntax.SymLit{Name: x.Val.AsSym()}, nil
		default:
			return nil, fmt.Errorf("assertion: literal %v has no process-language form", x.Val)
		}
	case VarT:
		return syntax.Var{Name: x.Name}, nil
	case Arith:
		l, err := TermToExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := TermToExpr(x.R)
		if err != nil {
			return nil, err
		}
		op, err := binOp(x.Op)
		if err != nil {
			return nil, err
		}
		return syntax.Binary{Op: op, L: l, R: r}, nil
	case ConstIndex:
		sub, err := TermToExpr(x.Sub)
		if err != nil {
			return nil, err
		}
		return syntax.Index{Name: x.Name, Sub: sub}, nil
	default:
		return nil, fmt.Errorf("assertion: term %s has no process-language form", t)
	}
}

func arithOp(op syntax.BinOp) (ArithOp, error) {
	switch op {
	case syntax.OpAdd:
		return AAdd, nil
	case syntax.OpSub:
		return ASub, nil
	case syntax.OpMul:
		return AMul, nil
	case syntax.OpDiv:
		return ADiv, nil
	case syntax.OpMod:
		return AMod, nil
	default:
		return 0, fmt.Errorf("assertion: unknown operator %v", op)
	}
}

func binOp(op ArithOp) (syntax.BinOp, error) {
	switch op {
	case AAdd:
		return syntax.OpAdd, nil
	case ASub:
		return syntax.OpSub, nil
	case AMul:
		return syntax.OpMul, nil
	case ADiv:
		return syntax.OpDiv, nil
	case AMod:
		return syntax.OpMod, nil
	default:
		return 0, fmt.Errorf("assertion: unknown operator %v", op)
	}
}
