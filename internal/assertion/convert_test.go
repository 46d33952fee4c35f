package assertion_test

import (
	"reflect"
	"testing"

	"cspsat/internal/assertion"
	"cspsat/internal/syntax"
	"cspsat/internal/value"
)

func TestExprTermRoundTrip(t *testing.T) {
	exprs := []syntax.Expr{
		syntax.IntLit{Val: 7},
		syntax.SymLit{Name: "ACK"},
		syntax.Var{Name: "x"},
		syntax.Binary{Op: syntax.OpAdd,
			L: syntax.Binary{Op: syntax.OpMul, L: syntax.Index{Name: "v", Sub: syntax.Var{Name: "i"}}, R: syntax.Var{Name: "x"}},
			R: syntax.Var{Name: "y"}},
	}
	for _, e := range exprs {
		term, err := assertion.ExprToTerm(e)
		if err != nil {
			t.Fatalf("ExprToTerm(%s): %v", e, err)
		}
		back, err := assertion.TermToExpr(term)
		if err != nil {
			t.Fatalf("TermToExpr(%s): %v", term, err)
		}
		if !reflect.DeepEqual(e, back) {
			t.Errorf("round trip changed %s into %s", e, back)
		}
	}
	// Terms outside the shared fragment do not project.
	if _, err := assertion.TermToExpr(assertion.Len{S: assertion.Chan("wire")}); err == nil {
		t.Error("#wire projected into the process language")
	}
	if _, err := assertion.TermToExpr(assertion.Lit{Val: value.Seq()}); err == nil {
		t.Error("sequence literal projected")
	}
}
