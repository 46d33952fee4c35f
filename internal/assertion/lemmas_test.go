package assertion_test

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"cspsat/internal/assertion"
	"cspsat/internal/sem"
	"cspsat/internal/syntax"
	"cspsat/internal/trace"
	"cspsat/internal/value"
)

// The paper's §3.4 lemmas (a)–(d) relate substitution into formulas with
// modification of the evaluation environment. These property tests check
// them on randomly generated histories and a representative family of
// assertions — the semantic facts on which the soundness of the output,
// input, emptiness and chan rules rests.

// qhist generates random histories over channels wire/input/output with
// small integer messages.
type qhist struct{ H trace.History }

// Generate implements quick.Generator.
func (qhist) Generate(r *rand.Rand, _ int) reflect.Value {
	h := make(trace.History)
	for _, c := range []trace.Chan{"wire", "input", "output"} {
		n := r.Intn(4)
		for i := 0; i < n; i++ {
			h[c] = append(h[c], value.Int(int64(r.Intn(3))))
		}
	}
	return reflect.ValueOf(qhist{H: h})
}

// sampleAssertions is a family of formulas exercising every term form that
// substitution must handle.
func sampleAssertions() []assertion.A {
	w, in := assertion.Chan("wire"), assertion.Chan("input")
	return []assertion.A{
		assertion.PrefixLE(w, in),
		assertion.Cmp{Op: assertion.CLe,
			L: assertion.Len{S: in},
			R: assertion.Arith{Op: assertion.AAdd, L: assertion.Len{S: w}, R: assertion.Int(1)}},
		assertion.Implies{
			L: assertion.PrefixLE(w, in),
			R: assertion.PrefixLE(assertion.Cons{Head: assertion.Int(1), Tail: w},
				assertion.Cons{Head: assertion.Int(1), Tail: in})},
		assertion.ForAllRange{Var: "i", Lo: assertion.Int(1), Hi: assertion.Len{S: w},
			Body: assertion.Cmp{Op: assertion.CGe,
				L: assertion.At{S: w, Idx: assertion.Var("i")}, R: assertion.Int(0)}},
		assertion.PrefixLE(assertion.Apply{Fn: "f", Args: []assertion.Term{w}}, in),
	}
}

func evalUnder(t *testing.T, a assertion.A, h trace.History) bool {
	t.Helper()
	ctx := assertion.NewCtx(sem.NewEnv(syntax.NewModule(), 3), h, nil)
	got, err := assertion.Eval(a, ctx)
	if err != nil {
		t.Fatalf("eval %s under %s: %v", a, h, err)
	}
	return got
}

// Lemma (b): (ρ + ch(<>))⟦R⟧ = ρ⟦R_<>⟧ — evaluating R under empty
// histories equals evaluating the channel-erased R under anything.
func TestLemmaB_EmptySubstitution(t *testing.T) {
	for _, a := range sampleAssertions() {
		erased := assertion.EmptyAllChans(a)
		emptyVal := evalUnder(t, a, trace.History{})
		if err := quick.Check(func(q qhist) bool {
			return evalUnder(t, erased, q.H) == emptyVal
		}, nil); err != nil {
			t.Errorf("lemma (b) fails for %s: %v", a, err)
		}
	}
}

// Lemma (c): (ρ + ch(s))⟦R[e⌢c/c]⟧ = (ρ + ch((c.e)⌢s))⟦R⟧ — substituting
// e⌢c for c in the formula equals prepending the communication c.e to the
// history.
func TestLemmaC_ConsSubstitution(t *testing.T) {
	for _, a := range sampleAssertions() {
		for _, ch := range []trace.Chan{"wire", "input"} {
			for _, v := range []int64{0, 2} {
				subst, err := assertion.SubstChanCons(a, ch, assertion.Int(v))
				if err != nil {
					t.Fatalf("SubstChanCons: %v", err)
				}
				if err := quick.Check(func(q qhist) bool {
					lhs := evalUnder(t, subst, q.H)
					prepended := q.H.Clone()
					prepended[ch] = append([]value.V{value.Int(v)}, prepended[ch]...)
					rhs := evalUnder(t, a, prepended)
					return lhs == rhs
				}, nil); err != nil {
					t.Errorf("lemma (c) fails for %s, channel %s, value %d: %v", a, ch, v, err)
				}
			}
		}
	}
}

// Lemma (a): (ρ + ch(s))⟦R[v/x]⟧ = (ρ[v/x] + ch(s))⟦R⟧ — substituting a
// value literal for a variable equals binding the variable.
func TestLemmaA_VarSubstitution(t *testing.T) {
	w, in := assertion.Chan("wire"), assertion.Chan("input")
	withX := assertion.Implies{
		L: assertion.PrefixLE(w, in),
		R: assertion.PrefixLE(
			assertion.Cons{Head: assertion.Var("x"), Tail: w},
			assertion.Cons{Head: assertion.Var("x"), Tail: in}),
	}
	for _, v := range []int64{0, 1, 5} {
		subst, err := assertion.SubstVar(withX, "x", assertion.Int(v))
		if err != nil {
			t.Fatalf("SubstVar: %v", err)
		}
		if err := quick.Check(func(q qhist) bool {
			lhs := evalUnder(t, subst, q.H)
			ctx := assertion.NewCtx(sem.NewEnv(syntax.NewModule(), 3), q.H, nil).
				Bind("x", value.Int(v))
			rhs, err := assertion.Eval(withX, ctx)
			if err != nil {
				return false
			}
			return lhs == rhs
		}, nil); err != nil {
			t.Errorf("lemma (a) fails for x=%d: %v", v, err)
		}
	}
}

// Lemma (d): if R mentions no channel of C, then
// (ρ + ch(s))⟦R⟧ = (ρ + ch(s\C))⟦R⟧ — hiding unmentioned channels does not
// change R's truth. This underpins the chan rule.
func TestLemmaD_HidingUnmentioned(t *testing.T) {
	// R mentions only wire and input; hide output.
	hidden := trace.NewSet("output")
	for _, a := range sampleAssertions() {
		if assertion.FreeChans(a)["output"] {
			continue
		}
		if err := quick.Check(func(q qhist) bool {
			lhs := evalUnder(t, a, q.H)
			restricted := q.H.Clone()
			delete(restricted, "output")
			_ = hidden
			rhs := evalUnder(t, a, restricted)
			return lhs == rhs
		}, nil); err != nil {
			t.Errorf("lemma (d) fails for %s: %v", a, err)
		}
	}
}
