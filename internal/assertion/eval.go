package assertion

import (
	"fmt"

	"cspsat/internal/sem"
	"cspsat/internal/trace"
	"cspsat/internal/value"
)

// Ctx is the evaluation context of §3.3: the environment ρ extended with
// the channel histories ch(s). Logic variables are bound through Bind; the
// registry resolves sequence functions and predicates.
type Ctx struct {
	Env   sem.Env
	Hist  trace.History
	Funcs *Registry
}

// NewCtx builds an evaluation context. funcs may be nil when the assertion
// uses no registered functions.
func NewCtx(env sem.Env, hist trace.History, funcs *Registry) *Ctx {
	if funcs == nil {
		funcs = NewRegistry()
	}
	return &Ctx{Env: env, Hist: hist, Funcs: funcs}
}

// Bind returns a context with x ↦ v added (the paper's ρ[v/x]).
func (c *Ctx) Bind(x string, v value.V) *Ctx {
	return &Ctx{Env: c.Env.Bind(x, v), Hist: c.Hist, Funcs: c.Funcs}
}

// EvalTerm evaluates a term to a value under the context.
func EvalTerm(t Term, ctx *Ctx) (value.V, error) {
	switch x := t.(type) {
	case Lit:
		return x.Val, nil
	case VarT:
		v, ok := ctx.Env.LookupVar(x.Name)
		if !ok {
			return value.V{}, fmt.Errorf("assertion: unbound variable %q", x.Name)
		}
		return v, nil
	case ChanT:
		ch, err := evalChanName(x, ctx)
		if err != nil {
			return value.V{}, err
		}
		return value.SeqOf(ctx.Hist.Get(ch)), nil
	case Cons:
		h, err := EvalTerm(x.Head, ctx)
		if err != nil {
			return value.V{}, err
		}
		tl, err := EvalTerm(x.Tail, ctx)
		if err != nil {
			return value.V{}, err
		}
		if tl.Kind() != value.KindSeq {
			return value.V{}, fmt.Errorf("assertion: cons onto non-sequence %v", tl)
		}
		rest := tl.AsSeq()
		out := make([]value.V, 0, len(rest)+1)
		out = append(out, h)
		out = append(out, rest...)
		return value.SeqOf(out), nil
	case SeqLit:
		out := make([]value.V, len(x.Elems))
		for i, e := range x.Elems {
			v, err := EvalTerm(e, ctx)
			if err != nil {
				return value.V{}, err
			}
			out[i] = v
		}
		return value.SeqOf(out), nil
	case Cat:
		l, err := EvalTerm(x.L, ctx)
		if err != nil {
			return value.V{}, err
		}
		r, err := EvalTerm(x.R, ctx)
		if err != nil {
			return value.V{}, err
		}
		if l.Kind() != value.KindSeq || r.Kind() != value.KindSeq {
			return value.V{}, fmt.Errorf("assertion: concatenation of non-sequences %v ++ %v", l, r)
		}
		ls, rs := l.AsSeq(), r.AsSeq()
		out := make([]value.V, 0, len(ls)+len(rs))
		out = append(out, ls...)
		out = append(out, rs...)
		return value.SeqOf(out), nil
	case Len:
		s, err := EvalTerm(x.S, ctx)
		if err != nil {
			return value.V{}, err
		}
		if s.Kind() != value.KindSeq {
			return value.V{}, fmt.Errorf("assertion: # of non-sequence %v", s)
		}
		return value.Int(int64(len(s.AsSeq()))), nil
	case At:
		s, err := EvalTerm(x.S, ctx)
		if err != nil {
			return value.V{}, err
		}
		i, err := EvalTerm(x.Idx, ctx)
		if err != nil {
			return value.V{}, err
		}
		if s.Kind() != value.KindSeq || i.Kind() != value.KindInt {
			return value.V{}, fmt.Errorf("assertion: bad indexing %v[%v]", s, i)
		}
		seq := s.AsSeq()
		idx := i.AsInt()
		if idx < 1 || idx > int64(len(seq)) {
			return value.V{}, fmt.Errorf("assertion: index %d out of range 1..%d", idx, len(seq))
		}
		return seq[idx-1], nil
	case Arith:
		l, err := EvalTerm(x.L, ctx)
		if err != nil {
			return value.V{}, err
		}
		r, err := EvalTerm(x.R, ctx)
		if err != nil {
			return value.V{}, err
		}
		if l.Kind() != value.KindInt || r.Kind() != value.KindInt {
			return value.V{}, fmt.Errorf("assertion: arithmetic on %v %s %v", l, x.Op, r)
		}
		return evalArith(x.Op, l.AsInt(), r.AsInt())
	case Sum:
		lo, hi, err := evalBounds(x.Lo, x.Hi, ctx)
		if err != nil {
			return value.V{}, err
		}
		var acc int64
		for i := lo; i <= hi; i++ {
			v, err := EvalTerm(x.Body, ctx.Bind(x.Var, value.Int(i)))
			if err != nil {
				return value.V{}, err
			}
			if v.Kind() != value.KindInt {
				return value.V{}, fmt.Errorf("assertion: sum body evaluated to non-integer %v", v)
			}
			acc += v.AsInt()
		}
		return value.Int(acc), nil
	case Apply:
		fn, ok := ctx.Funcs.Func(x.Fn)
		if !ok {
			return value.V{}, fmt.Errorf("assertion: unknown function %q", x.Fn)
		}
		args := make([]value.V, len(x.Args))
		for i, a := range x.Args {
			v, err := EvalTerm(a, ctx)
			if err != nil {
				return value.V{}, err
			}
			args[i] = v
		}
		return fn(args)
	case ConstIndex:
		i, err := EvalTerm(x.Sub, ctx)
		if err != nil {
			return value.V{}, err
		}
		arr, ok := ctx.Env.Module().Arrays[x.Name]
		if !ok {
			return value.V{}, fmt.Errorf("assertion: unknown constant array %q", x.Name)
		}
		if i.Kind() != value.KindInt {
			return value.V{}, fmt.Errorf("assertion: non-integer subscript %v for %s", i, x.Name)
		}
		off := i.AsInt() - arr.Lo
		if off < 0 || off >= int64(len(arr.Elems)) {
			return value.V{}, fmt.Errorf("assertion: subscript %d out of range for %s", i.AsInt(), x.Name)
		}
		return value.Int(arr.Elems[off]), nil
	default:
		return value.V{}, fmt.Errorf("assertion: cannot evaluate term %T", t)
	}
}

// ResolveChans returns a with every channel reference whose subscript is
// an integer literal, such as eat[0], replaced by a plain reference to the
// channel it names, so that evaluating the result does not resolve the
// name again on every history. The result renders and evaluates exactly as
// a does; it is a itself when a has no such reference. It is for
// evaluation only: the substitutions of §2.1 match an array reference by
// its subscript.
func ResolveChans(a A) A {
	return rewrite{node: func(t Term, _ bool) Term {
		if x, ok := t.(ChanT); ok && literalSub(x) {
			return ChanT{Name: chanKey(x)}
		}
		return nil
	}}.run(a)
}

func evalChanName(x ChanT, ctx *Ctx) (trace.Chan, error) {
	if x.Sub == nil {
		return trace.Chan(x.Name), nil
	}
	i, err := EvalTerm(x.Sub, ctx)
	if err != nil {
		return "", err
	}
	if i.Kind() != value.KindInt {
		return "", fmt.Errorf("assertion: non-integer channel subscript %v for %s", i, x.Name)
	}
	return trace.Sub(x.Name, i.AsInt()), nil
}

func evalArith(op ArithOp, l, r int64) (value.V, error) {
	switch op {
	case AAdd:
		return value.Int(l + r), nil
	case ASub:
		return value.Int(l - r), nil
	case AMul:
		return value.Int(l * r), nil
	case ADiv:
		if r == 0 {
			return value.V{}, fmt.Errorf("assertion: division by zero")
		}
		return value.Int(l / r), nil
	case AMod:
		if r == 0 {
			return value.V{}, fmt.Errorf("assertion: modulo by zero")
		}
		return value.Int(l % r), nil
	default:
		return value.V{}, fmt.Errorf("assertion: unknown operator %v", op)
	}
}

func evalBounds(lo, hi Term, ctx *Ctx) (int64, int64, error) {
	l, err := EvalTerm(lo, ctx)
	if err != nil {
		return 0, 0, err
	}
	h, err := EvalTerm(hi, ctx)
	if err != nil {
		return 0, 0, err
	}
	if l.Kind() != value.KindInt || h.Kind() != value.KindInt {
		return 0, 0, fmt.Errorf("assertion: non-integer bounds %v..%v", l, h)
	}
	return l.AsInt(), h.AsInt(), nil
}

// Eval evaluates the assertion under the context: the paper's
// (ρ + ch(s))⟦R⟧.
func Eval(a A, ctx *Ctx) (bool, error) {
	switch x := a.(type) {
	case BoolA:
		return x.Val, nil
	case Cmp:
		l, err := EvalTerm(x.L, ctx)
		if err != nil {
			return false, err
		}
		r, err := EvalTerm(x.R, ctx)
		if err != nil {
			return false, err
		}
		return evalCmp(x.Op, l, r)
	case Not:
		b, err := Eval(x.Body, ctx)
		return !b, err
	case And:
		l, err := Eval(x.L, ctx)
		if err != nil {
			return false, err
		}
		if !l {
			return false, nil
		}
		return Eval(x.R, ctx)
	case Or:
		l, err := Eval(x.L, ctx)
		if err != nil {
			return false, err
		}
		if l {
			return true, nil
		}
		return Eval(x.R, ctx)
	case Implies:
		l, err := Eval(x.L, ctx)
		if err != nil {
			return false, err
		}
		if !l {
			return true, nil
		}
		return Eval(x.R, ctx)
	case ForAllSet:
		dom, err := ctx.Env.EvalSet(x.Dom)
		if err != nil {
			return false, err
		}
		for _, v := range dom.Enumerate() {
			b, err := Eval(x.Body, ctx.Bind(x.Var, v))
			if err != nil {
				return false, err
			}
			if !b {
				return false, nil
			}
		}
		return true, nil
	case ExistsSet:
		dom, err := ctx.Env.EvalSet(x.Dom)
		if err != nil {
			return false, err
		}
		for _, v := range dom.Enumerate() {
			b, err := Eval(x.Body, ctx.Bind(x.Var, v))
			if err != nil {
				return false, err
			}
			if b {
				return true, nil
			}
		}
		return false, nil
	case ForAllRange:
		lo, hi, err := evalBounds(x.Lo, x.Hi, ctx)
		if err != nil {
			return false, err
		}
		for i := lo; i <= hi; i++ {
			b, err := Eval(x.Body, ctx.Bind(x.Var, value.Int(i)))
			if err != nil {
				return false, err
			}
			if !b {
				return false, nil
			}
		}
		return true, nil
	case ExistsRange:
		lo, hi, err := evalBounds(x.Lo, x.Hi, ctx)
		if err != nil {
			return false, err
		}
		for i := lo; i <= hi; i++ {
			b, err := Eval(x.Body, ctx.Bind(x.Var, value.Int(i)))
			if err != nil {
				return false, err
			}
			if b {
				return true, nil
			}
		}
		return false, nil
	case Pred:
		p, ok := ctx.Funcs.Pred(x.Name)
		if !ok {
			return false, fmt.Errorf("assertion: unknown predicate %q", x.Name)
		}
		args := make([]value.V, len(x.Args))
		for i, t := range x.Args {
			v, err := EvalTerm(t, ctx)
			if err != nil {
				return false, err
			}
			args[i] = v
		}
		return p(args)
	case DeadlockFree, Offers:
		// Behavioural forms are about refusals, not histories; they are
		// discharged by the failures-model checker, never by Eval.
		return false, fmt.Errorf("assertion: %s is a behavioural (refusal-level) form; it needs the failures model, not a history evaluation", a)
	default:
		return false, fmt.Errorf("assertion: cannot evaluate formula %T", a)
	}
}

func evalCmp(op CmpOp, l, r value.V) (bool, error) {
	// Sequences: == and != compare whole sequences; <= and < are the
	// paper's prefix order (strict prefix for <); > and >= are the
	// reversed prefix order.
	if l.Kind() == value.KindSeq && r.Kind() == value.KindSeq {
		ls, rs := l.AsSeq(), r.AsSeq()
		switch op {
		case CEq:
			return l.Equal(r), nil
		case CNe:
			return !l.Equal(r), nil
		case CLe:
			return trace.IsPrefixSeq(ls, rs), nil
		case CLt:
			return len(ls) < len(rs) && trace.IsPrefixSeq(ls, rs), nil
		case CGe:
			return trace.IsPrefixSeq(rs, ls), nil
		case CGt:
			return len(rs) < len(ls) && trace.IsPrefixSeq(rs, ls), nil
		}
	}
	if l.Kind() == value.KindInt && r.Kind() == value.KindInt {
		a, b := l.AsInt(), r.AsInt()
		switch op {
		case CEq:
			return a == b, nil
		case CNe:
			return a != b, nil
		case CLt:
			return a < b, nil
		case CLe:
			return a <= b, nil
		case CGt:
			return a > b, nil
		case CGe:
			return a >= b, nil
		}
	}
	switch op {
	case CEq:
		return l.Equal(r), nil
	case CNe:
		return !l.Equal(r), nil
	}
	return false, fmt.Errorf("assertion: cannot compare %v %s %v", l, op, r)
}
