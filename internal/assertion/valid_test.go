package assertion

import (
	"context"
	"errors"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"cspsat/internal/csperr"
	"cspsat/internal/sem"
	"cspsat/internal/syntax"
	"cspsat/internal/value"
)

// TestValidMatchesReference pins Valid to validRef, the exhaustive
// enumeration it replaced: on every generated obligation the two must
// agree on the verdict, on the counterexample (its rendering and its
// history and assignment) and on the error text. The generator mixes
// implications, whose antecedent conjuncts the search evaluates early, with
// formulas that are not implications.
func TestValidMatchesReference(t *testing.T) {
	env := validEnv()
	var implications, valid, refuted, failed int
	for seed := range uint64(1200) {
		ob := genObligation(rand.New(rand.NewPCG(seed, 0x5eed)), env)
		if _, ok := ob.a.(Implies); ok {
			implications++
		}
		cex, err := checkAgainstRef(t, ob)
		switch {
		case err != nil:
			failed++
		case cex != nil:
			refuted++
		default:
			valid++
		}
	}
	t.Logf("%d obligations, %d implications: %d valid, %d refuted, %d erroring", 1200, implications, valid, refuted, failed)
	if implications < 1000 || valid < 100 || refuted < 100 || failed < 100 {
		t.Fatalf("generator drifted: %d implications, %d valid, %d refuted, %d erroring", implications, valid, refuted, failed)
	}
}

// FuzzValid runs the comparison of TestValidMatchesReference on the
// obligation a seed generates.
func FuzzValid(f *testing.F) {
	for _, seed := range []uint64{0, 1, 7, 42, 1 << 40} {
		f.Add(seed)
	}
	env := validEnv()
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkAgainstRef(t, genObligation(rand.New(rand.NewPCG(seed, 0x5eed)), env))
	})
}

// TestValidConstIndexSubscript pins formulas whose only reference to a
// channel is inside a constant-array subscript. K[#a] depends on a, so
// Valid enumerates a, and K[1] = 0 refutes the first two at a=<0>. A
// channel subscripted symbolically there, as d in K[#d[#a]], cannot be
// enumerated, as anywhere else.
func TestValidConstIndexSubscript(t *testing.T) {
	lenOf := func(ch Term) Term { return Len{S: ch} }
	for _, c := range []struct {
		a    A
		want string
	}{
		{Cmp{Op: CEq, L: ConstIndex{Name: "K", Sub: lenOf(Chan("a"))}, R: Int(1)}, "a=<0>"},
		{Implies{
			L: Cmp{Op: CEq, L: ConstIndex{Name: "K", Sub: lenOf(Chan("a"))}, R: Int(0)},
			R: Cmp{Op: CEq, L: lenOf(Chan("a")), R: Int(0)},
		}, "a=<0>"},
		{Implies{
			L: Cmp{Op: CEq, L: ConstIndex{Name: "K", Sub: lenOf(ChanIdx("d", lenOf(Chan("a"))))}, R: Int(0)},
			R: Cmp{Op: CLt, L: lenOf(ChanIdx("d", Int(1))), R: lenOf(Chan("a"))},
		}, "assertion: symbolically subscripted channel d[*]; bounded validity cannot enumerate it"},
	} {
		cex, err := checkAgainstRef(t, obligation{a: c.a, cfg: ValidityConfig{Env: validEnv(), MaxLen: 1, DefaultDom: value.IntRange{Lo: 0, Hi: 0}}})
		got := "valid"
		switch {
		case err != nil:
			got = err.Error()
		case cex != nil:
			got = cex.String()
		}
		if got != c.want {
			t.Errorf("Valid(%s) = %s, want %s", c.a, got, c.want)
		}
	}
}

// validEnv is the environment of the generated obligations: NAT width 2
// and the constant array K = [1, 0], indexed from 0, so that subscripts
// such as K[#a] depend on a channel.
func validEnv() sem.Env {
	m := syntax.NewModule()
	m.DefineArray(syntax.ValueArray{Name: "K", Lo: 0, Elems: []int64{1, 0}})
	return sem.NewEnv(m, 2)
}

func checkAgainstRef(t *testing.T, ob obligation) (*Counterexample, error) {
	t.Helper()
	wantCex, wantErr := validRef(ob.a, ob.cfg)
	cex, err := Valid(context.Background(), ob.a, ob.cfg)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("%s (maxlen %d): error %v, reference %v", ob.a, ob.cfg.MaxLen, err, wantErr)
	}
	if (cex == nil) != (wantCex == nil) {
		t.Fatalf("%s (maxlen %d): counterexample %v, reference %v", ob.a, ob.cfg.MaxLen, cex, wantCex)
	}
	if cex != nil && (cex.String() != wantCex.String() || !reflect.DeepEqual(cex.Hist, wantCex.Hist) || !reflect.DeepEqual(cex.Vars, wantCex.Vars)) {
		t.Fatalf("%s (maxlen %d): counterexample %s, reference %s", ob.a, ob.cfg.MaxLen, cex, wantCex)
	}
	return cex, err
}

// TestValidCanceled checks that Valid gives up soon after its context is
// done, on an obligation the search cannot prune: 3,796,416 cases over the
// server's default domain at maxlen 3.
func TestValidCanceled(t *testing.T) {
	env := sem.NewEnv(syntax.NewModule(), 3)
	cfg := ValidityConfig{
		Env:        env,
		MaxLen:     3,
		DefaultDom: value.Union{A: value.Nat{SampleWidth: 3}, B: value.NewEnum(value.Sym("ACK"), value.Sym("NACK"))},
	}
	a := Cmp{Op: CGe, L: Arith{Op: AAdd, L: Arith{Op: AAdd, L: Len{S: Chan("a")}, R: Len{S: Chan("b")}}, R: Len{S: Chan("c")}}, R: Int(0)}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := Valid(ctx, a, cfg)
	if took := time.Since(start); took > 250*time.Millisecond {
		t.Errorf("Valid returned %v after its 20ms deadline", took)
	}
	if !errors.Is(err, csperr.ErrCanceled) {
		t.Fatalf("Valid: got %v, want an error wrapping ErrCanceled", err)
	}
}

// obligation is one generated bounded-validity problem.
type obligation struct {
	a   A
	cfg ValidityConfig
}

// genObligation draws a formula over two or three of the channels a, b, c
// and d[1] and one or two of the variables x and y, with domains that mix
// integers and symbols and a case space small enough for validRef. Its
// terms may subscript env's constant array K.
func genObligation(r *rand.Rand, env sem.Env) obligation {
	mixed := value.Union{A: value.IntRange{Lo: 0, Hi: 1}, B: value.NewEnum(value.Sym("ACK"))}
	doms := []value.Domain{value.IntRange{Lo: 0, Hi: 1}, mixed}
	g := &gen{r: r}
	all := []Term{Chan("a"), Chan("b"), Chan("c"), ChanIdx("d", Int(1))}
	r.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	g.chans = all[:2+r.IntN(2)]
	g.vars = []string{"x", "y"}[:1+r.IntN(2)]
	if len(g.chans) == 3 {
		g.vars = g.vars[:1]
	}
	cfg := ValidityConfig{
		Env:        env,
		MaxLen:     2,
		DefaultDom: mixed,
		ChanDom:    map[string]value.Domain{},
		VarDom:     map[string]value.Domain{},
	}
	wide := false
	for _, c := range g.chans {
		k := r.IntN(2)
		wide = wide || k == 1
		cfg.ChanDom[c.String()] = doms[k]
	}
	for _, v := range g.vars {
		cfg.VarDom[v] = []value.Domain{mixed, value.NewEnum(value.Int(0), value.Sym("NACK"))}[r.IntN(2)]
	}
	if len(g.chans) == 2 && !wide && r.IntN(2) == 0 {
		cfg.MaxLen = 3
	}
	if r.IntN(8) == 0 {
		return obligation{a: g.formula(2), cfg: cfg}
	}
	var ante A = g.atom(2)
	for range r.IntN(3) {
		if r.IntN(2) == 0 {
			ante = And{L: ante, R: g.atom(2)}
		} else {
			ante = And{L: g.atom(2), R: ante}
		}
	}
	cons := g.formula(2)
	if r.IntN(6) == 0 {
		cons = Implies{L: g.atom(1), R: cons}
	}
	return obligation{a: Implies{L: ante, R: cons}, cfg: cfg}
}

type gen struct {
	r     *rand.Rand
	chans []Term
	vars  []string
}

func (g *gen) formula(depth int) A {
	switch g.r.IntN(6) {
	case 0:
		return Not{Body: g.atom(depth)}
	case 1:
		return Or{L: g.atom(depth), R: g.atom(depth)}
	case 2:
		return And{L: g.atom(depth), R: g.atom(depth)}
	default:
		return g.atom(depth)
	}
}

func (g *gen) atom(depth int) A {
	switch g.r.IntN(12) {
	case 0, 1:
		return Cmp{Op: []CmpOp{CEq, CNe, CLe, CLt, CGe}[g.r.IntN(5)], L: g.intTerm(depth), R: g.intTerm(depth)}
	case 2:
		// The set's bound may be a variable: FreeVars does not see it.
		hi := syntax.Expr(syntax.IntLit{Val: 1})
		if g.r.IntN(2) == 0 {
			hi = syntax.Var{Name: g.vars[g.r.IntN(len(g.vars))]}
		}
		return ForAllSet{Var: "z", Dom: syntax.RangeSet{Lo: syntax.IntLit{Val: 0}, Hi: hi},
			Body: Cmp{Op: CNe, L: Var("z"), R: g.intTerm(depth - 1)}}
	case 3:
		ch := g.channel()
		return ForAllRange{Var: "i", Lo: Int(1), Hi: Len{S: ch},
			Body: Cmp{Op: CNe, L: At{S: ch, Idx: Var("i")}, R: g.elem(depth - 1)}}
	case 4:
		return Cmp{Op: CEq, L: g.seqTerm(depth), R: g.seqTerm(depth)}
	default:
		return Cmp{Op: []CmpOp{CLe, CLe, CLt, CGe, CNe}[g.r.IntN(5)], L: g.seqTerm(depth), R: g.seqTerm(depth)}
	}
}

func (g *gen) channel() Term { return g.chans[g.r.IntN(len(g.chans))] }

func (g *gen) seqTerm(depth int) Term {
	if depth <= 0 {
		return g.channel()
	}
	switch g.r.IntN(10) {
	case 0:
		return Cons{Head: g.elem(depth - 1), Tail: g.seqTerm(depth - 1)}
	case 1:
		return Cat{L: g.seqTerm(depth - 1), R: g.seqTerm(depth - 1)}
	case 2:
		return Apply{Fn: "f", Args: []Term{g.seqTerm(depth - 1)}}
	case 3:
		return Apply{Fn: "front", Args: []Term{g.seqTerm(depth - 1)}}
	case 4:
		return SeqLit{Elems: []Term{g.elem(depth - 1)}}
	case 5:
		// A variable where a sequence belongs: cons onto it fails.
		return Cons{Head: g.elem(depth - 1), Tail: Var(g.vars[g.r.IntN(len(g.vars))])}
	default:
		return g.channel()
	}
}

func (g *gen) elem(depth int) Term {
	switch g.r.IntN(4) {
	case 0:
		return Var(g.vars[g.r.IntN(len(g.vars))])
	case 1:
		return []Term{Int(0), Int(1), Sym("ACK"), Sym("NACK")}[g.r.IntN(4)]
	default:
		return g.intTerm(depth)
	}
}

func (g *gen) intTerm(depth int) Term {
	if depth <= 0 {
		return Len{S: g.channel()}
	}
	switch g.r.IntN(7) {
	case 0:
		return Int(int64(g.r.IntN(3)))
	case 1:
		return Var(g.vars[g.r.IntN(len(g.vars))])
	case 2:
		return Arith{Op: []ArithOp{AAdd, ASub}[g.r.IntN(2)], L: g.intTerm(depth - 1), R: g.intTerm(depth - 1)}
	case 3:
		// Indexing fails outside 1..#s.
		return At{S: g.seqTerm(depth - 1), Idx: Int(int64(1 + g.r.IntN(2)))}
	case 4:
		// K[#a] depends on a; K[#d[e]] reads whichever channel of d e
		// names, so Valid refuses it. K fails outside 0..1.
		sub := g.intTerm(depth - 1)
		if g.r.IntN(4) == 0 {
			sub = Len{S: ChanIdx("d", sub)}
		}
		return ConstIndex{Name: "K", Sub: sub}
	default:
		return Len{S: g.seqTerm(depth - 1)}
	}
}
