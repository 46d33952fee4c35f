package assertion

import (
	"maps"
	"math/rand/v2"
	"strconv"
	"testing"

	"cspsat/internal/trace"
	"cspsat/internal/value"
)

// TestLemmasOnGeneratedFormulas checks the §3.4 lemmas (a)–(d) of
// lemmas_test.go on the formulas genObligation draws, which have
// constant-array subscripts such as K[#a], the channel d[1], binders, f
// and front, under random histories and assignments.
func TestLemmasOnGeneratedFormulas(t *testing.T) {
	for seed := range uint64(600) {
		checkLemmas(t, seed)
	}
}

// FuzzLemmas runs the check of TestLemmasOnGeneratedFormulas on the
// formula, histories and assignment a seed draws.
func FuzzLemmas(f *testing.F) {
	for _, seed := range []uint64{0, 1, 7, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) { checkLemmas(t, seed) })
}

// lemmaChans are the channels the generated formulas read, d[0] among them
// because subscripts such as d[#a] can name it.
var lemmaChans = []trace.Chan{"a", "b", "c", "d[0]", "d[1]"}

func checkLemmas(t *testing.T, seed uint64) {
	t.Helper()
	r := rand.New(rand.NewPCG(seed, 0x1e44a))
	ob := genObligation(r, validEnv())
	a, cfg := ob.a, ob.cfg
	draw := func(d value.Domain) value.V {
		vals := d.Enumerate()
		return vals[r.IntN(len(vals))]
	}
	h := trace.History{}
	for _, ch := range lemmaChans {
		for range r.IntN(cfg.maxLen() + 1) {
			h[ch] = append(h[ch], draw(cfg.domFor(string(ch), cfg.ChanDom)))
		}
	}
	vars := map[string]value.V{}
	for _, v := range []string{"x", "y"} {
		if d, ok := cfg.VarDom[v]; ok {
			vars[v] = draw(d)
		}
	}
	eval := func(a A, h trace.History, vars map[string]value.V) string {
		ctx := NewCtx(cfg.Env, h, nil)
		for v, val := range vars {
			ctx = ctx.Bind(v, val)
		}
		ok, err := Eval(a, ctx)
		if err != nil {
			return err.Error()
		}
		return strconv.FormatBool(ok)
	}
	want := eval(a, h, vars)

	// (b): (ρ + ch(<>))⟦R⟧ = (ρ + ch(s))⟦R_<>⟧ where R is defined: R_<>
	// drops the subscripts of the channel references it erases, so it may
	// be defined where evaluating R fails on such a subscript.
	empty := eval(a, trace.History{}, vars)
	if got := eval(EmptyAllChans(a), h, vars); got != empty && (empty == "true" || empty == "false") {
		t.Fatalf("seed %d: lemma (b) fails for %s under %s: R_<> gives %s, R under empty histories %s", seed, a, h, got, empty)
	}
	chans := FreeChans(a)
	for _, ch := range lemmaChans {
		name, _, _ := ch.ArrayName()
		if chans[name+"[*]"] {
			continue // a symbolic subscript can name ch: neither lemma applies
		}
		// (c): (ρ + ch(s))⟦R[e⌢c/c]⟧ = (ρ + ch((c.e)⌢s))⟦R⟧.
		e := draw(cfg.domFor(string(ch), cfg.ChanDom))
		subst, err := SubstChanCons(a, ch, Lit{Val: e})
		if err != nil {
			t.Fatalf("seed %d: SubstChanCons(%s, %s): %v", seed, a, ch, err)
		}
		prepended := h.Clone()
		prepended[ch] = append([]value.V{e}, h[ch]...)
		if got, pre := eval(subst, h, vars), eval(a, prepended, vars); got != pre {
			t.Fatalf("seed %d: lemma (c) fails for %s, %s.%s under %s: R[e⌢c/c] gives %s, R after c.e %s", seed, a, ch, e, h, got, pre)
		}
		// (d): R mentions no channel of C, so hiding C leaves it as it is.
		if !chans[string(ch)] {
			hidden := h.Clone()
			delete(hidden, ch)
			if got := eval(a, hidden, vars); got != want {
				t.Fatalf("seed %d: lemma (d) fails for %s hiding %s under %s: %s, unhidden %s", seed, a, ch, h, got, want)
			}
		}
	}
	// (a): (ρ + ch(s))⟦R[v/x]⟧ = (ρ[v/x] + ch(s))⟦R⟧, with x unbound in ρ
	// so that an occurrence the substitution missed fails to evaluate.
	for v, val := range vars {
		subst, err := SubstVar(a, v, Lit{Val: val})
		if err != nil {
			t.Fatalf("seed %d: SubstVar(%s, %s): %v", seed, a, v, err)
		}
		rest := maps.Clone(vars)
		delete(rest, v)
		if got := eval(subst, h, rest); got != want {
			t.Fatalf("seed %d: lemma (a) fails for %s, %s=%s under %s: R[v/x] gives %s, R %s", seed, a, v, val, h, got, want)
		}
	}
}
