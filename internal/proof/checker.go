package proof

import (
	"context"
	"fmt"
	"reflect"
	"strconv"
	"strings"

	"cspsat/internal/assertion"
	"cspsat/internal/csperr"
	"cspsat/internal/pool"
	"cspsat/internal/sem"
	"cspsat/internal/syntax"
	"cspsat/internal/trace"
	"cspsat/internal/value"
)

// Checker verifies proof trees against a module. It is stateful only in its
// configuration; each Check call is independent.
type Checker struct {
	env   sem.Env
	funcs *assertion.Registry
	// Validity bounds the discharge of pure obligations; its Env and Funcs
	// fields are filled in by the checker.
	Validity assertion.ValidityConfig
	// Log, when non-nil, receives one line per checked rule application.
	Log func(string)
	// Steps, when non-nil, collects every verified rule application in
	// post-order (premises before conclusions), for rendering in the
	// paper's Table-1 style; see Render.
	Steps *[]Step
	// Ctx, when non-nil, is checked at every rule application; once done,
	// Check returns an error wrapping csperr.ErrCanceled. Deep proof trees
	// and wide validity domains make single obligations slow, so the check
	// sits on the rule granularity rather than per trace.
	Ctx context.Context

	nesting    int
	discharged int
}

// Discharged reports how many pure side conditions the validity oracle
// accepted during the last Check call (the batch layer sums these into the
// progress events).
func (c *Checker) Discharged() int { return c.discharged }

// Step is one verified rule application: the claim concluded, the rule
// used, and the nesting depth of the node in the proof tree (premises sit
// one level deeper than their conclusion).
type Step struct {
	Depth int
	Rule  string
	Claim Claim
}

// NewChecker returns a checker over the module environment. funcs may be
// nil when assertions use no registered functions.
func NewChecker(env sem.Env, funcs *assertion.Registry) *Checker {
	if funcs == nil {
		funcs = assertion.NewRegistry()
	}
	return &Checker{env: env, funcs: funcs}
}

// scope carries the in-scope recursion hypotheses and the domains of
// schematically free variables during a check.
type scope struct {
	hyps    map[string]Claim
	varDoms map[string]syntax.SetExpr
}

func (s scope) withHyps(claims map[string]Claim) scope {
	out := scope{hyps: map[string]Claim{}, varDoms: s.varDoms}
	for k, v := range s.hyps {
		out.hyps[k] = v
	}
	for k, v := range claims {
		out.hyps[k] = v
	}
	return out
}

func (s scope) withVar(name string, dom syntax.SetExpr) scope {
	out := scope{hyps: s.hyps, varDoms: map[string]syntax.SetExpr{}}
	for k, v := range s.varDoms {
		out.varDoms[k] = v
	}
	out.varDoms[name] = dom
	return out
}

// Check verifies the proof tree and returns its conclusion.
func (c *Checker) Check(p Proof) (Claim, error) {
	c.discharged = 0
	return c.check(p, scope{hyps: map[string]Claim{}, varDoms: map[string]syntax.SetExpr{}})
}

func (c *Checker) log(format string, args ...any) {
	if c.Log != nil {
		c.Log(fmt.Sprintf(format, args...))
	}
}

func (c *Checker) check(p Proof, sc scope) (Claim, error) {
	if err := pool.Canceled(c.Ctx); err != nil {
		return Claim{}, err
	}
	c.nesting++
	cl, err := c.checkNode(p, sc)
	c.nesting--
	if err != nil {
		return Claim{}, err
	}
	if c.Steps != nil {
		*c.Steps = append(*c.Steps, Step{Depth: c.nesting, Rule: p.Rule(), Claim: cl})
	}
	c.log("%-12s ⊢ %s", p.Rule(), cl)
	return cl, nil
}

func (c *Checker) checkNode(p Proof, sc scope) (Claim, error) {
	switch n := p.(type) {
	case Triviality:
		if err := c.discharge(n.T, sc); err != nil {
			return Claim{}, fmt.Errorf("triviality: %w", err)
		}
		return Claim{Proc: n.P, A: n.T}, nil

	case Consequence:
		prem, err := c.check(n.Premise, sc)
		if err != nil {
			return Claim{}, err
		}
		inner := sc
		for _, q := range prem.Quants {
			inner = inner.withVar(q.Var, q.Dom)
		}
		ob := assertion.Implies{L: prem.A, R: n.To}
		if err := c.discharge(ob, inner); err != nil {
			return Claim{}, fmt.Errorf("consequence: %s: %w", ob, err)
		}
		return Claim{Quants: prem.Quants, Proc: prem.Proc, A: n.To}, nil

	case Conjunction:
		p1, err := c.check(n.P1, sc)
		if err != nil {
			return Claim{}, err
		}
		p2, err := c.check(n.P2, sc)
		if err != nil {
			return Claim{}, err
		}
		if len(p1.Quants) != 0 || len(p2.Quants) != 0 {
			return Claim{}, fmt.Errorf("conjunction: premises must be unquantified; quantify the conjunction afterwards")
		}
		if !reflect.DeepEqual(p1.Proc, p2.Proc) {
			return Claim{}, fmt.Errorf("conjunction: premises about different processes:\n  %s\n  %s", p1.Proc, p2.Proc)
		}
		return Claim{Proc: p1.Proc, A: assertion.And{L: p1.A, R: p2.A}}, nil

	case Emptiness:
		ob := assertion.EmptyAllChans(n.R)
		if err := c.discharge(ob, sc); err != nil {
			return Claim{}, fmt.Errorf("emptiness: R_<> = %s: %w", ob, err)
		}
		return Claim{Proc: syntax.Stop{}, A: n.R}, nil

	case OutputStep:
		return c.checkOutput(n, sc)

	case InputStep:
		return c.checkInput(n, sc)

	case Alternative:
		p1, err := c.check(n.P1, sc)
		if err != nil {
			return Claim{}, err
		}
		p2, err := c.check(n.P2, sc)
		if err != nil {
			return Claim{}, err
		}
		if len(p1.Quants) != 0 || len(p2.Quants) != 0 {
			return Claim{}, fmt.Errorf("alternative: premises must be unquantified")
		}
		if !reflect.DeepEqual(p1.A, p2.A) {
			return Claim{}, fmt.Errorf("alternative: premises prove different assertions:\n  %s\n  %s", p1.A, p2.A)
		}
		return Claim{Proc: syntax.Alt{L: p1.Proc, R: p2.Proc}, A: p1.A}, nil

	case Parallelism:
		return c.checkParallel(n, sc)

	case ChanIntro:
		prem, err := c.check(n.Premise, sc)
		if err != nil {
			return Claim{}, err
		}
		if len(prem.Quants) != 0 {
			return Claim{}, fmt.Errorf("chan: premise must be unquantified")
		}
		hidden, err := c.env.EvalChanItems(n.Channels)
		if err != nil {
			return Claim{}, fmt.Errorf("chan: %w", err)
		}
		for key := range assertion.FreeChans(prem.A) {
			if keyMeetsSet(key, hidden) {
				return Claim{}, fmt.Errorf("chan: assertion %s mentions hidden channel %s", prem.A, key)
			}
		}
		return Claim{Proc: syntax.Hiding{Channels: n.Channels, Body: prem.Proc}, A: prem.A}, nil

	case Recursion:
		return c.checkRecursion(n, sc)

	case Hypothesis:
		return c.checkHypothesis(n, sc)

	case ForAllIntro:
		// Paper side condition on ∀-introduction: the variable must not be
		// free in the assumptions Γ.
		for name, hyp := range sc.hyps {
			if claimFreeVars(hyp)[n.Var] {
				return Claim{}, fmt.Errorf("forall-intro: %s is free in hypothesis %s", n.Var, name)
			}
		}
		prem, err := c.check(n.Premise, sc.withVar(n.Var, n.Dom))
		if err != nil {
			return Claim{}, err
		}
		return Claim{
			Quants: append([]Quant{{Var: n.Var, Dom: n.Dom}}, prem.Quants...),
			Proc:   prem.Proc,
			A:      prem.A,
		}, nil

	case Instantiate:
		prem, err := c.check(n.Premise, sc)
		if err != nil {
			return Claim{}, err
		}
		return c.instantiate(prem, n.Terms, sc)

	case Unfold:
		return c.checkUnfold(n, sc)

	default:
		return Claim{}, fmt.Errorf("proof: unknown proof node %T", p)
	}
}

func (c *Checker) checkOutput(n OutputStep, sc scope) (Claim, error) {
	ch, err := c.env.EvalChanRef(n.Ch)
	if err != nil {
		return Claim{}, fmt.Errorf("output: schematic channel %s unsupported: %w", n.Ch, err)
	}
	eTerm, err := assertion.ExprToTerm(n.Val)
	if err != nil {
		return Claim{}, fmt.Errorf("output: %w", err)
	}
	ob := assertion.EmptyAllChans(n.R)
	if err := c.discharge(ob, sc); err != nil {
		return Claim{}, fmt.Errorf("output: R_<> = %s: %w", ob, err)
	}
	want, err := assertion.SubstChanCons(n.R, ch, eTerm)
	if err != nil {
		return Claim{}, fmt.Errorf("output: %w", err)
	}
	prem, err := c.check(n.Premise, sc)
	if err != nil {
		return Claim{}, err
	}
	if len(prem.Quants) != 0 {
		return Claim{}, fmt.Errorf("output: premise must be unquantified")
	}
	if !reflect.DeepEqual(prem.A, want) {
		return Claim{}, fmt.Errorf("output: premise proves\n  %s\nbut the rule needs R[e⌢c/c] =\n  %s", prem.A, want)
	}
	return Claim{
		Proc: syntax.Output{Ch: n.Ch, Val: n.Val, Cont: prem.Proc},
		A:    n.R,
	}, nil
}

func (c *Checker) checkInput(n InputStep, sc scope) (Claim, error) {
	ch, err := c.env.EvalChanRef(n.Ch)
	if err != nil {
		return Claim{}, fmt.Errorf("input: schematic channel %s unsupported: %w", n.Ch, err)
	}
	// Freshness: v not free in P (it may equal the bound x itself), and
	// nowhere in R.
	if n.Fresh != n.Var {
		if syntax.FreeVarsProc(n.Body)[n.Fresh] {
			return Claim{}, fmt.Errorf("input: fresh variable %s is free in the body", n.Fresh)
		}
	}
	if assertion.VarNames(n.R)[n.Fresh] {
		return Claim{}, fmt.Errorf("input: fresh variable %s occurs in R", n.Fresh)
	}
	ob := assertion.EmptyAllChans(n.R)
	if err := c.discharge(ob, sc); err != nil {
		return Claim{}, fmt.Errorf("input: R_<> = %s: %w", ob, err)
	}
	wantA, err := assertion.SubstChanCons(n.R, ch, assertion.Var(n.Fresh))
	if err != nil {
		return Claim{}, fmt.Errorf("input: %w", err)
	}
	wantP, err := syntax.SubstProc(n.Body, n.Var, syntax.Var{Name: n.Fresh})
	if err != nil {
		return Claim{}, fmt.Errorf("input: %w", err)
	}
	want := Claim{Quants: []Quant{{Var: n.Fresh, Dom: n.Dom}}, Proc: wantP, A: wantA}
	prem, err := c.check(n.Premise, sc)
	if err != nil {
		return Claim{}, err
	}
	if err := sameClaim(prem, want); err != nil {
		return Claim{}, fmt.Errorf("input: %w", err)
	}
	return Claim{
		Proc: syntax.Input{Ch: n.Ch, Var: n.Var, Dom: n.Dom, Cont: n.Body},
		A:    n.R,
	}, nil
}

func (c *Checker) checkParallel(n Parallelism, sc scope) (Claim, error) {
	p1, err := c.check(n.P1, sc)
	if err != nil {
		return Claim{}, err
	}
	p2, err := c.check(n.P2, sc)
	if err != nil {
		return Claim{}, err
	}
	if len(p1.Quants) != 0 || len(p2.Quants) != 0 {
		return Claim{}, fmt.Errorf("parallelism: premises must be unquantified")
	}
	par := syntax.Par{L: p1.Proc, R: p2.Proc, AlphaL: n.AlphaL, AlphaR: n.AlphaR}
	x, y, err := sem.ParAlphabets(par, c.env)
	if err != nil {
		return Claim{}, fmt.Errorf("parallelism: %w", err)
	}
	for key := range assertion.FreeChans(p1.A) {
		in, err := keyInSet(key, x)
		if err != nil {
			return Claim{}, fmt.Errorf("parallelism: %w", err)
		}
		if !in {
			return Claim{}, fmt.Errorf("parallelism: %s mentions %s outside left alphabet %s", p1.A, key, x)
		}
	}
	for key := range assertion.FreeChans(p2.A) {
		in, err := keyInSet(key, y)
		if err != nil {
			return Claim{}, fmt.Errorf("parallelism: %w", err)
		}
		if !in {
			return Claim{}, fmt.Errorf("parallelism: %s mentions %s outside right alphabet %s", p2.A, key, y)
		}
	}
	return Claim{Proc: par, A: assertion.And{L: p1.A, R: p2.A}}, nil
}

func (c *Checker) checkRecursion(n Recursion, sc scope) (Claim, error) {
	if len(n.Defs) == 0 {
		return Claim{}, fmt.Errorf("recursion: no definitions")
	}
	if n.Main < 0 || n.Main >= len(n.Defs) {
		return Claim{}, fmt.Errorf("recursion: main index %d out of range", n.Main)
	}
	hyps := map[string]Claim{}
	for _, d := range n.Defs {
		def, ok := c.env.Module().Lookup(d.Name)
		if !ok {
			return Claim{}, fmt.Errorf("recursion: process %q not defined in module", d.Name)
		}
		if err := validateRecClaim(d, def); err != nil {
			return Claim{}, err
		}
		hyps[d.Name] = d.Claim
	}
	inner := sc.withHyps(hyps)
	for _, d := range n.Defs {
		def, _ := c.env.Module().Lookup(d.Name)
		// First auxiliary inference: ∀quants. R_<>.
		obScope := inner
		for _, q := range d.Claim.Quants {
			obScope = obScope.withVar(q.Var, q.Dom)
		}
		ob := assertion.EmptyAllChans(d.Claim.A)
		if err := c.discharge(ob, obScope); err != nil {
			return Claim{}, fmt.Errorf("recursion(%s): R_<> = %s: %w", d.Name, ob, err)
		}
		// Second auxiliary inference: the body satisfies the claim under
		// the self-assumptions.
		body := def.Body
		if def.IsArray() {
			var err error
			if body, err = syntax.SubstProc(body, def.Param, syntax.Var{Name: d.Claim.Quants[0].Var}); err != nil {
				return Claim{}, fmt.Errorf("recursion(%s): %w", d.Name, err)
			}
		}
		want := Claim{Quants: d.Claim.Quants, Proc: body, A: d.Claim.A}
		prem, err := c.check(d.Premise, inner)
		if err != nil {
			return Claim{}, fmt.Errorf("recursion(%s): %w", d.Name, err)
		}
		if err := sameClaim(prem, want); err != nil {
			return Claim{}, fmt.Errorf("recursion(%s): %w", d.Name, err)
		}
	}
	return n.Defs[n.Main].Claim, nil
}

func validateRecClaim(d RecDef, def *syntax.Def) error {
	if def.IsArray() {
		if len(d.Claim.Quants) != 1 {
			return fmt.Errorf("recursion: array %q needs exactly one quantifier, got %d", d.Name, len(d.Claim.Quants))
		}
		q := d.Claim.Quants[0]
		if !reflect.DeepEqual(q.Dom, def.ParamDom) {
			return fmt.Errorf("recursion: quantifier domain %s differs from %q's parameter domain %s", q.Dom, d.Name, def.ParamDom)
		}
		wantProc := syntax.Ref{Name: d.Name, Sub: syntax.Var{Name: q.Var}}
		if !reflect.DeepEqual(d.Claim.Proc, syntax.Proc(wantProc)) {
			return fmt.Errorf("recursion: claim for array %q must be about %s, got %s", d.Name, wantProc, d.Claim.Proc)
		}
		return nil
	}
	if len(d.Claim.Quants) != 0 {
		return fmt.Errorf("recursion: plain process %q must have an unquantified claim", d.Name)
	}
	if !reflect.DeepEqual(d.Claim.Proc, syntax.Proc(syntax.Ref{Name: d.Name})) {
		return fmt.Errorf("recursion: claim for %q must be about the reference %s, got %s", d.Name, d.Name, d.Claim.Proc)
	}
	return nil
}

func (c *Checker) checkHypothesis(n Hypothesis, sc scope) (Claim, error) {
	hyp, ok := sc.hyps[n.Name]
	if !ok {
		return Claim{}, fmt.Errorf("hypothesis: %q not in scope", n.Name)
	}
	if len(n.Insts) == 0 {
		return hyp, nil
	}
	return c.instantiate(hyp, n.Insts, sc)
}

func (c *Checker) instantiate(cl Claim, terms []assertion.Term, sc scope) (Claim, error) {
	if len(terms) > len(cl.Quants) {
		return Claim{}, fmt.Errorf("forall-elim: %d terms for %d quantifiers", len(terms), len(cl.Quants))
	}
	out := cl
	for _, t := range terms {
		q := out.Quants[0]
		if err := c.checkMembership(t, q.Dom, sc); err != nil {
			return Claim{}, fmt.Errorf("forall-elim: %w", err)
		}
		e, err := assertion.TermToExpr(t)
		if err != nil {
			return Claim{}, fmt.Errorf("forall-elim: %w", err)
		}
		a, err := assertion.SubstVar(out.A, q.Var, t)
		if err != nil {
			return Claim{}, fmt.Errorf("forall-elim: %w", err)
		}
		p, err := syntax.SubstProc(out.Proc, q.Var, e)
		if err != nil {
			return Claim{}, fmt.Errorf("forall-elim: %w", err)
		}
		out = Claim{Quants: out.Quants[1:], Proc: p, A: a}
	}
	return out, nil
}

// checkMembership verifies that an instantiating term denotes a member of
// the quantifier's domain: a literal is tested directly; a variable is
// accepted when its registered schematic domain is syntactically the same.
func (c *Checker) checkMembership(t assertion.Term, dom syntax.SetExpr, sc scope) error {
	switch x := t.(type) {
	case assertion.Lit:
		d, err := c.env.EvalSet(dom)
		if err != nil {
			return err
		}
		if !d.Contains(x.Val) {
			return fmt.Errorf("%v is not in %s", x.Val, dom)
		}
		return nil
	case assertion.VarT:
		vd, ok := sc.varDoms[x.Name]
		if !ok {
			return fmt.Errorf("variable %s has no domain in scope", x.Name)
		}
		if !reflect.DeepEqual(vd, dom) {
			return fmt.Errorf("variable %s ranges over %s, not %s", x.Name, vd, dom)
		}
		return nil
	default:
		return fmt.Errorf("cannot establish membership of %s in %s", t, dom)
	}
}

func (c *Checker) checkUnfold(n Unfold, sc scope) (Claim, error) {
	def, ok := c.env.Module().Lookup(n.Ref.Name)
	if !ok {
		return Claim{}, fmt.Errorf("unfold: process %q not defined", n.Ref.Name)
	}
	var body syntax.Proc
	switch {
	case def.IsArray() && n.Ref.Sub != nil:
		var err error
		if body, err = syntax.SubstProc(def.Body, def.Param, n.Ref.Sub); err != nil {
			return Claim{}, fmt.Errorf("unfold: %w", err)
		}
	case !def.IsArray() && n.Ref.Sub == nil:
		body = def.Body
	default:
		return Claim{}, fmt.Errorf("unfold: subscript mismatch for %s", n.Ref)
	}
	prem, err := c.check(n.Premise, sc)
	if err != nil {
		return Claim{}, err
	}
	if len(prem.Quants) != 0 {
		return Claim{}, fmt.Errorf("unfold: premise must be unquantified")
	}
	if !reflect.DeepEqual(prem.Proc, body) {
		return Claim{}, fmt.Errorf("unfold: premise is about\n  %s\nbut %s unfolds to\n  %s", prem.Proc, n.Ref, body)
	}
	return Claim{Proc: n.Ref, A: prem.A}, nil
}

// discharge checks a pure obligation by bounded validity, with the
// schematic variables in scope ranging over their registered domains.
func (c *Checker) discharge(a assertion.A, sc scope) error {
	cfg := c.Validity
	cfg.Env = c.env
	cfg.Funcs = c.funcs
	if cfg.VarDom == nil {
		cfg.VarDom = map[string]value.Domain{}
	} else {
		vd := make(map[string]value.Domain, len(cfg.VarDom))
		for k, v := range cfg.VarDom {
			vd[k] = v
		}
		cfg.VarDom = vd
	}
	for v, se := range sc.varDoms {
		d, err := c.env.EvalSet(se)
		if err != nil {
			return fmt.Errorf("domain of %s: %w", v, err)
		}
		cfg.VarDom[v] = d
	}
	cex, err := assertion.Valid(c.Ctx, a, cfg)
	if err != nil {
		return err
	}
	if cex != nil {
		return fmt.Errorf("%w: obligation %s fails at %s", csperr.ErrObligationFailed, a, cex)
	}
	c.discharged++
	return nil
}

// sameClaim checks that a premise proves the claim a rule needs, up to the
// names of the quantified variables, which both claims have canonically
// renamed before they are compared.
func sameClaim(prem, want Claim) error {
	if len(prem.Quants) == len(want.Quants) {
		cp, err := canonClaim(prem)
		if err != nil {
			return err
		}
		cw, err := canonClaim(want)
		if err != nil {
			return err
		}
		if reflect.DeepEqual(cp, cw) {
			return nil
		}
	}
	return fmt.Errorf("premise proves\n  %s\nbut the rule needs\n  %s", prem, want)
}

func canonClaim(c Claim) (Claim, error) {
	out := Claim{Quants: make([]Quant, len(c.Quants)), Proc: c.Proc, A: c.A}
	for i, q := range c.Quants {
		fresh := "$" + strconv.Itoa(i)
		out.Quants[i] = Quant{Var: fresh, Dom: q.Dom}
		p, err := syntax.SubstProc(out.Proc, q.Var, syntax.Var{Name: fresh})
		if err != nil {
			return Claim{}, err
		}
		a, err := assertion.SubstVar(out.A, q.Var, assertion.Var(fresh))
		if err != nil {
			return Claim{}, err
		}
		out.Proc, out.A = p, a
	}
	return out, nil
}

func claimFreeVars(c Claim) map[string]bool {
	fv := syntax.FreeVarsProc(c.Proc)
	for v := range assertion.FreeVars(c.A) {
		fv[v] = true
	}
	for _, q := range c.Quants {
		delete(fv, q.Var)
	}
	return fv
}

// Channel keys from assertion.FreeChans are either concrete ("wire",
// "col[2]") or wildcard ("col[*]", a symbolically subscripted array). The
// two checks below are conservative on wildcards in the direction each
// rule needs.

// keyInSet reports whether the channel key is certainly inside the set
// (needed by parallelism: channels of R must lie inside X). A wildcard is
// inside only if... it cannot be established, so it is rejected.
func keyInSet(key string, s trace.Set) (bool, error) {
	if strings.HasSuffix(key, "[*]") {
		return false, fmt.Errorf("channel array %s subscripted symbolically; cannot verify alphabet containment", key)
	}
	return s.Contains(trace.Chan(key)), nil
}

// keyMeetsSet reports whether the channel key may intersect the set
// (needed by chan: R must mention no hidden channel). A wildcard meets the
// set whenever any element of the same array does.
func keyMeetsSet(key string, s trace.Set) bool {
	if name, ok := strings.CutSuffix(key, "[*]"); ok {
		for _, c := range s.Slice() {
			if arr, _, isArr := c.ArrayName(); isArr && arr == name {
				return true
			}
		}
		return false
	}
	return s.Contains(trace.Chan(key))
}
