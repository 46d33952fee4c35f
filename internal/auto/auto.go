// Package auto synthesises proof objects for the §2.1 inference system
// automatically, for the common shapes of the paper's proofs:
//
//   - Recursive: given sat-claims for a set of (mutually) recursive
//     definitions, build the recursion-rule proof by structural descent
//     over the bodies — output and input rules along prefixes, the
//     alternative rule at choices, and hypothesis citations (bridged by the
//     consequence rule where the assertion needs transport) at recursive
//     tails. This mechanises exactly the strategy of the paper's §2.1(6)
//     example and Table 1.
//
//   - Network: given component proofs, glue them with the parallelism rule,
//     weaken with consequence, and push through hiding and definitional
//     naming — the shape of the paper's §2.2(3) six-step protocol proof.
//
// The synthesiser builds candidate proofs only; soundness rests entirely
// with internal/proof's checker, which re-validates every rule application
// and discharges the side conditions. If a claim is wrong, or outside the
// synthesiser's fragment, checking fails with a specific rule-level error.
package auto

import (
	"fmt"
	"reflect"
	"strconv"

	"cspsat/internal/assertion"
	"cspsat/internal/proof"
	"cspsat/internal/sem"
	"cspsat/internal/syntax"
)

// Goal states what to prove about one definition: the named process
// invariantly satisfies A. For a process array, A may mention the
// definition's parameter, and the synthesised claim quantifies it over the
// parameter's domain (the paper's ∀x∈M. q[x] sat S).
type Goal struct {
	Name string
	A    assertion.A
}

// maxUnfolds bounds definitional unfolding of goal-less references during
// synthesis, so a recursive tail without a goal is reported rather than
// chased forever.
const maxUnfolds = 32

// GoalError reports which goal's synthesis failed, so drivers (cspprove)
// can drop it from a joint attempt and retry with the rest.
type GoalError struct {
	Name string
	Err  error
}

func (e *GoalError) Error() string {
	return fmt.Sprintf("auto: synthesising %q: %v", e.Name, e.Err)
}

// Unwrap exposes the underlying cause.
func (e *GoalError) Unwrap() error { return e.Err }

// Recursive synthesises a recursion-rule proof establishing every goal
// simultaneously; the returned proof concludes goals[0]'s claim (the rest
// are established as part of the same rule application, as in Table 1).
func Recursive(env sem.Env, goals []Goal) (proof.Proof, error) {
	if len(goals) == 0 {
		return nil, fmt.Errorf("auto: no goals")
	}
	s := &synth{env: env, hyps: map[string]proof.Claim{}}
	defs := make([]proof.RecDef, len(goals))
	for i, g := range goals {
		def, ok := env.Module().Lookup(g.Name)
		if !ok {
			return nil, fmt.Errorf("auto: process %q not defined", g.Name)
		}
		claim := proof.Claim{A: g.A}
		if def.IsArray() {
			claim.Quants = []proof.Quant{{Var: def.Param, Dom: def.ParamDom}}
			claim.Proc = syntax.Ref{Name: g.Name, Sub: syntax.Var{Name: def.Param}}
		} else {
			claim.Proc = syntax.Ref{Name: g.Name}
		}
		s.hyps[g.Name] = claim
		defs[i] = proof.RecDef{Name: g.Name, Claim: claim}
	}
	for i, g := range goals {
		def, _ := env.Module().Lookup(g.Name)
		body := def.Body
		target := g.A
		var premise proof.Proof
		var err error
		if def.IsArray() {
			premise, err = s.prove(body, target, 0)
			if err == nil {
				premise = proof.ForAllIntro{Var: def.Param, Dom: def.ParamDom, Premise: premise}
			}
		} else {
			premise, err = s.prove(body, target, 0)
		}
		if err != nil {
			return nil, &GoalError{Name: g.Name, Err: err}
		}
		defs[i].Premise = premise
	}
	return proof.Recursion{Defs: defs, Main: 0}, nil
}

type synth struct {
	env   sem.Env
	hyps  map[string]proof.Claim
	fresh int
}

// freshVar returns a variable name nowhere in the process or the
// assertion: the input rule needs it not free in either, and substituting
// it into the process must not meet an input that binds it.
func (s *synth) freshVar(p syntax.Proc, a assertion.A) string {
	pv := syntax.VarNames(p)
	av := assertion.VarNames(a)
	for {
		v := "v" + strconv.Itoa(s.fresh)
		s.fresh++
		if !pv[v] && !av[v] {
			return v
		}
	}
}

// prove synthesises a proof that p sat target.
func (s *synth) prove(p syntax.Proc, target assertion.A, unfolds int) (proof.Proof, error) {
	switch t := p.(type) {
	case syntax.Stop:
		return proof.Emptiness{R: target}, nil

	case syntax.Output:
		ch, err := s.env.EvalChanRef(t.Ch)
		if err != nil {
			return nil, fmt.Errorf("output %s: %w", t.Ch, err)
		}
		eTerm, err := assertion.ExprToTerm(t.Val)
		if err != nil {
			return nil, err
		}
		next, err := assertion.SubstChanCons(target, ch, eTerm)
		if err != nil {
			return nil, err
		}
		prem, err := s.prove(t.Cont, next, unfolds)
		if err != nil {
			return nil, err
		}
		return proof.OutputStep{Ch: t.Ch, Val: t.Val, R: target, Premise: prem}, nil

	case syntax.Input:
		ch, err := s.env.EvalChanRef(t.Ch)
		if err != nil {
			return nil, fmt.Errorf("input %s: %w", t.Ch, err)
		}
		v := s.freshVar(t.Cont, target)
		next, err := assertion.SubstChanCons(target, ch, assertion.Var(v))
		if err != nil {
			return nil, err
		}
		contInst, err := syntax.SubstProc(t.Cont, t.Var, syntax.Var{Name: v})
		if err != nil {
			return nil, err
		}
		prem, err := s.prove(contInst, next, unfolds)
		if err != nil {
			return nil, err
		}
		return proof.InputStep{
			Ch: t.Ch, Var: t.Var, Dom: t.Dom, Body: t.Cont,
			Fresh: v, R: target,
			Premise: proof.ForAllIntro{Var: v, Dom: t.Dom, Premise: prem},
		}, nil

	case syntax.Alt:
		l, err := s.prove(t.L, target, unfolds)
		if err != nil {
			return nil, err
		}
		r, err := s.prove(t.R, target, unfolds)
		if err != nil {
			return nil, err
		}
		return proof.Alternative{P1: l, P2: r}, nil

	case syntax.Ref:
		return s.proveRef(t, target, unfolds)

	case syntax.Par:
		return s.provePar(t, target, unfolds)

	case syntax.Hiding:
		prem, err := s.prove(t.Body, target, unfolds)
		if err != nil {
			return nil, err
		}
		return proof.ChanIntro{Channels: t.Channels, Premise: prem}, nil

	default:
		return nil, fmt.Errorf("auto: no synthesis rule for %T", p)
	}
}

// proveRef closes a branch at a process reference: by citing the hypothesis
// when the reference participates in the recursion (with a consequence
// bridge when the assertion differs), or by definitional unfolding
// otherwise.
func (s *synth) proveRef(r syntax.Ref, target assertion.A, unfolds int) (proof.Proof, error) {
	if hyp, ok := s.hyps[r.Name]; ok {
		var insts []assertion.Term
		if r.Sub != nil {
			term, err := assertion.ExprToTerm(r.Sub)
			if err != nil {
				return nil, err
			}
			insts = []assertion.Term{term}
		}
		// The instantiated hypothesis assertion; bridge with consequence
		// when it is not literally the target.
		instA := hyp.A
		for i, q := range hyp.Quants {
			if i < len(insts) {
				var err error
				if instA, err = assertion.SubstVar(instA, q.Var, insts[i]); err != nil {
					return nil, err
				}
			}
		}
		cite := proof.Proof(proof.Hypothesis{Name: r.Name, Insts: insts})
		if reflect.DeepEqual(instA, target) {
			return cite, nil
		}
		return proof.Consequence{Premise: cite, To: target}, nil
	}
	if unfolds >= maxUnfolds {
		return nil, fmt.Errorf("auto: %s has no goal and unfolding exceeded %d levels; add a Goal for it", r, maxUnfolds)
	}
	body, err := s.env.Instantiate(r)
	if err != nil {
		return nil, err
	}
	prem, err := s.prove(body, target, unfolds+1)
	if err != nil {
		return nil, err
	}
	return proof.Unfold{Ref: r, Premise: prem}, nil
}

// provePar handles parallel composition when the target is a conjunction
// splitting across the two alphabets (R & S with chans(R) ⊆ X and
// chans(S) ⊆ Y), the only shape the parallelism rule proves directly.
func (s *synth) provePar(t syntax.Par, target assertion.A, unfolds int) (proof.Proof, error) {
	conj, ok := target.(assertion.And)
	if !ok {
		return nil, fmt.Errorf("auto: parallel composition needs a conjunction target (R & S); got %s — prove a conjunction and weaken with Network", target)
	}
	l, err := s.prove(t.L, conj.L, unfolds)
	if err != nil {
		return nil, err
	}
	r, err := s.prove(t.R, conj.R, unfolds)
	if err != nil {
		return nil, err
	}
	return proof.Parallelism{P1: l, P2: r, AlphaL: t.AlphaL, AlphaR: t.AlphaR}, nil
}

// Network glues component proofs into a claim about a named network
// definition: it walks the definition's body, placing the given component
// proofs at their references, applying the parallelism rule at
// compositions (concluding the conjunction of the component assertions),
// weakening to `final` with the consequence rule at the outermost point
// below any hiding, and finishing with chan and unfold — the exact shape of
// the paper's §2.2(3) proof.
func Network(env sem.Env, netName string, components map[string]proof.Proof, componentClaims map[string]assertion.A, final assertion.A) (proof.Proof, error) {
	def, ok := env.Module().Lookup(netName)
	if !ok {
		return nil, fmt.Errorf("auto: network %q not defined", netName)
	}
	if def.IsArray() {
		return nil, fmt.Errorf("auto: network %q must not be a process array", netName)
	}
	n := &netSynth{env: env, comps: components, claims: componentClaims}
	inner, innerA, err := n.glue(def.Body, 0)
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(innerA, final) {
		inner = proof.Consequence{Premise: inner, To: final}
	}
	// The deferred wrappers — hiding layers and the definitional unfolds
	// above them — apply outside the consequence weakening, innermost
	// first: the weakened assertion must avoid every hidden channel, and
	// each unfold must name the layer it actually unfolds.
	for _, wrap := range n.wrappers {
		inner = wrap(inner)
	}
	// Finally, conclude about the network's name rather than its body.
	return proof.Unfold{Ref: syntax.Ref{Name: netName}, Premise: inner}, nil
}

type netSynth struct {
	env    sem.Env
	comps  map[string]proof.Proof
	claims map[string]assertion.A
	// wrappers are deferred proof layers (ChanIntro and the Unfolds above
	// any hiding), recorded innermost-first during the walk.
	wrappers []func(proof.Proof) proof.Proof
}

// glue walks the network structure, returning the proof of the composed
// conjunction and the assertion it concludes. Layers above a hiding are
// deferred into n.wrappers so the final weakening can slot in beneath them.
func (n *netSynth) glue(p syntax.Proc, depth int) (proof.Proof, assertion.A, error) {
	switch t := p.(type) {
	case syntax.Ref:
		if pr, ok := n.comps[t.Name]; ok {
			a, ok := n.claims[t.Name]
			if !ok {
				return nil, nil, fmt.Errorf("auto: component %q has a proof but no recorded claim", t.Name)
			}
			return pr, a, nil
		}
		if depth >= maxUnfolds {
			return nil, nil, fmt.Errorf("auto: unfolding of %s exceeded %d levels", t, maxUnfolds)
		}
		body, err := n.env.Instantiate(t)
		if err != nil {
			return nil, nil, err
		}
		before := len(n.wrappers)
		inner, a, err := n.glue(body, depth+1)
		if err != nil {
			return nil, nil, err
		}
		if len(n.wrappers) > before {
			// A hiding below this reference was deferred; the unfold must
			// stay above it, so defer it too.
			n.wrappers = append(n.wrappers, func(pr proof.Proof) proof.Proof {
				return proof.Unfold{Ref: t, Premise: pr}
			})
			return inner, a, nil
		}
		return proof.Unfold{Ref: t, Premise: inner}, a, nil
	case syntax.Par:
		l, la, err := n.glue(t.L, depth)
		if err != nil {
			return nil, nil, err
		}
		r, ra, err := n.glue(t.R, depth)
		if err != nil {
			return nil, nil, err
		}
		return proof.Parallelism{P1: l, P2: r, AlphaL: t.AlphaL, AlphaR: t.AlphaR},
			assertion.And{L: la, R: ra}, nil
	case syntax.Hiding:
		inner, a, err := n.glue(t.Body, depth)
		if err != nil {
			return nil, nil, err
		}
		// Defer the ChanIntro: the consequence weakening must happen
		// before hiding, so the hidden channels disappear from the
		// assertion first.
		n.wrappers = append(n.wrappers, func(pr proof.Proof) proof.Proof {
			return proof.ChanIntro{Channels: t.Channels, Premise: pr}
		})
		return inner, a, nil
	default:
		return nil, nil, fmt.Errorf("auto: network glue cannot handle %T; give component proofs for it", p)
	}
}
