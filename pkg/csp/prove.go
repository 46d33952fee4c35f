// Automatic proving of a module's assert clauses — the engine behind
// cmd/cspprove and the server's /v1/prove endpoint. The strategy mirrors
// the shape of the paper's own development:
//
//  1. Asserts about (possibly arrayed) recursive definitions become goals
//     for the recursion rule, attempted jointly first (mutual recursion,
//     as in Table 1 where sender's claim needs q's); goals whose synthesis
//     fails are dropped from the joint attempt and retried individually —
//     the retries are verified as one batch across the Workers pool.
//  2. Asserts about network definitions (parallel compositions, possibly
//     hidden and named) are assembled from the proofs of phase 1 with the
//     parallelism/consequence/chan/unfold glue — the §2.2(3) six-step
//     shape.
//
// Pure side conditions are discharged by bounded validity; every accepted
// proof is fully re-verified by the rule checker.
package csp

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"cspsat/internal/assertion"
	"cspsat/internal/auto"
	"cspsat/internal/parser"
	"cspsat/internal/pool"
	"cspsat/internal/proof"
	"cspsat/internal/syntax"
)

// ProveResult reports the automatic prover's outcome for one provable
// assert clause, in the order the driver attempted them (recursion goals
// in declaration order, then network asserts in declaration order).
// Refinement asserts and asserts about undefined or non-reference
// processes are not provable by this driver and yield no result.
type ProveResult struct {
	// Decl is the assert clause as written in the source.
	Decl string
	// Name is the defined process the claim is about.
	Name string
	// A is the claim proved or attempted (quantified array asserts are
	// normalised onto the definition's parameter first).
	A Assertion
	// Method records how the proof was found: "recursion" (individual
	// application), "recursion (joint)" (established by a mutual-recursion
	// application shared with other goals), or "network glue".
	Method string
	// OK is true when a fully checked proof was found.
	OK bool
	// Err is the synthesis or checking failure when OK is false. The
	// assert may still hold — use model checking for refutation.
	Err error
	// Proof is the verified proof object when OK is true, for rendering.
	Proof Proof
}

// ProveAsserts synthesises and checks §2.1-style proofs for the module's
// assert clauses using the automatic prover. log, when non-nil, receives
// one line per verified rule application. The returned error is non-nil
// only when the source does not parse or ctx was canceled; individual
// unprovable asserts are reported per-result, and results produced before
// the cancellation are returned alongside the error.
func (m *Module) ProveAsserts(ctx context.Context, opts CheckOptions, log func(string)) ([]ProveResult, error) {
	if err := m.parsed(); err != nil {
		return nil, err
	}
	prover := m.Prover(ctx, opts)
	if log != nil {
		prover.Log = log
	}
	d := &proveDriver{
		mod:    m,
		ctx:    ctx,
		opts:   opts,
		prover: prover,
		proved: map[string][]provedEntry{},
		joint:  map[string]bool{},
	}
	return d.run()
}

// proveDriver carries the state of one ProveAsserts invocation.
type proveDriver struct {
	mod    *Module
	ctx    context.Context
	opts   CheckOptions
	prover *proof.Checker
	// proved collects every established claim (with its proof) per
	// definition; phase 2's network glue picks the combination that makes
	// the final weakening go through.
	proved map[string][]provedEntry
	// joint marks name+assert keys established by the joint recursion
	// attempt, so their results can say so.
	joint map[string]bool
}

type provedEntry struct {
	a  assertion.A
	pr proof.Proof
}

// goalEntry pairs a recursion goal with the assert it came from and its
// output slot in the results.
type goalEntry struct {
	goal auto.Goal
	decl string
	line int
	err  error // why the assert could not be made a goal, if it could not
}

func (d *proveDriver) run() ([]ProveResult, error) {
	recGoals, netDecls := d.classify()
	results := make([]ProveResult, 0, len(recGoals)+len(netDecls))

	// Phase 1: joint recursion, shedding unsynthesisable goals.
	pending := make([]auto.Goal, 0, len(recGoals))
	seenName := map[string]bool{}
	for _, e := range recGoals {
		// Conflicting claims about the same definition cannot share one
		// recursion application; keep the first for the joint attempt.
		if e.err == nil && !seenName[e.goal.Name] {
			seenName[e.goal.Name] = true
			pending = append(pending, e.goal)
		}
	}
	for len(pending) > 0 {
		if err := pool.Canceled(d.ctx); err != nil {
			return results, err
		}
		pr, err := auto.Recursive(d.mod.Env(), pending)
		if err != nil {
			var ge *auto.GoalError
			if errors.As(err, &ge) {
				pending = dropGoal(pending, ge.Name)
				continue
			}
			break
		}
		if _, err := d.prover.Check(pr); err != nil {
			// The joint candidate failed checking; fall back to
			// individual attempts for everything.
			break
		}
		for i, g := range pending {
			d.markProved(g, pending, i)
		}
		break
	}

	recResults, err := d.proveRemaining(recGoals)
	results = append(results, recResults...)
	if err != nil {
		return results, err
	}

	// Phase 2: network asserts glued from phase 1's component proofs,
	// trying every combination of established component claims.
	for _, decl := range netDecls {
		if err := pool.Canceled(d.ctx); err != nil {
			return results, err
		}
		ref := decl.Proc.(syntax.Ref)
		res := ProveResult{Decl: decl.String(), Name: ref.Name, A: decl.A, Method: "network glue"}
		pr, err := d.proveNetwork(ref.Name, decl.A)
		if err != nil {
			res.Err = err
		} else {
			res.OK = true
			res.Proof = pr
		}
		results = append(results, res)
	}
	return results, nil
}

// proveRemaining covers every recursion goal the joint attempt left
// unproved: each is synthesised individually, then the synthesised
// candidates are verified as one batch across the worker pool. Results
// keep goal order regardless of batch completion order.
func (d *proveDriver) proveRemaining(recGoals []goalEntry) ([]ProveResult, error) {
	results := make([]ProveResult, len(recGoals))
	var obs []Obligation
	var obsGoal []goalEntry // parallel to obs: the goal each obligation proves
	for i, e := range recGoals {
		results[i] = ProveResult{Decl: e.decl, Name: e.goal.Name, A: e.goal.A, Method: "recursion"}
		if e.err != nil {
			results[i].Err = e.err
			continue
		}
		if entry, ok := d.findProved(e.goal.Name, e.goal.A); ok {
			results[i].OK = true
			results[i].Proof = entry.pr
			if d.joint[provedKey(e.goal.Name, e.goal.A)] {
				results[i].Method = "recursion (joint)"
			}
			continue
		}
		pr, err := auto.Recursive(d.mod.Env(), []auto.Goal{e.goal})
		if err != nil {
			results[i].Err = err
			continue
		}
		obs = append(obs, Obligation{Name: e.decl, Proof: pr})
		obsGoal = append(obsGoal, goalEntry{goal: e.goal, decl: e.decl, line: i})
	}
	if len(obs) > 0 {
		// A cancellation error surfaces as Err on the unprocessed entries.
		batch, err := d.mod.CheckBatch(d.ctx, obs, d.opts)
		for bi, r := range batch {
			e := obsGoal[bi]
			if r.Err != nil {
				results[e.line].Err = r.Err
				continue
			}
			d.addProved(e.goal.Name, e.goal.A, obs[bi].Proof)
			results[e.line].OK = true
			results[e.line].Proof = obs[bi].Proof
		}
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// proveNetwork tries the network glue with each combination of proved
// component claims (the combination count is the product of per-name claim
// counts, small in practice), returning the first fully checked proof.
func (d *proveDriver) proveNetwork(name string, final assertion.A) (proof.Proof, error) {
	names := make([]string, 0, len(d.proved))
	for n := range d.proved {
		names = append(names, n)
	}
	sort.Strings(names)
	idx := make([]int, len(names))
	var lastErr error
	for {
		comps := map[string]proof.Proof{}
		claims := map[string]assertion.A{}
		for i, n := range names {
			e := d.proved[n][idx[i]]
			comps[n] = e.pr
			claims[n] = e.a
		}
		pr, err := auto.Network(d.mod.Env(), name, comps, claims, final)
		if err == nil {
			if _, err = d.prover.Check(pr); err == nil {
				return pr, nil
			}
		}
		lastErr = err
		i := 0
		for ; i < len(names); i++ {
			idx[i]++
			if idx[i] < len(d.proved[names[i]]) {
				break
			}
			idx[i] = 0
		}
		if i == len(names) {
			if lastErr == nil {
				lastErr = fmt.Errorf("no proved component claims available")
			}
			return nil, lastErr
		}
	}
}

func provedKey(name string, a assertion.A) string {
	return name + " sat " + fmt.Sprint(a)
}

func (d *proveDriver) findProved(name string, a assertion.A) (provedEntry, bool) {
	want := fmt.Sprint(a)
	for _, e := range d.proved[name] {
		if fmt.Sprint(e.a) == want {
			return e, true
		}
	}
	return provedEntry{}, false
}

func (d *proveDriver) addProved(name string, a assertion.A, pr proof.Proof) {
	if _, ok := d.findProved(name, a); ok {
		return
	}
	d.proved[name] = append(d.proved[name], provedEntry{a: a, pr: pr})
}

// markProved records a joint-recursion goal's proof for reuse by the
// network glue: the same joint proof is regenerated with this goal's
// definition leading, so its claim is the conclusion (the recursion rule
// establishes all participating claims; Main selects which one the proof
// object reports).
func (d *proveDriver) markProved(g auto.Goal, joint []auto.Goal, idx int) {
	if _, ok := d.findProved(g.Name, g.A); ok {
		return
	}
	rotated := make([]auto.Goal, 0, len(joint))
	rotated = append(rotated, joint[idx])
	rotated = append(rotated, joint[:idx]...)
	rotated = append(rotated, joint[idx+1:]...)
	if pr, err := auto.Recursive(d.mod.Env(), rotated); err == nil {
		d.addProved(g.Name, g.A, pr)
		d.joint[provedKey(g.Name, g.A)] = true
	}
}

// classify splits asserts into recursion goals and network-shaped asserts.
func (d *proveDriver) classify() (goals []goalEntry, netDecls []parser.AssertDecl) {
	for _, decl := range d.mod.Asserts() {
		if decl.A == nil {
			continue // refinement asserts are the model checker's business
		}
		ref, ok := decl.Proc.(syntax.Ref)
		if !ok {
			continue
		}
		def, found := d.mod.Syntax().Lookup(ref.Name)
		if !found {
			continue
		}
		if len(decl.Quants) == 0 && ref.Sub == nil {
			if isNetworkDef(def.Body) {
				netDecls = append(netDecls, decl)
				continue
			}
			goals = append(goals, goalEntry{goal: auto.Goal{Name: ref.Name, A: decl.A}, decl: decl.String()})
			continue
		}
		if len(decl.Quants) == 1 && ref.Sub != nil && def.IsArray() {
			v, isVar := ref.Sub.(syntax.Var)
			if !isVar || v.Name != decl.Quants[0].Var {
				continue
			}
			e := goalEntry{goal: auto.Goal{Name: ref.Name, A: decl.A}, decl: decl.String()}
			if v.Name != def.Param {
				if a, err := assertion.SubstVar(decl.A, v.Name, assertion.Var(def.Param)); err != nil {
					e.err = err
				} else {
					e.goal.A = a
				}
			}
			goals = append(goals, e)
		}
	}
	return goals, netDecls
}

// isNetworkDef reports whether a definition's body is a composition shape
// (parallel or hiding, possibly through references) rather than a
// communicating process.
func isNetworkDef(p syntax.Proc) bool {
	switch p.(type) {
	case syntax.Par, syntax.Hiding:
		return true
	default:
		return false
	}
}

func dropGoal(gs []auto.Goal, name string) []auto.Goal {
	out := gs[:0]
	for _, g := range gs {
		if g.Name != name {
			out = append(out, g)
		}
	}
	return out
}
