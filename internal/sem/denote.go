package sem

import (
	"context"
	"fmt"
	"sort"
	"time"

	"cspsat/internal/closure"
	"cspsat/internal/csperr"
	"cspsat/internal/pool"
	"cspsat/internal/progress"
	"cspsat/internal/syntax"
	"cspsat/internal/trace"
)

// Denoter computes the denotational semantics of §3.2–3.3: μ⟦P⟧ρ as a
// prefix closure, approximated to a finite trace-length window. Recursive
// definitions are given meaning exactly as the paper does — by the
// increasing approximation chain a₀ = ⟦STOP⟧, a(i+1) = ⟦P⟧(ρ[aᵢ/p]) — with
// the chain iterated until the window stabilises.
//
// Each pass of the chain is a Jacobi pass, run on the calling goroutine:
// every registered instance is evaluated against the previous pass's
// approximations, which the new ones replace only after the whole pass.
//
// Two approximation caveats, both documented in DESIGN.md §3:
//
//   - Sampling. The paper's input semantics is a union over all values of
//     M, which this engine makes finite by enumerating the sampled domain.
//     Because each side of a parallel composition is materialised
//     separately, an internal communication whose value falls outside the
//     sample (e.g. a computed partial sum exceeding the NAT width) is lost
//     at composition time.
//
//   - Hiding. (chan L; P) erases L-events, so a visible window of depth d
//     requires P explored to d plus the hidden chatter; HideSlack bounds
//     that chatter. A network that can perform unboundedly many hidden
//     events before a visible one (the protocol's NACK retransmission
//     loop) is complete only for the minimal-chatter paths within the
//     slack. Materialised trace sets grow combinatorially with window
//     depth under parallel interleaving, so the slack is deliberately
//     modest by default.
//
// The operational engine (internal/op) synchronises offers exactly and
// τ-closes with cycle detection, so it has neither limitation; use Denoter
// as the literal reference model and internal/op as the primary engine.
// Their agreement on the paper's systems is checked in tests (E12).
type Denoter struct {
	// Depth is the trace-length window: the result contains every trace of
	// the process of length ≤ Depth (subject to the caveats above).
	Depth int
	// HideSlack is the extra depth explored under each hiding operator
	// before the hidden events are erased. The default (Depth + 2)
	// suffices when hidden events accompany visible ones about one-to-one,
	// which covers the paper's copier network; raise it for chattier
	// networks at a steep cost in set size.
	HideSlack int
	// MaxBudget caps the total exploration budget regardless of hiding
	// nesting. Without it, a definition that recurses through its own
	// hiding operator would inflate its exploration budget on every chain
	// pass and never stabilise. The default is Depth + 3×HideSlack.
	MaxBudget int

	// Progress, when non-nil, receives a "fixpoint" stage event after each
	// chain pass and a final Done event.
	Progress progress.Func

	approx    map[string]*closure.Set
	budgets   map[string]int
	instances map[string]instance
	iters     int
}

type instance struct {
	body syntax.Proc
	env  Env
}

// NewDenoter returns a denoter with the given trace-length window.
func NewDenoter(depth int) *Denoter {
	return &Denoter{
		Depth:     depth,
		HideSlack: depth + 2,
		MaxBudget: depth + 3*(depth+2),
		approx:    map[string]*closure.Set{},
		budgets:   map[string]int{},
		instances: map[string]instance{},
	}
}

// Iterations reports how many passes of the approximation chain the last
// Denote call needed (the paper's index i such that aᵢ = a(i+1) on the
// window).
func (d *Denoter) Iterations() int { return d.iters }

// Denote computes μ⟦p⟧env restricted to traces of length ≤ d.Depth.
func (d *Denoter) Denote(p syntax.Proc, env Env) (*closure.Set, error) {
	return d.DenoteContext(context.Background(), p, env)
}

// DenoteContext is Denote with cancellation: the chain checks ctx before
// every instance it evaluates and returns an error wrapping
// csperr.ErrCanceled promptly after ctx is done. A panic in an instance's
// evaluation returns as an error wrapping pool.ErrPanic.
func (d *Denoter) DenoteContext(ctx context.Context, p syntax.Proc, env Env) (*closure.Set, error) {
	// Iterate the global approximation chain: every process instance
	// reachable from p is (re)computed against the previous approximations
	// until nothing grows. Termination: each instance's set only grows, is
	// bounded by the finite set of traces of bounded length over the
	// finite sampled alphabet, instance budgets only increase and are
	// bounded by Depth plus the (finite) accumulated hiding slack, and new
	// instances are registered finitely often for the same reason the
	// alphabet walker terminates.
	start := time.Now()
	d.iters = 0
	for {
		if err := pool.Canceled(ctx); err != nil {
			return nil, err
		}
		d.iters++
		changed := false
		keys := make([]string, 0, len(d.instances))
		for k := range d.instances {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		// Snapshot each instance's budget before the pass; a budget raised
		// mid-pass means a deeper use site was discovered and forces another
		// pass.
		befores := make([]int, len(keys))
		for i, k := range keys {
			befores[i] = d.budgets[k]
		}
		// At one worker pool.Run runs the pass inline, checking ctx before
		// each instance and returning a panic in eval as pool.ErrPanic.
		nexts := make([]*closure.Set, len(keys))
		err := pool.Run(ctx, 1, len(keys), func(i int) (err error) {
			inst := d.instances[keys[i]]
			nexts[i], err = d.eval(inst.body, inst.env, befores[i])
			return err
		})
		if err != nil {
			return nil, err
		}
		for i, k := range keys {
			// Union over hash-consed tries returns the canonical node, so
			// the moment the pass adds nothing (a(i+1) = aᵢ) the union IS
			// the previous approximation's node and Same short-circuits the
			// chain with a pointer comparison; Equal is the structural
			// fallback for nodes straddling a closure-cache eviction.
			next := closure.Union(nexts[i], d.approx[k])
			if !next.Same(d.approx[k]) && !next.Equal(d.approx[k]) {
				d.approx[k] = next
				changed = true
			}
			if d.budgets[k] != befores[i] {
				changed = true // a deeper use site was discovered mid-pass
			}
		}
		// The root term is evaluated exactly twice, not once per pass: the
		// first (discovery) pass registers every root-reachable instance
		// and raises their budgets — both determined by the term structure
		// alone, so repeating them is pure waste — and the stable pass
		// computes the answer against the fixed approximations. For deeply
		// composed roots (a hidden n-way parallel product) the root is the
		// most expensive term in the system; skipping its re-evaluation
		// cuts the chain's allocation rate severalfold.
		if d.iters == 1 {
			if _, err := d.eval(p, env, d.Depth); err != nil {
				return nil, err
			}
		}
		d.Progress.Emit(progress.Event{
			Stage:           "fixpoint",
			ChainIterations: d.iters,
			Items:           len(keys),
			Elapsed:         time.Since(start),
		})
		if !changed && len(d.instances) == len(keys) {
			s, err := d.eval(p, env, d.Depth)
			if err != nil {
				return nil, err
			}
			d.Progress.Emit(progress.Event{
				Stage:           "fixpoint",
				ChainIterations: d.iters,
				Items:           len(d.instances),
				Elapsed:         time.Since(start),
				Done:            true,
			})
			return s.TruncateTo(d.Depth), nil
		}
		if d.iters > 10000 {
			return nil, fmt.Errorf("%w: sem: approximation chain did not stabilise after %d iterations", csperr.ErrDepthExceeded, d.iters)
		}
	}
}

func (d *Denoter) eval(p syntax.Proc, env Env, budget int) (*closure.Set, error) {
	if budget <= 0 {
		return closure.Stop(), nil
	}
	switch t := p.(type) {
	case syntax.Stop:
		return closure.Stop(), nil
	case syntax.Ref:
		key, err := d.refKey(t, env)
		if err != nil {
			return nil, err
		}
		cur, ok := d.approx[key]
		if !ok {
			// First encounter: register the instance at a₀ = ⟦STOP⟧ and
			// let the outer chain grow it.
			body, err := env.Instantiate(t)
			if err != nil {
				return nil, err
			}
			cur = closure.Stop()
			d.approx[key] = cur
			d.instances[key] = instance{body: body, env: env}
		}
		if budget > d.budgets[key] {
			d.budgets[key] = budget
		}
		return cur.TruncateTo(budget), nil
	case syntax.Output:
		c, err := env.EvalChanRef(t.Ch)
		if err != nil {
			return nil, err
		}
		v, err := env.EvalExpr(t.Val)
		if err != nil {
			return nil, err
		}
		cont, err := d.eval(t.Cont, env, budget-1)
		if err != nil {
			return nil, err
		}
		return closure.Prefix(trace.Event{Chan: c, Msg: v}, cont), nil
	case syntax.Input:
		c, err := env.EvalChanRef(t.Ch)
		if err != nil {
			return nil, err
		}
		dom, err := env.EvalSet(t.Dom)
		if err != nil {
			return nil, err
		}
		branches := []*closure.Set{}
		for _, v := range dom.Enumerate() {
			cont, err := d.eval(t.Cont, env.Bind(t.Var, v), budget-1)
			if err != nil {
				return nil, err
			}
			branches = append(branches, closure.Prefix(trace.Event{Chan: c, Msg: v}, cont))
		}
		return closure.UnionAll(branches...), nil
	case syntax.Alt:
		l, err := d.eval(t.L, env, budget)
		if err != nil {
			return nil, err
		}
		r, err := d.eval(t.R, env, budget)
		if err != nil {
			return nil, err
		}
		return closure.Union(l, r), nil
	case syntax.IChoice:
		// The trace model cannot distinguish internal from external
		// choice — both denote the union (the §4 defect this operator
		// exists to expose; internal/failures tells them apart).
		l, err := d.eval(t.L, env, budget)
		if err != nil {
			return nil, err
		}
		r, err := d.eval(t.R, env, budget)
		if err != nil {
			return nil, err
		}
		return closure.Union(l, r), nil
	case syntax.Par:
		return d.evalPar(t, env, budget)
	case syntax.Hiding:
		hidden, err := env.EvalChanItems(t.Channels)
		if err != nil {
			return nil, err
		}
		inner, err := d.eval(t.Body, env, d.capBudget(budget+d.HideSlack))
		if err != nil {
			return nil, err
		}
		return closure.Hide(inner, hidden).TruncateTo(budget), nil
	default:
		return nil, fmt.Errorf("sem: cannot denote process form %T", p)
	}
}

// parLeaf is one operand of a flattened parallel spine, paired with its
// inferred alphabet.
type parLeaf struct {
	p     syntax.Proc
	alpha trace.Set
}

// collectParLeaves flattens a spine of inferred-alphabet compositions into
// its operand list. A node carrying an explicit alphabet is kept whole (it
// becomes a single leaf), because the reorder in evalPar is only provably
// sound when every operand's alphabet covers its actual events — which
// inference guarantees and a declaration does not.
func collectParLeaves(p syntax.Proc, env Env, out []parLeaf) ([]parLeaf, error) {
	if t, ok := p.(syntax.Par); ok && t.AlphaL == nil && t.AlphaR == nil {
		out, err := collectParLeaves(t.L, env, out)
		if err != nil {
			return nil, err
		}
		return collectParLeaves(t.R, env, out)
	}
	a, err := Alphabet(p, env)
	if err != nil {
		return nil, err
	}
	return append(out, parLeaf{p: p, alpha: a}), nil
}

// evalPar denotes a parallel composition. Binary and explicit-alphabet
// compositions take the direct product; a fully inferred spine of three or
// more operands is folded in a greedily chosen order instead of source
// order. Alphabetized parallel is associative and commutative in the trace
// model — s is in the n-ary composition iff s↾αi ∈ Pi for every operand,
// regardless of bracketing — so the final canonical set is identical for
// any fold order, but the intermediate products are not: source order can
// put mutually independent operands first (specs/philosophers.csp lists
// the three forks before any philosopher), whose product is an
// interleaving blow-up that the next fold steps mostly discard. Starting
// from the first operand and always folding in the operand sharing the
// most channels with the accumulated alphabet keeps every intermediate
// product synchronised, which on the philosophers table cuts the trie work
// (and so the fixpoint chain's allocation rate) severalfold.
func (d *Denoter) evalPar(t syntax.Par, env Env, budget int) (*closure.Set, error) {
	leaves, err := collectParLeaves(t, env, nil)
	if err == nil && len(leaves) > 2 {
		vals := make([]*closure.Set, len(leaves))
		for i, lf := range leaves {
			// Source evaluation order, so instance discovery and budget
			// raising happen exactly as the direct fold would do them.
			if vals[i], err = d.eval(lf.p, env, budget); err != nil {
				return nil, err
			}
		}
		used := make([]bool, len(leaves))
		cur, alpha := vals[0], leaves[0].alpha
		used[0] = true
		for range leaves[1:] {
			best, shared := -1, -1
			for i, u := range used {
				if u {
					continue
				}
				if n := alpha.Intersect(leaves[i].alpha).Len(); n > shared {
					best, shared = i, n
				}
			}
			cur = closure.ParallelTo(cur, vals[best], alpha, leaves[best].alpha, budget)
			alpha = alpha.Union(leaves[best].alpha)
			used[best] = true
		}
		return cur, nil
	}
	// Binary or explicit-alphabet composition — and the fallback when
	// alphabet inference fails, so ParAlphabets can surface that error
	// with its usual context.
	x, y, err := ParAlphabets(t, env)
	if err != nil {
		return nil, err
	}
	l, err := d.eval(t.L, env, budget)
	if err != nil {
		return nil, err
	}
	r, err := d.eval(t.R, env, budget)
	if err != nil {
		return nil, err
	}
	return closure.ParallelTo(l, r, x, y, budget), nil
}

func (d *Denoter) capBudget(b int) int {
	maxB := d.MaxBudget
	if maxB <= 0 {
		maxB = d.Depth + 3*(d.Depth+2)
	}
	if b > maxB {
		return maxB
	}
	return b
}

func (d *Denoter) refKey(r syntax.Ref, env Env) (string, error) {
	if r.Sub == nil {
		return r.Name, nil
	}
	v, err := env.EvalExpr(r.Sub)
	if err != nil {
		return "", fmt.Errorf("sem: denoting %s: %w", r, err)
	}
	return r.Name + "[" + v.Key() + "]", nil
}

// Denote is a convenience wrapper computing μ⟦p⟧env to the given depth with
// a fresh Denoter.
func Denote(p syntax.Proc, env Env, depth int) (*closure.Set, error) {
	return NewDenoter(depth).Denote(p, env)
}
