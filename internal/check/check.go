// Package check is the model checker: it decides "P sat R" by exhaustive
// enumeration of P's traces to a depth bound, evaluating R on the channel
// histories ch(s) of every trace — which is exactly the paper's semantics
// of sat (§3.3): ρ⟦P sat R⟧ = ∀s. s ∈ ρ⟦P⟧ ⇒ (ρ + ch(s))⟦R⟧, restricted to
// traces of bounded length over the sampled message domains.
//
// A failure is therefore a genuine counterexample; a pass is exhaustive up
// to the recorded bound. The package also provides trace refinement and
// trace equivalence between processes.
package check

import (
	"context"
	"fmt"

	"cspsat/internal/assertion"
	"cspsat/internal/closure"
	"cspsat/internal/failures"
	"cspsat/internal/model"
	"cspsat/internal/op"
	"cspsat/internal/sem"
	"cspsat/internal/syntax"
	"cspsat/internal/trace"
)

// Violation is a counterexample to P sat R: a trace of P whose history
// falsifies R.
type Violation struct {
	Trace trace.T
	Hist  trace.History
}

func (v *Violation) String() string {
	return fmt.Sprintf("trace %s gives %s", v.Trace, v.Hist)
}

// Result reports the outcome of a Sat check.
type Result struct {
	// OK is true when every explored trace satisfied the assertion.
	OK bool
	// Counter holds the first violating trace when OK is false and the
	// violation is a history one.
	Counter *Violation
	// Refusal holds the violating stable state when OK is false and the
	// assertion was behavioural (deadlockfree / offers) checked under the
	// failures model.
	Refusal *failures.CheckResult
	// Vacuous reports that a behavioural assertion was checked under the
	// trace model, where it holds for want of expressiveness (the paper's
	// §4: STOP satisfies every satisfiable trace assertion). OK is true
	// but the verdict says nothing about refusals.
	Vacuous bool
	// Model is the semantic model the verdict was computed under.
	Model model.Model
	// TracesChecked counts the traces (including all prefixes) examined.
	TracesChecked int
	// Depth is the trace-length bound the check is exhaustive up to.
	Depth int
}

func (r Result) String() string {
	if r.OK {
		if r.Vacuous {
			return fmt.Sprintf("sat holds vacuously under the trace model (refusals invisible; re-check with the failures model), depth %d", r.Depth)
		}
		return fmt.Sprintf("sat holds on all %d traces up to depth %d", r.TracesChecked, r.Depth)
	}
	if r.Refusal != nil {
		return fmt.Sprintf("sat VIOLATED: %s", r.Refusal)
	}
	return fmt.Sprintf("sat VIOLATED: %s (after %d traces, depth %d)", r.Counter, r.TracesChecked, r.Depth)
}

// Checker bundles the pieces a Sat check needs. The zero value is not
// usable; construct with New.
type Checker struct {
	env   sem.Env
	funcs *assertion.Registry
	depth int

	// Ctx, when non-nil, bounds every trace enumeration this checker runs;
	// once done, checks return an error wrapping csperr.ErrCanceled.
	Ctx context.Context
	// Workers > 1 fans the trace exploration's BFS frontier across a
	// worker pool (see op.Explorer.Workers); the results are node-identical
	// to the serial path.
	Workers int
	// Model selects the semantic model verdicts are computed under. The
	// zero value is the trace model of the paper; model.Failures switches
	// Refines/Equivalent to stable-failures refinement and discharges
	// behavioural assertions (deadlockfree, offers) against the failures
	// model instead of vacuously.
	Model model.Model
}

// New returns a checker over the module environment with the given trace
// depth bound. funcs may be nil when assertions use no registered functions.
func New(env sem.Env, funcs *assertion.Registry, depth int) *Checker {
	if funcs == nil {
		funcs = assertion.NewRegistry()
	}
	return &Checker{env: env, funcs: funcs, depth: depth}
}

// Depth returns the trace-length bound.
func (c *Checker) Depth() int { return c.depth }

// context returns the context the checker's engines run under.
func (c *Checker) context() context.Context {
	if c.Ctx == nil {
		return context.Background()
	}
	return c.Ctx
}

// traces enumerates p's traces under the checker's context and worker
// configuration.
func (c *Checker) traces(p syntax.Proc) (*closure.Set, error) {
	return op.TracesContext(c.context(), p, c.env, c.depth, c.Workers)
}

// Sat checks P sat R: every trace of p (to the depth bound) must satisfy a.
// Free variables of a must be bound in the checker's environment or
// quantified inside a.
func (c *Checker) Sat(p syntax.Proc, a assertion.A) (Result, error) {
	if assertion.Behavioural(a) {
		return c.satBehavioural(p, a)
	}
	traces, err := c.traces(p)
	if err != nil {
		return Result{}, fmt.Errorf("check: enumerating traces of %s: %w", p, err)
	}
	res := Result{OK: true, Depth: c.depth, Model: c.Model}
	// The history is maintained incrementally across the DFS rather than
	// recomputed as ch(s) per trace: push appends the message, pop trims it.
	hist := make(trace.History)
	ctx := assertion.NewCtx(c.env, hist, c.funcs)
	var evalErr error
	traces.WalkDFS(
		func(path trace.T) bool {
			res.TracesChecked++
			ok, err := assertion.Eval(a, ctx)
			if err != nil {
				evalErr = fmt.Errorf("check: evaluating %s after %s: %w", a, path, err)
				return false
			}
			if !ok {
				cp := make(trace.T, len(path))
				copy(cp, path)
				res.OK = false
				res.Counter = &Violation{Trace: cp, Hist: hist.Clone()}
				return false
			}
			return true
		},
		func(ev trace.Event) { hist[ev.Chan] = append(hist[ev.Chan], ev.Msg) },
		func(ev trace.Event) { hist[ev.Chan] = hist[ev.Chan][:len(hist[ev.Chan])-1] },
	)
	if evalErr != nil {
		return Result{}, evalErr
	}
	return res, nil
}

// satBehavioural discharges a refusal-level assertion. Under the trace
// model the verdict is vacuously OK — traces cannot see refusals, which is
// the paper's §4 limitation this form exists to escape. Under the failures
// model the process's acceptance families are computed and checked.
func (c *Checker) satBehavioural(p syntax.Proc, a assertion.A) (Result, error) {
	if c.Model != model.Failures {
		return Result{OK: true, Vacuous: true, Depth: c.depth, Model: c.Model}, nil
	}
	fm, err := c.failuresModel(p)
	if err != nil {
		return Result{}, err
	}
	var fr failures.CheckResult
	switch x := a.(type) {
	case assertion.DeadlockFree:
		fr = fm.CheckDeadlockFree()
	case assertion.Offers:
		chans := make([]trace.Chan, len(x.Chans))
		for i, ch := range x.Chans {
			chans[i] = trace.Chan(ch)
		}
		fr = fm.CheckOffers(chans)
	default:
		return Result{}, fmt.Errorf("check: unknown behavioural assertion %T", a)
	}
	res := Result{OK: fr.OK, Depth: c.depth, Model: c.Model, TracesChecked: len(fm.Traces())}
	if !fr.OK {
		fr := fr
		res.Refusal = &fr
	}
	return res, nil
}

// failuresModel computes p's stable-failures model under the checker's
// context and depth bound.
func (c *Checker) failuresModel(p syntax.Proc) (*failures.Model, error) {
	fm, err := failures.ComputeContext(c.context(), p, c.env, c.depth)
	if err != nil {
		return nil, fmt.Errorf("check: computing failures of %s: %w", p, err)
	}
	return fm, nil
}

// RefineResult reports a refinement check under some semantic model.
type RefineResult struct {
	OK bool
	// Witness is a trace of the implementation that the specification
	// cannot perform, when OK is false. Set under both models (a failures
	// counterexample always includes its trace).
	Witness trace.T
	// Failure is the violating stable failure (s, X) when OK is false and
	// the check ran under the failures model: after Witness the
	// implementation can stably refuse everything outside
	// Failure.ImplAcceptance, which no acceptance of the specification
	// permits. Nil under the trace model, and nil under the failures model
	// when the violation was already at the trace level.
	Failure *failures.Counterexample
	// Model is the semantic model the verdict was computed under.
	Model model.Model
	Depth int
}

func (r RefineResult) String() string {
	if r.OK {
		return fmt.Sprintf("%s refinement holds up to depth %d", r.Model, r.Depth)
	}
	if r.Failure != nil && r.Failure.ImplAcceptance != nil {
		return fmt.Sprintf("%s refinement FAILS: after %s impl stably offers only %s, which spec never permits (depth %d)",
			r.Model, r.Witness, r.Failure.ImplAcceptance, r.Depth)
	}
	return fmt.Sprintf("%s refinement FAILS: impl performs %s which spec cannot (depth %d)", r.Model, r.Witness, r.Depth)
}

// Refines checks refinement of impl against spec up to the depth bound
// under the checker's model: trace refinement (traces(impl) ⊆ traces(spec),
// the natural ordering of the paper's prefix-closure model) by default, or
// stable-failures refinement under model.Failures.
func (c *Checker) Refines(impl, spec syntax.Proc) (RefineResult, error) {
	if c.Model == model.Failures {
		return c.refinesFailures(impl, spec)
	}
	ti, err := c.traces(impl)
	if err != nil {
		return RefineResult{}, err
	}
	ts, err := c.traces(spec)
	if err != nil {
		return RefineResult{}, err
	}
	if w := ti.FirstNotIn(ts); w != nil {
		return RefineResult{OK: false, Witness: w, Depth: c.depth, Model: c.Model}, nil
	}
	return RefineResult{OK: true, Depth: c.depth, Model: c.Model}, nil
}

// refinesFailures checks stable-failures refinement: trace inclusion plus,
// after every shared trace, every stable acceptance of the implementation
// must include some acceptance of the specification (so the implementation
// never refuses a set the specification must accept).
func (c *Checker) refinesFailures(impl, spec syntax.Proc) (RefineResult, error) {
	fi, err := c.failuresModel(impl)
	if err != nil {
		return RefineResult{}, err
	}
	fs, err := c.failuresModel(spec)
	if err != nil {
		return RefineResult{}, err
	}
	cex, err := failures.Refines(fi, fs)
	if err != nil {
		return RefineResult{}, err
	}
	if cex != nil {
		return RefineResult{OK: false, Witness: cex.Trace, Failure: cex, Depth: c.depth, Model: c.Model}, nil
	}
	return RefineResult{OK: true, Depth: c.depth, Model: c.Model}, nil
}

// Deadlocks searches for reachable stuck configurations to the depth
// bound. A sat-check cannot see them (the paper's §4 limitation: STOP
// satisfies every satisfiable assertion); this is the complementary
// analysis that can. It runs under the checker's context.
func (c *Checker) Deadlocks(p syntax.Proc) ([]op.Deadlock, error) {
	return op.FindDeadlocks(c.context(), op.NewState(p, c.env), c.depth)
}

// Equivalent checks trace equivalence of two processes up to the depth
// bound. In the prefix-closure model equivalence is mutual refinement; the
// paper's §4 observation that STOP | P = P is checkable this way.
func (c *Checker) Equivalent(p, q syntax.Proc) (RefineResult, error) {
	r1, err := c.Refines(p, q)
	if err != nil {
		return RefineResult{}, err
	}
	if !r1.OK {
		return r1, nil
	}
	return c.Refines(q, p)
}
