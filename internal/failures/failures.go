// Package failures implements the "more realistic model of non-determinism"
// that the paper's conclusion hopes for: the stable-failures model. A
// failure of P is a pair (s, X) — P can perform trace s, reach a *stable*
// state (one with no pending internal step), and then refuse every
// communication in X.
//
// The paper's §4 complaint is that its prefix-closure model identifies
// STOP | P with P. In this model the two come apart for *internal* choice:
// STOP |~| P has the failure (<>, Σ) — it may refuse everything — while P
// (for communicating P) does not. The trace-model identification of
// external choice remains, as it should: the paper's | merges offers.
//
// Failures are represented by acceptance families: for each trace, the set
// of initials-sets of the stable states reachable after it. (s, X) is a
// failure iff some acceptance after s is disjoint from X, so refinement
// has the classic characterisation: impl ⊑F spec iff traces(impl) ⊆
// traces(spec) and every impl acceptance after s contains some spec
// acceptance after s.
//
// Divergence (a τ-cycle) is outside the stable-failures story by
// construction: a diverging branch contributes no stable state and hence
// no failures, matching the classic model's treatment (divergence is a
// separate refinement order not implemented here).
package failures

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"cspsat/internal/op"
	"cspsat/internal/sem"
	"cspsat/internal/syntax"
	"cspsat/internal/trace"
)

// Acceptance is the set of communications a stable state offers, in
// canonical (sorted, deduplicated) order. The empty acceptance is a
// deadlocked stable state: it refuses everything.
type Acceptance []trace.Event

func (a Acceptance) key() string {
	parts := make([]string, len(a))
	for i, e := range a {
		parts[i] = e.String()
	}
	return strings.Join(parts, ",")
}

// String renders the acceptance as an event set.
func (a Acceptance) String() string { return "{" + a.key() + "}" }

// contains reports whether the acceptance offers the event.
func (a Acceptance) contains(e trace.Event) bool {
	for _, x := range a {
		if x.Chan == e.Chan && x.Msg.Equal(e.Msg) {
			return true
		}
	}
	return false
}

// subset reports a ⊆ b.
func (a Acceptance) subset(b Acceptance) bool {
	for _, e := range a {
		if !b.contains(e) {
			return false
		}
	}
	return true
}

// Model is the stable-failures semantics of one process up to a trace
// depth: its visible traces with, per trace, the acceptance family of the
// stable states reachable after it.
type Model struct {
	depth  int
	traces map[string]*entry
	order  []string
}

type entry struct {
	trace trace.T
	accs  []Acceptance
}

// Depth returns the trace-length bound the model is exhaustive up to.
func (m *Model) Depth() int { return m.depth }

// Compute explores the process and builds its stable-failures model to the
// given visible-trace depth.
func Compute(p syntax.Proc, env sem.Env, depth int) (*Model, error) {
	return ComputeContext(context.Background(), p, env, depth)
}

// ComputeContext is Compute under a context: the model is read off
// op.Explorer.Walk, which checks ctx per explored trace (cancellation
// surfaces as an error wrapping csperr.ErrCanceled, the same discipline as
// every other engine) and caps every τ-closure at op.DefaultMaxTauStates
// (an error wrapping csperr.ErrDepthExceeded).
func ComputeContext(ctx context.Context, p syntax.Proc, env sem.Env, depth int) (*Model, error) {
	m := &Model{depth: depth, traces: map[string]*entry{}}
	err := new(op.Explorer).Walk(ctx, op.NewState(p, env), depth, func(n *op.Node) error {
		steps, err := n.Steps()
		if err != nil {
			return err
		}
		ent := m.entryFor(n.Trace)
		for _, ts := range steps {
			if acc, stable := acceptance(ts); stable {
				ent.add(acc)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// acceptance returns the events offered by a state whose transitions are
// ts, in canonical order, and whether the state is stable (has no τ-step).
func acceptance(ts []op.Transition) (Acceptance, bool) {
	var acc Acceptance
	for _, tr := range ts {
		if tr.Tau {
			return nil, false
		}
		if !acc.contains(tr.Ev) {
			acc = append(acc, tr.Ev)
		}
	}
	slices.SortFunc(acc, trace.Event.Compare)
	return acc, true
}

func (m *Model) entryFor(t trace.T) *entry {
	k := t.IDKey()
	if e, ok := m.traces[k]; ok {
		return e
	}
	cp := make(trace.T, len(t))
	copy(cp, t)
	e := &entry{trace: cp}
	m.traces[k] = e
	m.order = append(m.order, k)
	return e
}

func (e *entry) add(a Acceptance) {
	for _, x := range e.accs {
		if slices.EqualFunc(x, a, sameEvent) {
			return
		}
	}
	e.accs = append(e.accs, a)
}

func sameEvent(x, y trace.Event) bool { return x.ID() == y.ID() }

// Traces returns the model's traces in exploration order.
func (m *Model) Traces() []trace.T {
	out := make([]trace.T, 0, len(m.order))
	for _, k := range m.order {
		out = append(out, m.traces[k].trace)
	}
	return out
}

// Acceptances returns the acceptance family after the given trace; the
// second result is false if the trace is not a trace of the process.
func (m *Model) Acceptances(t trace.T) ([]Acceptance, bool) {
	e, ok := m.traces[t.IDKey()]
	if !ok {
		return nil, false
	}
	return e.accs, true
}

// Refuses reports whether (t, X) is a failure of the process: after t some
// stable state refuses every event of X.
func (m *Model) Refuses(t trace.T, xs []trace.Event) bool {
	e, ok := m.traces[t.IDKey()]
	if !ok {
		return false
	}
	for _, acc := range e.accs {
		disjoint := true
		for _, x := range xs {
			if acc.contains(x) {
				disjoint = false
				break
			}
		}
		if disjoint {
			return true
		}
	}
	return false
}

// CanDeadlock reports whether some trace leads to a stable state that
// refuses everything.
func (m *Model) CanDeadlock() (trace.T, bool) {
	for _, k := range m.order {
		e := m.traces[k]
		for _, acc := range e.accs {
			if len(acc) == 0 {
				return e.trace, true
			}
		}
	}
	return nil, false
}

// Counterexample describes why a failures refinement does not hold.
type Counterexample struct {
	// Trace is where the two processes come apart.
	Trace trace.T
	// ImplAcceptance, when non-nil, is an implementation acceptance with
	// no spec acceptance below it (the impl may refuse something the spec
	// cannot); when nil, the trace itself is not a spec trace.
	ImplAcceptance *Acceptance
}

func (c *Counterexample) String() string {
	if c.ImplAcceptance == nil {
		return fmt.Sprintf("impl performs %s which spec cannot", c.Trace)
	}
	return fmt.Sprintf("after %s impl may offer exactly %s, refusing more than spec allows",
		c.Trace, c.ImplAcceptance)
}

// Refines checks stable-failures refinement impl ⊑F spec on the two models
// (which must have been computed to the same depth): trace inclusion plus,
// per trace, every impl acceptance contains some spec acceptance.
func Refines(impl, spec *Model) (*Counterexample, error) {
	if impl.depth != spec.depth {
		return nil, fmt.Errorf("failures: models computed to different depths (%d vs %d)", impl.depth, spec.depth)
	}
	for _, k := range impl.order {
		ie := impl.traces[k]
		se, ok := spec.traces[k]
		if !ok {
			return &Counterexample{Trace: ie.trace}, nil
		}
		for _, ia := range ie.accs {
			ok := false
			for _, sa := range se.accs {
				if sa.subset(ia) {
					ok = true
					break
				}
			}
			if !ok {
				iaCopy := ia
				return &Counterexample{Trace: ie.trace, ImplAcceptance: &iaCopy}, nil
			}
		}
	}
	return nil, nil
}

// Equivalent checks failures equivalence: mutual refinement plus equal
// trace sets.
func Equivalent(a, b *Model) (*Counterexample, error) {
	if cex, err := Refines(a, b); cex != nil || err != nil {
		return cex, err
	}
	return Refines(b, a)
}

// String summarises the model, one line per trace, for display and tests.
func (m *Model) String() string {
	var sb strings.Builder
	for _, k := range m.order {
		e := m.traces[k]
		parts := make([]string, len(e.accs))
		for i, a := range e.accs {
			parts[i] = a.String()
		}
		sort.Strings(parts)
		fmt.Fprintf(&sb, "%s : %s\n", e.trace, strings.Join(parts, " "))
	}
	return sb.String()
}

// Divergence detection: a process diverges after trace s when a τ-cycle is
// reachable — it can engage in internal chatter forever without offering
// anything. The paper's introduction remarks that evading fairness "seems
// to be a merit"; divergence is precisely where that evasion shows: the
// protocol can retransmit NACK/resend forever, so it is correct only under
// a fairness assumption, which the stable-failures model records as a
// divergence (the failures/divergences model proper would refine this
// further).

// Diverges reports whether the process can diverge within the visible-trace
// depth, returning the shortest trace after which a τ-cycle is reachable.
// Like ComputeContext it is a walk, under the same τ-closure cap and ctx.
func Diverges(ctx context.Context, p syntax.Proc, env sem.Env, depth int) (trace.T, bool, error) {
	var found trace.T
	diverges := false
	err := new(op.Explorer).Walk(ctx, op.NewState(p, env), depth, func(n *op.Node) error {
		steps, err := n.Steps()
		if err != nil {
			return err
		}
		if hasTauCycle(n.Keys, steps) {
			found, diverges = n.Trace, true
			return op.SkipAll
		}
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	return found, diverges, nil
}

// hasTauCycle reports whether the τ-edges among a node's states form a
// cycle, by DFS with colouring. keys[i] and steps[i] are state i's key and
// transitions; the node is τ-closed, so every τ-successor is a state of it.
func hasTauCycle(keys []string, steps [][]op.Transition) bool {
	const (
		white = iota
		grey
		black
	)
	index := make(map[string]int, len(keys))
	for i, k := range keys {
		index[k] = i
	}
	colour := make([]int, len(keys))
	var visit func(i int) bool
	visit = func(i int) bool {
		colour[i] = grey
		for _, tr := range steps[i] {
			if !tr.Tau {
				continue
			}
			j, ok := index[tr.Next.Key()]
			if ok && (colour[j] == grey || (colour[j] == white && visit(j))) {
				return true
			}
		}
		colour[i] = black
		return false
	}
	for i := range keys {
		if colour[i] == white && visit(i) {
			return true
		}
	}
	return false
}

// Nondeterminism is a witness that a process is not deterministic: after
// Trace, the event Ev is both possible (some continuation performs it) and
// refusable (some stable state refuses it).
type Nondeterminism struct {
	Trace trace.T
	Ev    trace.Event
}

func (n *Nondeterminism) String() string {
	return fmt.Sprintf("after %s the process may both accept and refuse %s", n.Trace, n.Ev)
}

// Deterministic reports whether the modelled process is deterministic in
// the classic failures sense: no event is simultaneously possible and
// refusable after the same trace. Deterministic processes are exactly
// those whose behaviour an environment can rely on; internal choice and
// races on hidden channels are the typical sources of nondeterminism.
func (m *Model) Deterministic() *Nondeterminism {
	for _, k := range m.order {
		e := m.traces[k]
		// Events possible after this trace: those whose extension is a
		// trace of the model (exploration is exhaustive to depth, so use
		// extensions present in the map; for the frontier depth the menu
		// is not recorded, so skip traces at the bound).
		if len(e.trace) >= m.depth {
			continue
		}
		for _, k2 := range m.order {
			e2 := m.traces[k2]
			if len(e2.trace) != len(e.trace)+1 || !e.trace.IsPrefixOf(e2.trace) {
				continue
			}
			ev := e2.trace[len(e.trace)]
			if m.Refuses(e.trace, []trace.Event{ev}) {
				cp := make(trace.T, len(e.trace))
				copy(cp, e.trace)
				return &Nondeterminism{Trace: cp, Ev: ev}
			}
		}
	}
	return nil
}
