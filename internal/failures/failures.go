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
	"math"
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

// equal reports whether a and b hold the same events; both are in
// canonical order.
func (a Acceptance) equal(b Acceptance) bool { return slices.EqualFunc(a, b, sameEvent) }

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
// depth, in normal form: one node per distinct τ-closed state list that
// op.Explorer.Walk meets, holding the acceptance family of the list's
// stable states and the list's successor edges. A trace's acceptance
// family is that of the node it reaches, and every verdict below is read
// off the nodes, not off the traces, whose number grows exponentially with
// depth.
type Model struct {
	depth int
	nodes []node
	size  int
}

// node is one state list of the walk: the first trace, in breadth-first
// order, that reaches it, the acceptance family of its stable states in
// discovery order, and its successors, nil on a node first met at the
// depth bound.
type node struct {
	trace trace.T
	accs  []Acceptance
	edges []op.Edge
}

// Compute explores the process and builds its stable-failures model to the
// given visible-trace depth.
func Compute(p syntax.Proc, env sem.Env, depth int) (*Model, error) {
	return ComputeContext(context.Background(), p, env, depth)
}

// ComputeContext is Compute under a context: the model is read off
// op.Explorer.Walk, which checks ctx per node (cancellation surfaces as an
// error wrapping csperr.ErrCanceled, the same discipline as every other
// engine) and caps every τ-closure at op.DefaultMaxTauStates (an error
// wrapping csperr.ErrDepthExceeded).
func ComputeContext(ctx context.Context, p syntax.Proc, env sem.Env, depth int) (*Model, error) {
	m := &Model{depth: depth}
	graph, err := new(op.Explorer).Walk(ctx, op.NewState(p, env), depth, func(n *op.Node) error {
		nd := node{trace: n.Trace}
		if nd.trace == nil {
			nd.trace = trace.T{}
		}
		for i := range n.IDs {
			ts, err := n.Step(i)
			if err != nil {
				return err
			}
			if acc, stable := acceptance(ts); stable && !slices.ContainsFunc(nd.accs, acc.equal) {
				nd.accs = append(nd.accs, acc)
			}
		}
		m.nodes = append(m.nodes, nd)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, n := range graph {
		m.nodes[i].edges = n.Edges
	}
	m.size = m.countTraces()
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

// countTraces returns the number of traces up to the model's depth, the
// empty trace included, saturating at math.MaxInt. A trace with r events
// still to go below node n has count(n, r) = 1 + the sum of
// count(child, r-1) over n's edges; the loop computes that for every node
// at r = 0, 1, …, depth and reads node 0 at r = depth. A node without
// edges counts 1 at every r, which is right where it is ever reached: at
// the depth bound, with r = 0.
func (m *Model) countTraces() int {
	cur := make([]int, len(m.nodes))
	next := make([]int, len(m.nodes))
	for i := range cur {
		cur[i] = 1
	}
	for r := 1; r <= m.depth; r++ {
		for i, n := range m.nodes {
			c := 1
			for _, e := range n.edges {
				c = satAdd(c, cur[e.To])
			}
			next[i] = c
		}
		cur, next = next, cur
	}
	return cur[0]
}

// satAdd returns a+b for non-negative a and b, or math.MaxInt if the sum
// overflows.
func satAdd(a, b int) int {
	if a > math.MaxInt-b {
		return math.MaxInt
	}
	return a + b
}

// Size returns the number of traces of the model, the empty trace
// included, or math.MaxInt if there are more: a process with k events on
// offer at each step has about k^depth traces, which the model counts
// without listing them.
func (m *Model) Size() int { return m.size }

// unfold calls visit on every trace of the model, in the breadth-first
// order of the walk it was built from, with the index of the node the
// trace reaches.
func (m *Model) unfold(visit func(t trace.T, n int)) {
	type item struct {
		t trace.T
		n int
	}
	queue := []item{{m.nodes[0].trace, 0}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		visit(it.t, it.n)
		if len(it.t) >= m.depth {
			continue
		}
		for _, e := range m.nodes[it.n].edges {
			queue = append(queue, item{it.t.Append(e.Ev), e.To})
		}
	}
}

// Traces returns the model's traces in exploration order.
func (m *Model) Traces() []trace.T {
	var out []trace.T
	m.unfold(func(t trace.T, _ int) { out = append(out, t) })
	return out
}

// find returns the node trace t reaches, or nil if t is not a trace of the
// model.
func (m *Model) find(t trace.T) *node {
	if len(t) > m.depth {
		return nil
	}
	n := &m.nodes[0]
	for _, ev := range t {
		i := slices.IndexFunc(n.edges, func(e op.Edge) bool { return sameEvent(e.Ev, ev) })
		if i < 0 {
			return nil
		}
		n = &m.nodes[n.edges[i].To]
	}
	return n
}

func sameEvent(x, y trace.Event) bool { return x.Chan == y.Chan && x.Msg.Equal(y.Msg) }

// Acceptances returns the acceptance family after the given trace; the
// second result is false if the trace is not a trace of the process.
func (m *Model) Acceptances(t trace.T) ([]Acceptance, bool) {
	n := m.find(t)
	if n == nil {
		return nil, false
	}
	return n.accs, true
}

// Refuses reports whether (t, X) is a failure of the process: after t some
// stable state refuses every event of X.
func (m *Model) Refuses(t trace.T, xs []trace.Event) bool {
	n := m.find(t)
	return n != nil && n.refuses(xs)
}

// refuses reports whether some acceptance of the node is disjoint from xs.
func (n *node) refuses(xs []trace.Event) bool {
	for _, acc := range n.accs {
		if !slices.ContainsFunc(xs, acc.contains) {
			return true
		}
	}
	return false
}

// CanDeadlock reports whether some trace leads to a stable state that
// refuses everything, with the first such trace in exploration order.
func (m *Model) CanDeadlock() (trace.T, bool) {
	for _, n := range m.nodes {
		for _, acc := range n.accs {
			if len(acc) == 0 {
				return n.trace, true
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
//
// The search is breadth-first over pairs of an impl node and the spec node
// the same trace reaches. What is checked at a trace, and everything below
// it, is a function of its pair, so each pair is checked once, at its
// first trace; the counterexample is the one a scan of impl's traces in
// exploration order meets first.
func Refines(impl, spec *Model) (*Counterexample, error) {
	if impl.depth != spec.depth {
		return nil, fmt.Errorf("failures: models computed to different depths (%d vs %d)", impl.depth, spec.depth)
	}
	// spec is -1 when the trace is not a spec trace. parent indexes the
	// item the pair was first reached from, by event ev.
	type pair struct{ impl, spec int }
	type item struct {
		pair
		parent int
		ev     trace.Event
		depth  int
	}
	queue := []item{{pair: pair{0, 0}, parent: -1}}
	seen := map[pair]bool{{0, 0}: true}
	traceOf := func(k int) trace.T {
		t := make(trace.T, queue[k].depth)
		for ; k > 0; k = queue[k].parent {
			t[queue[k].depth-1] = queue[k].ev
		}
		return t
	}
	for k := 0; k < len(queue); k++ {
		it := queue[k]
		if it.spec < 0 {
			return &Counterexample{Trace: traceOf(k)}, nil
		}
		in, sn := &impl.nodes[it.impl], &spec.nodes[it.spec]
		for _, ia := range in.accs {
			if !slices.ContainsFunc(sn.accs, func(sa Acceptance) bool { return sa.subset(ia) }) {
				return &Counterexample{Trace: traceOf(k), ImplAcceptance: &ia}, nil
			}
		}
		if it.depth >= impl.depth {
			continue
		}
		for _, e := range in.edges {
			p := pair{e.To, -1}
			if i := slices.IndexFunc(sn.edges, func(f op.Edge) bool { return sameEvent(f.Ev, e.Ev) }); i >= 0 {
				p.spec = sn.edges[i].To
			}
			if !seen[p] {
				seen[p] = true
				queue = append(queue, item{pair: p, parent: k, ev: e.Ev, depth: it.depth + 1})
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
	fams := make([]string, len(m.nodes))
	for i, n := range m.nodes {
		parts := make([]string, len(n.accs))
		for j, a := range n.accs {
			parts[j] = a.String()
		}
		sort.Strings(parts)
		fams[i] = strings.Join(parts, " ")
	}
	var sb strings.Builder
	m.unfold(func(t trace.T, n int) { fmt.Fprintf(&sb, "%s : %s\n", t, fams[n]) })
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
	_, err := new(op.Explorer).Walk(ctx, op.NewState(p, env), depth, func(n *op.Node) error {
		cyclic, err := hasTauCycle(n)
		if err != nil {
			return err
		}
		if cyclic {
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
// cycle, by DFS with colouring over the states' table ids. The node is
// τ-closed, so every τ-successor is a state of it.
func hasTauCycle(n *op.Node) (bool, error) {
	const (
		white = iota
		grey
		black
	)
	index := make(map[uint32]int, len(n.IDs))
	for i, id := range n.IDs {
		index[id] = i
	}
	tau := make([][]int, len(n.IDs))
	for i := range n.IDs {
		trans, err := n.Step(i)
		if err != nil {
			return false, err
		}
		for j, tr := range trans {
			if tr.Tau {
				tau[i] = append(tau[i], index[n.Target(i, j)])
			}
		}
	}
	colour := make([]int, len(n.IDs))
	var visit func(i int) bool
	visit = func(i int) bool {
		colour[i] = grey
		for _, j := range tau[i] {
			if colour[j] == grey || (colour[j] == white && visit(j)) {
				return true
			}
		}
		colour[i] = black
		return false
	}
	for i := range n.IDs {
		if colour[i] == white && visit(i) {
			return true, nil
		}
	}
	return false, nil
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
// Both halves are properties of a node, its edges and its acceptances, so
// each node is checked once, at its first trace; a node first met at the
// depth bound has no recorded menu and is skipped.
func (m *Model) Deterministic() *Nondeterminism {
	for _, n := range m.nodes {
		for _, e := range n.edges {
			if n.refuses([]trace.Event{e.Ev}) {
				cp := make(trace.T, len(n.trace))
				copy(cp, n.trace)
				return &Nondeterminism{Trace: cp, Ev: e.Ev}
			}
		}
	}
	return nil
}
