package op

import (
	"context"
	"errors"

	"cspsat/internal/pool"
	"cspsat/internal/trace"
)

// SkipNode, returned by a Walk visitor, leaves the visited node's
// successors unexplored.
var SkipNode = errors.New("op: skip this node")

// SkipAll, returned by a Walk visitor, ends the walk without error.
var SkipAll = errors.New("op: skip the rest of the walk")

// Node is one node of the subset construction Walk performs: a visible
// trace and the deduplicated τ-closed set of states reachable after it.
type Node struct {
	// Trace is the visible trace leading to the node. The walk allocates
	// it afresh per node and never modifies it.
	Trace trace.T
	// States is the τ-closed state set in discovery order; Keys[i] is
	// States[i].Key().
	States []State
	Keys   []string
	steps  [][]Transition
}

// Steps returns Step(States[i]) for every state. The states are stepped
// on the first call only, by the visitor or by the walk expanding the
// node, so a node its visitor skips without asking is never stepped.
func (n *Node) Steps() ([][]Transition, error) {
	if n.steps != nil {
		return n.steps, nil
	}
	steps := make([][]Transition, len(n.States))
	for i, s := range n.States {
		ts, err := Step(s)
		if err != nil {
			return nil, err
		}
		steps[i] = ts
	}
	n.steps = steps
	return steps, nil
}

// Walk visits, breadth-first, every visible trace of s up to depth as the
// Node of states reachable after it: the one exploration the
// stable-failures model, divergence detection and deadlock search are
// read off. A node's successors are its visible transitions grouped by
// event in first-seen order, each group closed under τ with the explorer's
// capped τ-closure; nodes at depth are visited but not expanded. ctx is
// checked once per node, so a done ctx ends the walk with an error
// wrapping csperr.ErrCanceled. visit may return SkipNode or SkipAll; any
// other error ends the walk and is returned.
func (x *Explorer) Walk(ctx context.Context, s State, depth int, visit func(*Node) error) error {
	root, err := x.node(nil, []State{s})
	if err != nil {
		return err
	}
	queue := []*Node{root}
	for len(queue) > 0 {
		if err := pool.Canceled(ctx); err != nil {
			return err
		}
		n := queue[0]
		queue = queue[1:]
		switch err := visit(n); err {
		case nil:
		case SkipNode:
			continue
		case SkipAll:
			return nil
		default:
			return err
		}
		if len(n.Trace) >= depth {
			continue
		}
		evs, seeds, err := n.successors()
		if err != nil {
			return err
		}
		for i, ev := range evs {
			c, err := x.node(n.Trace.Append(ev), seeds[i])
			if err != nil {
				return err
			}
			queue = append(queue, c)
		}
	}
	return nil
}

// successors groups the node's visible transitions by interned event, in
// first-seen order: event evs[i] leads to each state of seeds[i].
// τ-successors are already inside the node.
func (n *Node) successors() (evs []trace.Event, seeds [][]State, err error) {
	steps, err := n.Steps()
	if err != nil {
		return nil, nil, err
	}
	index := map[trace.EventID]int{}
	for _, ts := range steps {
		for _, tr := range ts {
			if tr.Tau {
				continue
			}
			id := tr.Ev.ID()
			i, ok := index[id]
			if !ok {
				i = len(evs)
				index[id] = i
				evs = append(evs, tr.Ev)
				seeds = append(seeds, nil)
			}
			seeds[i] = append(seeds[i], tr.Next)
		}
	}
	return evs, seeds, nil
}

// node closes each seed under τ and returns the node at t holding the
// deduplicated union of the closures, in discovery order.
func (x *Explorer) node(t trace.T, seeds []State) (*Node, error) {
	n := &Node{Trace: t}
	seen := map[string]bool{}
	for _, s := range seeds {
		cl, err := x.tauClosure(s)
		if err != nil {
			return nil, err
		}
		for _, c := range cl {
			if k := c.Key(); !seen[k] {
				seen[k] = true
				n.States = append(n.States, c)
				n.Keys = append(n.Keys, k)
			}
		}
	}
	return n, nil
}
