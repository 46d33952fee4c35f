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
	x      *Explorer
	ids    []uint32 // ids[i] is the table id of States[i]
}

// Steps returns Step(States[i]) for every state, read from the explorer's
// state table: a state is stepped the first time any node, or any other
// exploration by the same explorer, asks for it, so a node its visitor
// skips without asking costs no step of its own. The transition slices
// are shared and must not be modified.
func (n *Node) Steps() ([][]Transition, error) {
	steps := make([][]Transition, len(n.ids))
	for i, id := range n.ids {
		trans, _, err := n.x.step(id)
		if err != nil {
			return nil, err
		}
		steps[i] = trans
	}
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
	root, err := x.node(nil, []uint32{x.intern(s)})
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
// first-seen order: event evs[i] leads to each state id of seeds[i].
// τ-successors are already inside the node.
func (n *Node) successors() (evs []trace.Event, seeds [][]uint32, err error) {
	index := map[trace.EventID]int{}
	for _, id := range n.ids {
		trans, next, err := n.x.step(id)
		if err != nil {
			return nil, nil, err
		}
		for j, tr := range trans {
			if tr.Tau {
				continue
			}
			ev := tr.Ev.ID()
			i, ok := index[ev]
			if !ok {
				i = len(evs)
				index[ev] = i
				evs = append(evs, tr.Ev)
				seeds = append(seeds, nil)
			}
			seeds[i] = append(seeds[i], next[j])
		}
	}
	return evs, seeds, nil
}

// node closes each seed under τ and returns the node at t holding the
// deduplicated union of the closures, in discovery order.
func (x *Explorer) node(t trace.T, seeds []uint32) (*Node, error) {
	n := &Node{Trace: t, x: x}
	seen := map[uint32]bool{}
	for _, s := range seeds {
		cl, err := x.tauClosure(s)
		if err != nil {
			return nil, err
		}
		for _, id := range cl {
			if !seen[id] {
				seen[id] = true
				n.ids = append(n.ids, id)
			}
		}
	}
	n.States = make([]State, len(n.ids))
	n.Keys = make([]string, len(n.ids))
	for i, id := range n.ids {
		n.States[i], n.Keys[i] = x.states[id].state, x.states[id].key
	}
	return n, nil
}
