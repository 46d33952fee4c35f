package op

import (
	"context"
	"encoding/binary"
	"errors"

	"cspsat/internal/pool"
	"cspsat/internal/trace"
)

// SkipAll, returned by a Walk visitor, ends the walk without error.
var SkipAll = errors.New("op: skip the rest of the walk")

// Node is one node of the normal form Walk builds: a τ-closed list of
// states, deduplicated and in discovery order, that some visible trace
// reaches. The walk meets each distinct list once.
type Node struct {
	// Trace is the first trace, in breadth-first order, that reaches the
	// node: a shortest one. The walk allocates it afresh per node and
	// never modifies it.
	Trace trace.T
	// States is the τ-closed state list in discovery order; IDs[i] is the
	// explorer's table id of States[i].
	States []State
	IDs    []uint32
	// Edges are the node's successors, one per visible event in first-seen
	// order. Walk fills them after visiting the node, and leaves them nil
	// on a node first met at the depth bound, which it does not expand.
	Edges []Edge
	x     *Explorer
}

// Edge is one successor of a Node: after Ev the process is in the state
// list of the node Walk visited To-th, counting from 0.
type Edge struct {
	Ev trace.Event
	To int
}

// Step returns the transitions of States[i], read from the explorer's
// state table: a state is stepped the first time any node, or any other
// exploration by the same explorer, asks for it. The transitions' Next
// fields are unset, since the explorer builds a successor only when an
// exploration follows the edge; Target returns its table id. The slice is
// shared and must not be modified.
func (n *Node) Step(i int) ([]Transition, error) {
	return n.x.step(n.IDs[i])
}

// Target returns the table id of the successor along transition j of
// States[i], minting it on first use. Step(i) must have succeeded.
func (n *Node) Target(i, j int) uint32 {
	return n.x.target(n.IDs[i], j)
}

// Walk visits, breadth-first, one Node per distinct τ-closed state list
// that a visible trace of s up to depth reaches: the normal form the
// stable-failures model, divergence detection and deadlock search are read
// off. A list's successors are its visible transitions grouped by event in
// first-seen order, each group closed under τ with the explorer's capped
// τ-closure; a node first met at depth is visited but not expanded.
//
// A list is keyed by its states' table ids in discovery order, not as a
// set, and its successors, their order included, are a function of that
// ordered list. So unfolding the returned graph from node 0 yields every
// trace up to depth, each with the list it reaches, in exactly the
// breadth-first order of a walk over traces: a node's Trace is the first
// trace of that order to reach it.
//
// Walk returns the visited nodes in visit order, which their Edges index.
// ctx is checked once per node, so a done ctx ends the walk with an error
// wrapping csperr.ErrCanceled. visit, when non-nil, is called on each node
// before it is expanded; SkipAll ends the walk and Walk returns no nodes
// and no error, and any other error ends the walk and is returned.
func (x *Explorer) Walk(ctx context.Context, s State, depth int, visit func(*Node) error) ([]*Node, error) {
	list, err := x.tauClosure(nil, x.intern(s))
	if err != nil {
		return nil, err
	}
	key := listKey(nil, list)
	nodes := []*Node{x.newNode(nil, list)}
	index := map[string]int{string(key): 0}
	for i := 0; i < len(nodes); i++ {
		if err := pool.Canceled(ctx); err != nil {
			return nil, err
		}
		n := nodes[i]
		if visit != nil {
			switch err := visit(n); err {
			case nil:
			case SkipAll:
				return nil, nil
			default:
				return nil, err
			}
		}
		if len(n.Trace) >= depth {
			continue
		}
		evs, seeds, err := x.successors(n.IDs)
		if err != nil {
			return nil, err
		}
		n.Edges = make([]Edge, len(evs))
		for j, ev := range evs {
			if list, err = x.closeList(list[:0], seeds[j]); err != nil {
				return nil, err
			}
			key = listKey(key[:0], list)
			to, ok := index[string(key)]
			if !ok {
				to = len(nodes)
				index[string(key)] = to
				nodes = append(nodes, x.newNode(n.Trace.Append(ev), list))
			}
			n.Edges[j] = Edge{Ev: ev, To: to}
		}
	}
	return nodes, nil
}

// newNode returns an unexpanded node at trace t holding a copy of list.
func (x *Explorer) newNode(t trace.T, list []uint32) *Node {
	n := &Node{Trace: t, IDs: make([]uint32, len(list)), States: make([]State, len(list)), x: x}
	copy(n.IDs, list)
	for i, id := range list {
		n.States[i] = x.states[id].state
	}
	return n
}

// listKey appends the walk's key of a state list to b: its table ids in
// order, four bytes each.
func listKey(b []byte, list []uint32) []byte {
	for _, id := range list {
		b = binary.LittleEndian.AppendUint32(b, id)
	}
	return b
}

// successors groups the visible transitions of the states ids by interned
// event, in first-seen order: event evs[i] leads to each state id of
// seeds[i]. τ-successors are already among ids, which is τ-closed.
func (x *Explorer) successors(ids []uint32) (evs []trace.Event, seeds [][]uint32, err error) {
	index := map[trace.EventID]int{}
	for _, id := range ids {
		trans, err := x.step(id)
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
			seeds[i] = append(seeds[i], x.target(id, j))
		}
	}
	return evs, seeds, nil
}

// closeList closes each seed under τ and appends the deduplicated union of
// the closures, in discovery order, to dst.
func (x *Explorer) closeList(dst []uint32, seeds []uint32) ([]uint32, error) {
	base := len(dst)
	for _, s := range seeds {
		var err error
		if dst, err = x.tauClosure(dst, s); err != nil {
			return nil, err
		}
	}
	if len(seeds) == 1 {
		return dst, nil // one closure holds no repeats
	}
	seen := make(map[uint32]bool, len(dst)-base)
	out := dst[:base]
	for _, id := range dst[base:] {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out, nil
}
