// Package closure implements the paper's §3.1 denotational domain: prefix
// closures, i.e. prefix-closed sets of traces, together with the semantic
// operators the paper defines on them —
//
//	(a → P)        prefixing
//	P ∪ Q          union (the meaning of the alternative P | Q)
//	P \ C          hiding (the meaning of chan C; P)
//	P ⇑ C          "ignore": interleaving with arbitrary chatter on C
//	P X‖Y Q        alphabetized parallel = (P ⇑ (Y−X)) ∩ (Q ⇑ (X−Y))
//
// A mathematical prefix closure is usually infinite; this package represents
// the finite approximations a₀ ⊆ a₁ ⊆ … that the paper itself uses to give
// meaning to recursion (§3.3). A Set holds finitely many traces and is
// prefix-closed by construction: the representation is a trie whose every
// node is a member, so closure under prefixes can never be violated.
//
// The trie is hash-consed (see intern.go): structurally equal subtrees are
// pointer-identical, every operator is memoized on the interned node
// pointers of its operands, and Size/MaxLen are precomputed per node. The
// paper's approximation chains recompute the same subterms on every pass,
// so the memo tables turn the chain's later passes into cache lookups and
// let Fix detect stabilisation with a pointer comparison.
package closure

import (
	"cmp"
	"math"
	"slices"
	"strings"
	"sync"

	"cspsat/internal/trace"
)

// Set is a finite prefix-closed set of traces. The zero value is not usable;
// construct with Stop, Prefix, Union, etc. Sets are immutable once built and
// may be shared freely, including across goroutines.
type Set struct {
	root *node
}

// Stop returns {<>}, the denotation of STOP: the process that never
// communicates.
func Stop() *Set { return emptyNode.wrap() }

// Prefix returns (a → P) = {<>} ∪ { a⌢s | s ∈ P }, the paper's prefixing
// operator. The result shares P's nodes. The event is interned to its
// dense id (see internal/trace sym.go); on warm symbols a hit in the
// intern table allocates nothing at all — no string key, no edge list,
// and the *Set wrapper comes from the node's cache.
func Prefix(a trace.Event, p *Set) *Set {
	one := [1]edge{{id: a.ID(), ev: a, child: p.root}}
	return internCopy(one[:]).wrap()
}

// Union returns P ∪ Q, the denotation of the alternative (P | Q). Subtrees
// present in only one operand are shared, not copied, and the merge is
// memoized on the operand pair.
func Union(p, q *Set) *Set {
	return unionNodes(p.root, q.root).wrap()
}

// UnionAll returns the union of all the given sets; with no arguments it
// returns Stop() (the unit {<>}, which is a subset of every prefix
// closure). Rather than left-folding Union — which interns k−1 transient
// intermediate nodes and burns k−1 memo entries per distinct operand list
// — it k-way-merges all operands' edge lists at once under a single memo
// entry keyed on the (sorted, deduplicated) operand node ids.
func UnionAll(sets ...*Set) *Set {
	switch len(sets) {
	case 0:
		return Stop()
	case 1:
		return sets[0]
	}
	ops := make([]*node, 0, len(sets))
	for _, s := range sets {
		if s.root != emptyNode {
			ops = append(ops, s.root)
		}
	}
	return unionAllNodes(dedupNodes(ops)).wrap()
}

// dedupNodes sorts operands by creation id and drops duplicates in place,
// canonicalising the operand list (union is commutative and idempotent).
func dedupNodes(ns []*node) []*node {
	slices.SortFunc(ns, func(a, b *node) int { return cmp.Compare(a.id, b.id) })
	out := ns[:0]
	for _, n := range ns {
		if len(out) > 0 && out[len(out)-1] == n {
			continue
		}
		out = append(out, n)
	}
	return out
}

func packNodeIDs(ns []*node) string {
	b := make([]byte, 0, 8*len(ns))
	for _, n := range ns {
		id := n.id
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24),
			byte(id>>32), byte(id>>40), byte(id>>48), byte(id>>56))
	}
	return string(b)
}

// unionAllNodes merges k operand nodes (sorted by id, deduplicated, none
// empty unless k ≤ 1) by advancing a cursor per operand over the sorted
// edge lists: each distinct event id contributes one output edge whose
// child is the recursive union of every operand child reached by that
// event. One memo entry covers the whole k-ary merge.
func unionAllNodes(ns []*node) *node {
	switch len(ns) {
	case 0:
		return emptyNode
	case 1:
		return ns[0]
	case 2:
		return unionNodes(ns[0], ns[1])
	}
	k := packNodeIDs(ns)
	if v, ok := unionAllMemo.get(k); ok {
		return v
	}
	idx := make([]int, len(ns))
	var out []edge
	var children []*node
	for {
		const noEvent = ^trace.EventID(0)
		min := noEvent
		for oi, n := range ns {
			if idx[oi] < len(n.edges) {
				if id := n.edges[idx[oi]].id; id < min {
					min = id
				}
			}
		}
		if min == noEvent {
			break
		}
		children = children[:0]
		var ev trace.Event
		for oi, n := range ns {
			if idx[oi] < len(n.edges) && n.edges[idx[oi]].id == min {
				children = append(children, n.edges[idx[oi]].child)
				ev = n.edges[idx[oi]].ev
				idx[oi]++
			}
		}
		out = append(out, edge{id: min, ev: ev, child: unionAllNodes(dedupNodes(children))})
	}
	n := intern(out)
	unionAllMemo.put(k, n)
	return n
}

func unionNodes(a, b *node) *node {
	if a == b || b == emptyNode {
		return a
	}
	if a == emptyNode {
		return b
	}
	// Union is commutative; canonicalise the key so P∪Q and Q∪P share one
	// memo entry. The arbitrary-but-fixed pointer order is fine as a
	// canonical form because the entry only lives as long as the pointers.
	k := nodePair{a, b}
	if nodeLess(b, a) {
		k = nodePair{b, a}
	}
	if v, ok := unionMemo.get(k); ok {
		return v
	}
	out := make([]edge, 0, len(a.edges)+len(b.edges))
	i, j := 0, 0
	for i < len(a.edges) && j < len(b.edges) {
		ae, be := a.edges[i], b.edges[j]
		switch {
		case ae.id < be.id:
			out = append(out, ae)
			i++
		case be.id < ae.id:
			out = append(out, be)
			j++
		default:
			out = append(out, edge{id: ae.id, ev: ae.ev, child: unionNodes(ae.child, be.child)})
			i, j = i+1, j+1
		}
	}
	out = append(out, a.edges[i:]...)
	out = append(out, b.edges[j:]...)
	n := intern(out)
	unionMemo.put(k, n)
	return n
}

// nodeLess gives a stable total order on nodes (their creation index),
// used only to canonicalise symmetric memo keys.
func nodeLess(a, b *node) bool { return a.id < b.id }

// Hide returns P \ C: every trace of P with its communications on channels
// of C omitted (the paper's s\C lifted pointwise). The result is again
// prefix-closed. Note the approximation caveat: if P is only complete up to
// depth d, P\C is only guaranteed complete up to the depth d minus the
// hidden chatter — callers compensate by exploring P deeper (see sem).
func Hide(p *Set, c trace.Set) *Set {
	return hideNode(p.root, c, c.ID()).wrap()
}

func hideNode(n *node, c trace.Set, cid trace.ChanSetID) *node {
	if len(n.edges) == 0 {
		return n
	}
	mk := hideKey{n: n, c: cid}
	if v, ok := hideMemo.get(mk); ok {
		return v
	}
	var out []edge
	var collapsed []*node
	for _, e := range n.edges {
		h := hideNode(e.child, c, cid)
		if c.ContainsID(trace.EventChanID(e.id)) {
			// Hidden event: its (hidden) subtree collapses into this node.
			collapsed = append(collapsed, h)
		} else {
			out = append(out, edge{id: e.id, ev: e.ev, child: h})
		}
	}
	res := intern(out) // out is already sorted: it is a subsequence of n.edges
	for _, h := range collapsed {
		res = unionNodes(res, h)
	}
	hideMemo.put(mk, res)
	return res
}

// Ignore returns the paper's P ⇑ C: the set of traces formed by interleaving
// a trace of P with an arbitrary sequence of communications on the channels
// of C, which P "ignores". Since arbitrary chatter is infinite, the chatter
// alphabet is given explicitly (the events that may occur on C) and the
// result is truncated to traces of length ≤ maxLen. P must not communicate
// on any channel of the chatter alphabet.
func Ignore(p *Set, chatter []trace.Event, maxLen int) *Set {
	ch := make([]edge, len(chatter))
	for i, ce := range chatter {
		ch[i] = edge{id: ce.ID(), ev: ce}
	}
	slices.SortFunc(ch, func(a, b edge) int { return cmp.Compare(a.id, b.id) })
	ids := make([]trace.EventID, len(ch))
	for i, e := range ch {
		ids[i] = e.id
	}
	alpha := trace.InternEventIDs(ids)
	return ignoreNode(p.root, ch, alpha, maxLen).wrap()
}

// ignoreNode computes one state of the interleaving: from trie node src with
// budget steps left, either advance src along one of its own edges or emit a
// chatter event and stay at src. chatter is sorted by event id; alpha is the
// chatter alphabet's interned identity in the memo table.
func ignoreNode(src *node, chatter []edge, alpha trace.EventSetID, budget int) *node {
	if budget <= 0 {
		return emptyNode
	}
	if len(src.edges) == 0 && len(chatter) == 0 {
		return emptyNode
	}
	mk := ignoreKey{n: src, alpha: alpha, i: int32(budget)}
	if v, ok := ignoreMemo.get(mk); ok {
		return v
	}
	out := make([]edge, 0, len(src.edges)+len(chatter))
	for _, e := range src.edges {
		out = append(out, edge{id: e.id, ev: e.ev, child: ignoreNode(e.child, chatter, alpha, budget-1)})
	}
	for _, ce := range chatter {
		out = append(out, edge{id: ce.id, ev: ce.ev, child: ignoreNode(src, chatter, alpha, budget-1)})
	}
	// The two groups are each sorted but may interleave (and, if the caller
	// violates the disjointness precondition, collide — handled by union).
	n := intern(sortEdges(out))
	ignoreMemo.put(mk, n)
	return n
}

// Parallel returns P X‖Y Q, the paper's alphabetized parallel composition:
// the traces s over X ∪ Y such that s↾X ∈ P and s↾Y ∈ Q. Communication on a
// channel of X ∩ Y requires simultaneous participation of both processes;
// channels private to one side interleave freely. This is computed directly
// as a product walk over the two tries, which is equivalent to the paper's
// (P ⇑ (Y−X)) ∩ (Q ⇑ (X−Y)) definition but avoids materialising the
// interleavings (see TestParallelMatchesIgnoreIntersection for the
// equivalence check). The walk is memoized on the pair of interned nodes,
// so the same (P-state, Q-state) product is computed once ever per
// alphabet pair, within and across Parallel calls.
func Parallel(p, q *Set, x, y trace.Set) *Set {
	return parallelNodes(p.root, q.root, x, y, x.ID(), y.ID(), math.MaxInt).wrap()
}

// ParallelTo returns Parallel(p, q, x, y).TruncateTo(budget) without ever
// materialising the truncated-away depths. A product trace consumes a step
// of P, of Q, or (on a shared channel) of both, so product height reaches
// a.height+b.height — for equal-depth operands, twice what a depth-bounded
// caller keeps. Threading the budget through the walk prunes that deep half
// before it allocates, which is what the denoter's fixpoint chain needs: its
// every approximation is budget-truncated anyway. Trace sets are prefix
// closed, so cutting the walk at length `budget` yields exactly the
// truncation of the full product, and the result interns to the very same
// canonical node.
func ParallelTo(p, q *Set, x, y trace.Set, budget int) *Set {
	return parallelNodes(p.root, q.root, x, y, x.ID(), y.ID(), budget).wrap()
}

// fitsBudget stands for the budget in the memo key of a product whose
// height fits its budget: the bound cannot bind anywhere below it, so one
// entry serves Parallel and every sufficient ParallelTo budget.
const fitsBudget = -1

func parallelNodes(a, b *node, x, y trace.Set, xid, yid trace.ChanSetID, budget int) *node {
	if len(a.edges) == 0 && len(b.edges) == 0 {
		return emptyNode
	}
	if budget <= 0 {
		return emptyNode
	}
	// The shallow fringe — bounded products at budgets 1 and 2 — holds most
	// of a bounded walk's distinct (a, b, budget) triples but each is a
	// near-flat edge merge, cheaper to recompute than to table: a memo entry
	// there costs more map allocation than the walk it saves, and the
	// fixpoint chain's GC bill tracks exactly that allocation.
	mk := parKey{a: a, b: b, x: xid, y: yid, i: fitsBudget}
	memoize := true
	if a.height+b.height > budget {
		mk.i = int32(budget)
		memoize = budget > 2
	}
	if memoize {
		if v, ok := parallelMemo.get(mk); ok {
			return v
		}
	}
	// The walk's edge lists are mostly intern hits (the product revisits the
	// same subproducts through many interleavings), so they are built in a
	// pooled scratch and interned copy-on-miss: the allocation rate of the
	// fixpoint chain — hence its GC bill on GOMAXPROCS > cores — tracks the
	// miss count, not the walk size.
	sp := edgeScratch.Get().(*[]edge)
	out := (*sp)[:0]
	for _, e := range a.edges {
		// When P communicates outside its own alphabet X the paper's
		// composition is not defined; treat the event as private to P (X is
		// extended implicitly), exactly as the pre-interning walk did.
		if y.ContainsID(trace.EventChanID(e.id)) {
			// Shared channel: requires Q to offer the same event.
			be, ok := b.get(e.id)
			if !ok {
				continue
			}
			out = append(out, edge{id: e.id, ev: e.ev, child: parallelNodes(e.child, be.child, x, y, xid, yid, budget-1)})
		} else {
			// Private to P.
			out = append(out, edge{id: e.id, ev: e.ev, child: parallelNodes(e.child, b, x, y, xid, yid, budget-1)})
		}
	}
	for _, e := range b.edges {
		if x.ContainsID(trace.EventChanID(e.id)) {
			continue // shared (or P-side) events handled above
		}
		out = append(out, edge{id: e.id, ev: e.ev, child: parallelNodes(a, e.child, x, y, xid, yid, budget-1)})
	}
	n := internCopy(sortEdges(out))
	*sp = out[:0]
	edgeScratch.Put(sp)
	if memoize {
		parallelMemo.put(mk, n)
	}
	return n
}

// edgeScratch pools edge buffers for the product walk. Each frame checks
// one out for the duration of its own edge list only (child frames draw
// their own), so buffers never alias across the recursion.
var edgeScratch = sync.Pool{New: func() any { s := make([]edge, 0, 16); return &s }}

// Intersect returns P ∩ Q. Prefix closures are closed under intersection
// (§3.1), and the paper's parallel operator is defined via ∩.
func Intersect(p, q *Set) *Set {
	return intersectNodes(p.root, q.root).wrap()
}

func intersectNodes(a, b *node) *node {
	if a == b {
		return a
	}
	if a == emptyNode || b == emptyNode {
		return emptyNode
	}
	k := nodePair{a, b}
	if nodeLess(b, a) {
		k = nodePair{b, a}
	}
	if v, ok := intersectMemo.get(k); ok {
		return v
	}
	var out []edge
	i, j := 0, 0
	for i < len(a.edges) && j < len(b.edges) {
		ae, be := a.edges[i], b.edges[j]
		switch {
		case ae.id < be.id:
			i++
		case be.id < ae.id:
			j++
		default:
			out = append(out, edge{id: ae.id, ev: ae.ev, child: intersectNodes(ae.child, be.child)})
			i, j = i+1, j+1
		}
	}
	n := intern(out)
	intersectMemo.put(k, n)
	return n
}

// Contains reports whether t ∈ P. Events are looked up without interning:
// an event that was never interned cannot label any trie edge.
func (p *Set) Contains(t trace.T) bool {
	n := p.root
	for _, e := range t {
		id, ok := e.LookupID()
		if !ok {
			return false
		}
		ed, ok := n.get(id)
		if !ok {
			return false
		}
		n = ed.child
	}
	return true
}

// Size returns the number of traces in the set (the empty trace counts).
// Precomputed at interning time, so this is O(1).
func (p *Set) Size() int { return p.root.size }

// MaxLen returns the length of the longest trace in the set. Precomputed at
// interning time, so this is O(1).
func (p *Set) MaxLen() int { return p.root.height }

// Traces returns every trace in the set in canonical (lexicographic) order.
// Sharing makes the member count exponential in the trie's height, so for
// sets that may be deep, materialise with TracesN instead: Traces on a set
// with more members than memory holds cannot succeed.
func (p *Set) Traces() []trace.T {
	out, _ := p.TracesN(0)
	return out
}

// TracesN returns the limit least traces of the set in canonical order
// (limit <= 0: all of them), and whether the set holds more. The walk
// stops at the last trace listed, and a truncated listing is prefix
// closed, because a prefix sorts before its extensions.
func (p *Set) TracesN(limit int) ([]trace.T, bool) { return ListTraces(p, limit, false) }

// WalkSorted implements View.WalkSorted. A node's edges are kept in event-id
// order, so they are sorted by trace.Event.Compare as the walk enters the
// node, unless they already are.
func (p *Set) WalkSorted(visit func(depth int, last trace.Event, maximal bool) bool) bool {
	w := sortedWalk{visit: visit}
	return w.walk(p.root, 0, trace.Event{})
}

type sortedWalk struct {
	visit func(depth int, last trace.Event, maximal bool) bool
	// order stacks, for each node on the path whose edges were out of
	// order, their positions in trace.Event.Compare order.
	order []int
}

func (w *sortedWalk) walk(n *node, depth int, last trace.Event) bool {
	if !w.visit(depth, last, len(n.edges) == 0) {
		return false
	}
	edges := n.edges
	if slices.IsSortedFunc(edges, func(a, b edge) int { return a.ev.Compare(b.ev) }) {
		for _, e := range edges {
			if !w.walk(e.child, depth+1, e.ev) {
				return false
			}
		}
		return true
	}
	if w.order == nil {
		w.order = make([]int, 0, 64)
	}
	base := len(w.order)
	for i := range edges {
		w.order = append(w.order, i)
	}
	// Deeper nodes push above base; should that move w.order, seg keeps
	// reading this node's positions from the old array.
	seg := w.order[base:]
	slices.SortFunc(seg, func(i, j int) int { return edges[i].ev.Compare(edges[j].ev) })
	for _, i := range seg {
		if !w.walk(edges[i].child, depth+1, edges[i].ev) {
			return false
		}
	}
	w.order = w.order[:base]
	return true
}

// WalkDFS traverses the set depth-first in event-id order. visit is
// called once per member trace (including <>), with the current path, which
// is only valid for the duration of the call; returning false aborts the
// whole walk. push and pop, when non-nil, bracket each descent along an
// event, letting callers maintain incremental state (e.g. channel
// histories) without re-deriving it per trace. WalkDFS reports whether the
// traversal ran to completion.
func (p *Set) WalkDFS(visit func(path trace.T) bool, push, pop func(ev trace.Event)) bool {
	var path trace.T
	var walk func(n *node) bool
	walk = func(n *node) bool {
		if !visit(path) {
			return false
		}
		for _, e := range n.edges {
			if push != nil {
				push(e.ev)
			}
			path = append(path, e.ev)
			ok := walk(e.child)
			path = path[:len(path)-1]
			if pop != nil {
				pop(e.ev)
			}
			if !ok {
				return false
			}
		}
		return true
	}
	return walk(p.root)
}

// TracesMax returns the maximal traces (those with no extension in the set),
// useful for compact display.
func (p *Set) TracesMax() []trace.T {
	out, _ := p.TracesMaxN(0)
	return out
}

// TracesMaxN is TracesN restricted to maximal traces (those that are not a
// proper prefix of another member): the limit least of them in canonical
// order, and whether the set holds more. limit <= 0 means unlimited.
func (p *Set) TracesMaxN(limit int) ([]trace.T, bool) { return ListTraces(p, limit, true) }

// Same reports whether two sets are represented by the same interned node —
// a pointer comparison. Same(q) implies Equal(q); the converse holds as
// long as neither representation predates a cache eviction or reset, which
// is why Equal keeps a structural fallback.
func (p *Set) Same(q *Set) bool { return p.root == q.root }

// Equal reports whether two sets contain exactly the same traces. With
// hash-consing this is usually the O(1) pointer comparison; the structural
// walk only runs for sets whose nodes straddle a cache eviction, and even
// then the cached hash, size, and height reject unequal subtrees early.
func (p *Set) Equal(q *Set) bool { return nodesEqual(p.root, q.root) }

func nodesEqual(a, b *node) bool {
	if a == b {
		return true
	}
	if a.hash != b.hash || a.size != b.size || a.height != b.height || len(a.edges) != len(b.edges) {
		return false
	}
	for i := range a.edges {
		if a.edges[i].id != b.edges[i].id || !nodesEqual(a.edges[i].child, b.edges[i].child) {
			return false
		}
	}
	return true
}

// SubsetOf reports P ⊆ Q, i.e. trace refinement of P by Q's traces. Shared
// interned subtrees compare in O(1), and verdicts are memoized, so repeated
// refinement checks over a growing approximation chain stay cheap.
func (p *Set) SubsetOf(q *Set) bool { return nodeSubset(p.root, q.root) }

func nodeSubset(a, b *node) bool {
	if a == b || a == emptyNode {
		return true
	}
	if a.size > b.size || a.height > b.height {
		return false
	}
	k := nodePair{a, b}
	if v, ok := subsetMemo.get(k); ok {
		return v
	}
	res := true
	for _, e := range a.edges {
		be, ok := b.get(e.id)
		if !ok || !nodeSubset(e.child, be.child) {
			res = false
			break
		}
	}
	subsetMemo.put(k, res)
	return res
}

// FirstNotIn returns a witness trace in P but not in Q, or nil if P ⊆ Q.
func (p *Set) FirstNotIn(q *Set) trace.T {
	return firstNotIn(p.root, q.root, nil)
}

func firstNotIn(a, b *node, pfx trace.T) trace.T {
	if a == b {
		return nil
	}
	// Edges are interned in event-id order, so the walk is deterministic
	// for a given interning history and the witness reproducible without
	// sorting (though a different id-assignment order may pick a different
	// — equally valid — witness).
	for _, e := range a.edges {
		be, ok := b.get(e.id)
		ext := append(pfx, e.ev)
		if !ok {
			cp := make(trace.T, len(ext))
			copy(cp, ext)
			return cp
		}
		if w := firstNotIn(e.child, be.child, ext); w != nil {
			return w
		}
	}
	return nil
}

// TruncateTo returns the subset of traces with length ≤ depth (the paper's
// finite approximation restricted to a window). Subtrees that already fit
// within the window are shared, not copied, and the cached per-node height
// makes the fit test O(1).
func (p *Set) TruncateTo(depth int) *Set {
	if p.root.height <= depth {
		return p
	}
	return truncated(p.root, depth).wrap()
}

func truncated(src *node, budget int) *node {
	if src.height <= budget {
		return src
	}
	if budget <= 0 {
		return emptyNode
	}
	mk := nodeIntKey{n: src, i: budget}
	if v, ok := truncMemo.get(mk); ok {
		return v
	}
	out := make([]edge, len(src.edges))
	for i, e := range src.edges {
		out[i] = edge{id: e.id, ev: e.ev, child: truncated(e.child, budget-1)}
	}
	n := intern(out)
	truncMemo.put(mk, n)
	return n
}

// Channels returns the set of channels appearing anywhere in the set. The
// walk visits each shared subtree once.
func (p *Set) Channels() trace.Set {
	s := trace.NewSet()
	seen := map[*node]bool{}
	var walk func(n *node)
	walk = func(n *node) {
		if seen[n] {
			return
		}
		seen[n] = true
		for _, e := range n.edges {
			s.AddID(trace.EventChanID(e.id))
			walk(e.child)
		}
	}
	walk(p.root)
	return s
}

// String renders the maximal traces, one per line, capped for readability.
func (p *Set) String() string {
	ms := p.TracesMax()
	const maxShown = 16
	var sb strings.Builder
	sb.WriteString("{")
	for i, t := range ms {
		if i == maxShown {
			sb.WriteString(" …")
			break
		}
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(" ")
		sb.WriteString(t.String())
	}
	sb.WriteString(" }")
	return sb.String()
}

// Fix computes the paper's §3.3 approximation chain for a recursive
// definition p ≜ P: a₀ = STOP, a(i+1) = F(aᵢ), where F is the semantic
// functional of the defining expression. Iteration proceeds until the
// approximation restricted to traces of length ≤ depth stops growing, which
// is exactly ⋃ᵢ aᵢ truncated at the window — the set of all traces of the
// recursive process up to that length. It returns the fixed point and the
// number of iterations taken.
//
// Because Union over interned tries returns the canonical node — and in
// particular returns cur's own node the moment F adds nothing new — the
// stabilisation test is the pointer comparison Same on the happy path, with
// Equal as the structural fallback across cache evictions.
func Fix(f func(*Set) *Set, depth int) (*Set, int) {
	cur := Stop()
	for i := 1; ; i++ {
		next := f(cur).TruncateTo(depth)
		next = Union(next, cur) // the chain is increasing; keep it so under truncation
		if next.Same(cur) || next.Equal(cur) {
			return cur, i
		}
		cur = next
	}
}
