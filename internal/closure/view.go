package closure

import "cspsat/internal/trace"

// View is the read-only traversal surface of a prefix-closed trace set,
// implemented both by the live hash-consed *Set and by frozen arena nodes
// (internal/closure/frozen) that serve the same queries straight off an
// mmap-able flat image without rebuilding anything through the interner.
//
// The contract: a frozen node view and the *Set obtained by thawing it
// answer every View method identically — same sizes, same membership, same
// trace listings in the same order. Listings come from WalkSorted, which
// orders edges by trace.Event.Compare, so they depend on neither live
// event ids nor an arena's local event indices: a truncated listing keeps
// the same members in every process. WalkDFS visits edges in live event-id
// order on both sides. Engines that need to build new sets on top of a
// view call Thaw, the only method that may touch the interner.
type View interface {
	// Size returns the number of traces in the set (the empty trace
	// counts), saturating at MaxInt.
	Size() int
	// MaxLen returns the length of the longest trace in the set.
	MaxLen() int
	// Contains reports whether t is a member. It never interns: an event
	// that was never interned cannot label any edge, live or frozen.
	Contains(t trace.T) bool
	// Traces returns every trace in canonical (trace.T.Compare) order.
	Traces() []trace.T
	// TracesN returns the limit least traces in canonical order (limit <=
	// 0: all of them), and whether the set holds more.
	TracesN(limit int) ([]trace.T, bool)
	// TracesMax returns the maximal traces in canonical order.
	TracesMax() []trace.T
	// TracesMaxN is TracesN restricted to maximal traces.
	TracesMaxN(limit int) ([]trace.T, bool)
	// WalkSorted visits every member once, depth-first in trace.T.Compare
	// order: a member before its extensions, and the extensions of a
	// member in trace.Event.Compare order of their last event. visit gets
	// the member's length, its last event (the zero Event for <>) and
	// whether it is maximal; returning false stops the walk before the
	// member's edges are ordered. WalkSorted reports whether the walk ran
	// to the end.
	WalkSorted(visit func(depth int, last trace.Event, maximal bool) bool) bool
	// WalkDFS traverses the set depth-first in live event-id order; see
	// Set.WalkDFS for the callback contract.
	WalkDFS(visit func(path trace.T) bool, push, pop func(ev trace.Event)) bool
	// Thaw returns the canonical interned *Set holding the same traces —
	// the write-side escape hatch. A *Set thaws to itself; a frozen view
	// rebuilds bottom-up through the interner (once per arena, cached), so
	// thawed sets are pointer-canonical (Same) with freshly computed ones.
	Thaw() *Set
}

// Thaw returns p itself: a live set is already interned. It completes the
// View contract on *Set.
func (p *Set) Thaw() *Set { return p }

var _ View = (*Set)(nil)

// Picker picks the members a listing of a View holds as WalkSorted meets
// them: the limit least members in trace.T.Compare order, or with maxOnly
// the limit least maximal ones (limit <= 0: all of them). A pre-order walk
// over sorted edges meets members in that order, so the walk stops at the
// last member picked. The members picked are prefix closed when all
// members qualify, because a prefix sorts before its extensions.
type Picker struct {
	limit, size int
	maxOnly     bool
	picked      int
	// Truncated reports, once the walk has stopped, that members were
	// left out.
	Truncated bool
}

// NewPicker starts picking the listing of v.
func NewPicker(v View, limit int, maxOnly bool) Picker {
	return Picker{limit: limit, size: v.Size(), maxOnly: maxOnly}
}

// Capacity bounds how many members the listing holds, at most 1<<16, for
// sizing it up front.
func (p *Picker) Capacity() int {
	n := min(p.size, 1<<16)
	if p.limit > 0 {
		n = min(n, p.limit)
	}
	return n
}

// Pick takes the next member the walk meets, with whether it is maximal.
// pick reports whether the listing holds it, and more whether the walk
// should go on. A member met after the listing is full is left out with
// (false, false): every member left has a maximal member at or under it,
// so the listing is truncated. In a listing of all members, the last
// member picked stops the walk before its edges are ordered, and the
// set's size says whether any member is left.
func (p *Picker) Pick(maximal bool) (pick, more bool) {
	if p.limit > 0 && p.picked == p.limit {
		p.Truncated = true
		return false, false
	}
	if p.maxOnly && !maximal {
		return false, true
	}
	p.picked++
	if !p.maxOnly && p.picked == p.limit {
		p.Truncated = p.size > p.limit
		return true, false
	}
	return true, true
}

// ListTraces lists the members a Picker picks as traces carved from one
// backing array: TracesN when maxOnly is false, TracesMaxN when it is
// true, for every View.
func ListTraces(v View, limit int, maxOnly bool) ([]trace.T, bool) {
	l := traceListing{Picker: NewPicker(v, limit, maxOnly)}
	l.out = make([]trace.T, 0, l.Capacity())
	v.WalkSorted(l.visit)
	return l.out, l.Truncated
}

type traceListing struct {
	Picker
	out           []trace.T
	path, backing trace.T
}

func (l *traceListing) visit(depth int, last trace.Event, maximal bool) bool {
	pick, more := l.Pick(maximal)
	if !pick && !more {
		return false
	}
	if depth > 0 {
		l.path = append(l.path[:depth-1], last)
	}
	if pick {
		t := trace.T{}
		if depth > 0 {
			start := len(l.backing)
			l.backing = append(l.backing, l.path...)
			t = l.backing[start:len(l.backing):len(l.backing)]
		}
		l.out = append(l.out, t)
	}
	return more
}
