package op

import (
	"context"
	"fmt"
	"slices"

	"cspsat/internal/closure"
	"cspsat/internal/csperr"
	"cspsat/internal/pool"
	"cspsat/internal/progress"
	"cspsat/internal/sem"
	"cspsat/internal/syntax"
	"cspsat/internal/trace"
)

// Explorer enumerates the visible traces of a process by exhaustive search
// of its transition system. Hidden (τ) steps are closed over transparently:
// a visible trace of (chan L; P) is a trace of P with the L-communications
// erased, exactly the paper's (chan L; P) = P\L.
//
// An Explorer is not safe for concurrent use by multiple goroutines (its
// memo is unguarded); the parallelism knob is Workers, which fans the BFS
// frontier of a single TracesContext call across a worker pool.
type Explorer struct {
	// MaxTauStates caps how many distinct states a single τ-closure may
	// visit before exploration fails; it guards against state explosion in
	// heavily hidden networks. Zero means DefaultMaxTauStates.
	MaxTauStates int

	// Workers sets how many goroutines TracesContext spreads the BFS
	// frontier across. Values ≤ 1 select the serial recursive path;
	// pool.WorkersAuto sizes the pool to the machine. The parallel path
	// produces node-identical results (same canonical pointers) as the
	// serial one: the stripe-sharded closure operators are
	// order-independent, and discovery order is kept deterministic by a
	// sequential stitch at each depth barrier.
	Workers int

	// SerialCutover tunes the adaptive serial/parallel cutover of the
	// parallel path: a BFS level or DP round with fewer items than the
	// cutover is expanded inline on the calling goroutine instead of
	// across the pool, so Workers: 8 on a tiny spec costs the same as
	// Workers: 1. Zero means pool.DefaultSerialCutover; 1 forces every
	// round through the pool (the differential tests pin serial/parallel
	// equivalence this way).
	SerialCutover int

	// Progress, when non-nil, receives "explore" stage events after each
	// BFS level (states expanded so far, frontier size, elapsed wall time)
	// and a final Done event. Callbacks must be cheap and goroutine-safe.
	Progress progress.Func

	// memo caches set(state, budget) by comparable struct key — the
	// budget plus the explorer-local dense id of the state — so a lookup
	// neither allocates nor hashes the full state string (ids finish the
	// string→id migration of DESIGN.md §3.4 inside the explorer).
	memo map[memoKey]*closure.Set
	// ids interns state keys to the dense ids memo keys use. Both maps
	// are confined to the exploring goroutine (the parallel path touches
	// them only between pool barriers).
	ids map[string]uint32
}

// memoKey identifies one memo entry: a remaining trace-length budget and
// the explorer-local id of the state it was computed from.
type memoKey struct {
	depth int
	state uint32
}

// stateID interns a state key to the explorer-local dense id used in memo
// keys. Not safe for concurrent use; callers hold the single-goroutine
// discipline of memo itself.
func (x *Explorer) stateID(key string) uint32 {
	if id, ok := x.ids[key]; ok {
		return id
	}
	if x.ids == nil {
		x.ids = map[string]uint32{}
	}
	id := uint32(len(x.ids))
	x.ids[key] = id
	return id
}

// DefaultMaxTauStates is the default τ-closure state cap.
const DefaultMaxTauStates = 1 << 16

// NewExplorer returns an explorer with default limits.
func NewExplorer() *Explorer {
	return &Explorer{memo: map[memoKey]*closure.Set{}}
}

// Traces returns the set of visible traces of length ≤ depth from state s,
// as a prefix closure. The result is exact over the sampled message
// domains: every trace of the (sampled) process of that length appears, and
// nothing else.
func (x *Explorer) Traces(s State, depth int) (*closure.Set, error) {
	return x.TracesContext(context.Background(), s, depth)
}

// TracesContext is Traces with cancellation: the exploration checks ctx at
// every state expansion and returns an error wrapping csperr.ErrCanceled
// promptly after ctx is done. Partially computed results are discarded;
// the shared closure caches remain valid (interned nodes are immutable).
// With Workers > 1 the BFS frontier is expanded in parallel, and the
// adaptive cutover (SerialCutover) keeps rounds too small to amortise the
// pool on the calling goroutine.
func (x *Explorer) TracesContext(ctx context.Context, s State, depth int) (*closure.Set, error) {
	if x.memo == nil {
		x.memo = map[memoKey]*closure.Set{}
	}
	if pool.Resolve(x.Workers) > 1 {
		return x.tracesParallel(ctx, s, depth)
	}
	return x.tracesFrom(ctx, s, depth)
}

func (x *Explorer) tracesFrom(ctx context.Context, s State, depth int) (*closure.Set, error) {
	if depth <= 0 {
		return closure.Stop(), nil
	}
	if err := pool.Canceled(ctx); err != nil {
		return nil, err
	}
	key := memoKey{depth: depth, state: x.stateID(s.Key())}
	if cached, ok := x.memo[key]; ok {
		return cached, nil
	}
	reach, err := x.tauClosure(s)
	if err != nil {
		return nil, err
	}
	branches := []*closure.Set{}
	for _, st := range reach {
		ts, err := Step(st)
		if err != nil {
			return nil, err
		}
		for _, tr := range ts {
			if tr.Tau {
				continue // already folded into reach
			}
			sub, err := x.tracesFrom(ctx, tr.Next, depth-1)
			if err != nil {
				return nil, err
			}
			branches = append(branches, closure.Prefix(tr.Ev, sub))
		}
	}
	out := closure.UnionAll(branches...)
	x.memo[key] = out
	return out, nil
}

// tauClosure returns every state reachable from s by zero or more τ-steps,
// including s itself. τ-cycles (hidden divergence) terminate the closure
// without error: in the paper's partial-correctness model a diverging
// branch simply contributes no further visible traces.
func (x *Explorer) tauClosure(s State) ([]State, error) {
	limit := x.MaxTauStates
	if limit <= 0 {
		limit = DefaultMaxTauStates
	}
	seen := map[string]bool{s.Key(): true}
	out := []State{s}
	work := []State{s}
	for len(work) > 0 {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		ts, err := Step(cur)
		if err != nil {
			return nil, err
		}
		for _, tr := range ts {
			if !tr.Tau {
				continue
			}
			k := tr.Next.Key()
			if seen[k] {
				continue
			}
			if len(seen) >= limit {
				return nil, fmt.Errorf("%w: op: τ-closure exceeded %d states; network too internally chatty or diverging", csperr.ErrDepthExceeded, limit)
			}
			seen[k] = true
			out = append(out, tr.Next)
			work = append(work, tr.Next)
		}
	}
	return out, nil
}

// Traces is a convenience wrapper enumerating visible traces of process p
// under env to the given depth with a fresh explorer.
func Traces(p syntax.Proc, env sem.Env, depth int) (*closure.Set, error) {
	return NewExplorer().Traces(NewState(p, env), depth)
}

// TracesContext is the context-aware convenience wrapper: a fresh explorer
// with the given worker count (≤ 1 for serial) under ctx.
func TracesContext(ctx context.Context, p syntax.Proc, env sem.Env, depth, workers int) (*closure.Set, error) {
	x := NewExplorer()
	x.Workers = workers
	return x.TracesContext(ctx, NewState(p, env), depth)
}

// VisibleEvents returns the visible communications enabled after trace t
// from initial state s — the "menu" a simulator offers. The boolean result
// reports whether t is actually a trace of the process. It follows t
// through the nodes of Walk's subset construction.
func VisibleEvents(s State, t trace.T) ([]Transition, bool, error) {
	var x Explorer
	n, err := x.node(nil, []State{s})
	if err != nil {
		return nil, false, err
	}
	for _, want := range t {
		evs, seeds, err := n.successors()
		if err != nil {
			return nil, false, err
		}
		i := slices.IndexFunc(evs, func(e trace.Event) bool { return e.Chan == want.Chan && e.Msg.Equal(want.Msg) })
		if i < 0 {
			return nil, false, nil
		}
		if n, err = x.node(nil, seeds[i]); err != nil {
			return nil, false, err
		}
	}
	steps, err := n.Steps()
	if err != nil {
		return nil, false, err
	}
	var menu []Transition
	seen := map[string]bool{}
	for _, ts := range steps {
		for _, tr := range ts {
			if tr.Tau {
				continue
			}
			k := tr.Ev.String() + "\x00" + tr.Next.Key()
			if !seen[k] {
				seen[k] = true
				menu = append(menu, tr)
			}
		}
	}
	return menu, true, nil
}
