package op

import (
	"context"
	"fmt"
	"slices"
	"time"

	"cspsat/internal/closure"
	"cspsat/internal/csperr"
	"cspsat/internal/pool"
	"cspsat/internal/progress"
	"cspsat/internal/sem"
	"cspsat/internal/syntax"
	"cspsat/internal/trace"
	"cspsat/internal/value"
)

// Explorer enumerates the visible traces of a process by exhaustive search
// of its transition system. Hidden (τ) steps are closed over transparently:
// a visible trace of (chan L; P) is a trace of P with the L-communications
// erased, exactly the paper's (chan L; P) = P\L.
//
// An Explorer is not safe for concurrent use by multiple goroutines: its
// memo and its state table are unguarded. Each call explores on the
// calling goroutine.
type Explorer struct {
	// MaxTauStates caps how many distinct states a single τ-closure may
	// visit before exploration fails; it guards against state explosion in
	// heavily hidden networks. Zero means DefaultMaxTauStates.
	MaxTauStates int

	// Progress, when non-nil, receives one "explore" stage event when a
	// TracesContext call succeeds: the size of the state table, the
	// depth, the elapsed wall time, and Done. Callbacks must be cheap.
	Progress progress.Func

	// memo caches set(state, budget) by comparable struct key — the
	// budget plus the state's table id — so a lookup neither allocates
	// nor reads the state's term.
	memo map[memoKey]*closure.Set

	// The state table: states[id] is the record of the id-th distinct
	// state this explorer's explorations minted, and byHash maps a term's
	// structural hash (syntax.Hash) to the latest id minted with it.
	byHash map[uint64]uint32
	states []stateRec
}

// stateRec is one row of the explorer's state table: a state, the next
// older id whose term has the same hash, and, once the state has been
// stepped, its transitions in Step order. Stepping records each
// transition's continuation, not its target: conts[i] builds the target
// of trans[i], and next[i] is the target's id, or noState until an
// exploration follows that edge and target mints it. The table steps
// every state at most once, so every analysis reads a state's
// transitions from here instead of stepping it again; it caches nothing
// per trace or per τ-closure, keeping it O(states + transitions).
type stateRec struct {
	state   State
	same    uint32
	stepped bool
	trans   []Transition
	conts   []func(value.V) State
	next    []uint32
}

// noState marks an absent id: the end of a same-hash chain, or a target
// not yet minted.
const noState = ^uint32(0)

// memoKey identifies one memo entry: a remaining trace-length budget and
// the table id of the state it was computed from.
type memoKey struct {
	depth int
	state uint32
}

// intern returns the table id of s, adding s to the table if it is new.
func (x *Explorer) intern(s State) uint32 { return x.internHashed(s, syntax.Hash(s.Proc)) }

// internHashed is intern with the hash of s.Proc supplied: s is compared,
// by syntax.Equal, with every state of the table that has hash h.
func (x *Explorer) internHashed(s State, h uint64) uint32 {
	head, ok := x.byHash[h]
	if !ok {
		head = noState
	}
	for id := head; id != noState; id = x.states[id].same {
		if syntax.Equal(x.states[id].state.Proc, s.Proc) {
			return id
		}
	}
	if x.byHash == nil {
		x.byHash = map[uint64]uint32{}
	}
	id := uint32(len(x.states))
	x.byHash[h] = id
	x.states = append(x.states, stateRec{state: s, same: head})
	return id
}

// step returns the transitions of the state with the given id, stepping
// the state on its first call only. Their Next fields are unset: target
// builds and mints a transition's successor. The slice is shared by every
// caller and must not be modified.
func (x *Explorer) step(id uint32) ([]Transition, error) {
	if rec := &x.states[id]; rec.stepped {
		return rec.trans, nil
	}
	trans, conts, err := transitions(x.states[id].state)
	if err != nil {
		return nil, err
	}
	next := make([]uint32, len(trans))
	for i := range next {
		next[i] = noState
	}
	rec := &x.states[id]
	rec.stepped, rec.trans, rec.conts, rec.next = true, trans, conts, next
	return trans, nil
}

// target returns the table id of the successor along transition i of the
// stepped state id, building and interning the successor on the first
// call for that edge.
func (x *Explorer) target(id uint32, i int) uint32 {
	rec := &x.states[id]
	if t := rec.next[i]; t != noState {
		return t
	}
	next := rec.next // intern may move the table, not the row's slices
	t := x.intern(rec.conts[i](rec.trans[i].Ev.Msg))
	next[i] = t
	return t
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
func (x *Explorer) TracesContext(ctx context.Context, s State, depth int) (*closure.Set, error) {
	if x.memo == nil {
		x.memo = map[memoKey]*closure.Set{}
	}
	start := time.Now()
	set, err := x.tracesFrom(ctx, x.intern(s), depth)
	if err != nil {
		return nil, err
	}
	x.Progress.Emit(progress.Event{
		Stage:          "explore",
		StatesExpanded: len(x.states),
		Depth:          depth,
		Elapsed:        time.Since(start),
		Done:           true,
	})
	return set, nil
}

func (x *Explorer) tracesFrom(ctx context.Context, id uint32, depth int) (*closure.Set, error) {
	if depth <= 0 {
		return closure.Stop(), nil
	}
	if err := pool.Canceled(ctx); err != nil {
		return nil, err
	}
	key := memoKey{depth: depth, state: id}
	if cached, ok := x.memo[key]; ok {
		return cached, nil
	}
	reach, err := x.tauClosure(nil, id)
	if err != nil {
		return nil, err
	}
	branches := []*closure.Set{}
	for _, r := range reach {
		trans, err := x.step(r)
		if err != nil {
			return nil, err
		}
		for i, tr := range trans {
			if tr.Tau {
				continue // already folded into reach
			}
			sub := closure.Stop()
			if depth > 1 {
				// With no budget left the successor adds nothing, so
				// only a followed edge mints its target.
				if sub, err = x.tracesFrom(ctx, x.target(r, i), depth-1); err != nil {
					return nil, err
				}
			}
			branches = append(branches, closure.Prefix(tr.Ev, sub))
		}
	}
	out := closure.UnionAll(branches...)
	x.memo[key] = out
	return out, nil
}

// tauClosure appends to dst the ids of every state reachable from state id
// by zero or more τ-steps, id itself first, in depth-first discovery order.
// τ-cycles (hidden divergence) terminate the closure without error: in
// the paper's partial-correctness model a diverging branch simply
// contributes no further visible traces.
func (x *Explorer) tauClosure(dst []uint32, id uint32) ([]uint32, error) {
	limit := x.MaxTauStates
	if limit <= 0 {
		limit = DefaultMaxTauStates
	}
	base := len(dst)
	out := append(dst, id)
	var seen map[uint32]bool // made at the first τ-step
	work := []uint32{id}
	for len(work) > 0 {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		trans, err := x.step(cur)
		if err != nil {
			return nil, err
		}
		for i, tr := range trans {
			if !tr.Tau {
				continue
			}
			if seen == nil {
				seen = map[uint32]bool{id: true}
			}
			next := x.target(cur, i)
			if seen[next] {
				continue
			}
			if len(out)-base >= limit {
				return nil, fmt.Errorf("%w: op: τ-closure exceeded %d states; network too internally chatty or diverging", csperr.ErrDepthExceeded, limit)
			}
			seen[next] = true
			out = append(out, next)
			work = append(work, next)
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
// under ctx.
func TracesContext(ctx context.Context, p syntax.Proc, env sem.Env, depth int) (*closure.Set, error) {
	return NewExplorer().TracesContext(ctx, NewState(p, env), depth)
}

// VisibleEvents returns the visible communications enabled after trace t
// from initial state s — the "menu" a simulator offers. The boolean result
// reports whether t is actually a trace of the process. It follows t
// through the nodes of Walk's subset construction.
func VisibleEvents(s State, t trace.T) ([]Transition, bool, error) {
	var x Explorer
	ids, err := x.tauClosure(nil, x.intern(s))
	if err != nil {
		return nil, false, err
	}
	for _, want := range t {
		evs, seeds, err := x.successors(ids)
		if err != nil {
			return nil, false, err
		}
		i := slices.IndexFunc(evs, func(e trace.Event) bool { return e.Chan == want.Chan && e.Msg.Equal(want.Msg) })
		if i < 0 {
			return nil, false, nil
		}
		if ids, err = x.closeList(nil, seeds[i]); err != nil {
			return nil, false, err
		}
	}
	type edge struct {
		ev   trace.EventID
		next uint32
	}
	var menu []Transition
	seen := map[edge]bool{}
	for _, id := range ids {
		trans, err := x.step(id)
		if err != nil {
			return nil, false, err
		}
		for i, tr := range trans {
			if tr.Tau {
				continue
			}
			if e := (edge{tr.Ev.ID(), x.target(id, i)}); !seen[e] {
				seen[e] = true
				tr.Next = x.states[e.next].state
				menu = append(menu, tr)
			}
		}
	}
	return menu, true, nil
}
