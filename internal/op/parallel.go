package op

// Parallel trace exploration: the Workers>1 path of TracesContext. The
// serial explorer is a memoized depth-bounded recursion over (state,
// budget); this file computes the same function as a two-phase parallel
// schedule:
//
//  1. Level-synchronised BFS discovery. Each depth level's frontier is
//     expanded (τ-closure + transitions, both read from the explorer's
//     state table) concurrently across the pool, then the results are
//     stitched sequentially in frontier order, so the set of discovered
//     states, their first-discovery levels, and each state's
//     visible-transition list are all deterministic.
//
//  2. Bottom-up dynamic program over budgets, one pool barrier per budget:
//     set(s, 0) = {<>} and set(s, b) = ⋃ Prefix(ev, set(s', b−1)) over the
//     visible transitions s —ev→ s'. A state first discovered at level l is
//     only ever queried at budgets ≤ depth−l, and all its successors were
//     indexed during discovery, so every set(s', b−1) a barrier round reads
//     was published by the previous round (or is the budget-0 base case).
//
// The result is node-identical to the serial path: the closure operators
// return canonical interned nodes, union is order-independent on canonical
// operands, and both paths enumerate exactly the same transitions. The
// differential test in partests asserts the Same-pointer equality.

import (
	"context"
	"time"

	"cspsat/internal/closure"
	"cspsat/internal/pool"
	"cspsat/internal/progress"
	"cspsat/internal/trace"
)

// visEdge is one visible transition discovered during the BFS: the event
// plus the record of the successor state.
type visEdge struct {
	ev   trace.Event
	next *dpRec
}

// dpRec is the per-state record of a parallel exploration; the state
// itself and its transitions live in the explorer's state table under id.
type dpRec struct {
	id    uint32
	level int       // BFS level of first discovery
	vis   []visEdge // visible transitions, in deterministic stitch order
	sets  []*closure.Set
	need  []bool // which budgets the DP must actually compute
}

func (x *Explorer) tracesParallel(ctx context.Context, s State, depth int) (*closure.Set, error) {
	if depth <= 0 {
		return closure.Stop(), nil
	}
	rootID := x.intern(s)
	if cached, ok := x.memo[memoKey{depth: depth, state: rootID}]; ok {
		return cached, nil
	}
	workers := pool.Resolve(x.Workers)
	start := time.Now()

	root := &dpRec{id: rootID}
	discovered := map[uint32]*dpRec{rootID: root}
	order := []*dpRec{root}
	frontier := []*dpRec{root}
	expanded := 0

	// Phase 1: discovery. expansion carries one frontier state's visible
	// transitions out of the parallel section; workers write only their own
	// index and read and fill the shared state table under its mutex, and
	// the stitch below is sequential. Each level sizes its pool through the
	// adaptive cutover: a frontier too small to repay goroutine spawn
	// expands inline, so worker count never taxes a narrow level.
	type expansion struct {
		evs   []trace.Event
		nexts []uint32
	}
	for level := 0; level < depth && len(frontier) > 0; level++ {
		if frontierProbe != nil {
			frontierProbe(level, len(frontier))
		}
		results := make([]expansion, len(frontier))
		err := pool.Run(ctx, pool.Adaptive(workers, len(frontier), x.SerialCutover), len(frontier), func(i int) error {
			reach, err := x.tauClosure(frontier[i].id)
			if err != nil {
				return err
			}
			var ex expansion
			for _, r := range reach {
				trans, next, err := x.step(r)
				if err != nil {
					return err
				}
				for j, tr := range trans {
					if tr.Tau {
						continue // folded into reach
					}
					ex.evs = append(ex.evs, tr.Ev)
					ex.nexts = append(ex.nexts, next[j])
				}
			}
			results[i] = ex
			return nil
		})
		if err != nil {
			return nil, err
		}
		expanded += len(frontier)
		var next []*dpRec
		for i, rec := range frontier {
			ex := results[i]
			for j, id := range ex.nexts {
				nr, ok := discovered[id]
				if !ok {
					nr = &dpRec{id: id, level: level + 1}
					discovered[id] = nr
					order = append(order, nr)
					next = append(next, nr)
				}
				rec.vis = append(rec.vis, visEdge{ev: ex.evs[j], next: nr})
			}
		}
		x.Progress.Emit(progress.Event{
			Stage:          "explore",
			StatesExpanded: expanded,
			Frontier:       len(next),
			Depth:          level + 1,
			Elapsed:        time.Since(start),
		})
		frontier = next
	}

	// Demand marking: which (state, budget) pairs does the root actually
	// need? The serial recursion only ever memoizes set(s', d−|path|) for
	// paths it walks; computing every budget 1..depth−level per state (the
	// old schedule) did strictly more Prefix/Union work than the serial
	// path on chain-shaped graphs — measurably slower on narrow specs.
	// Budgets strictly decrease along edges, so the worklist terminates on
	// cyclic graphs too, and marks exactly the pairs the recursion would.
	for _, rec := range order {
		rec.sets = make([]*closure.Set, depth+1)
		rec.sets[0] = closure.Stop()
		rec.need = make([]bool, depth+1)
	}
	root.need[depth] = true
	type demand struct {
		rec *dpRec
		b   int
	}
	stack := []demand{{root, depth}}
	for len(stack) > 0 {
		d := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if d.b <= 1 {
			continue // successors are budget-0 base cases
		}
		for _, e := range d.rec.vis {
			if !e.next.need[d.b-1] {
				e.next.need[d.b-1] = true
				stack = append(stack, demand{e.next, d.b - 1})
			}
		}
	}

	// Phase 2: bottom-up DP over budgets. Budget b only reads sets written
	// at budget b−1, and the pool.Run barrier between rounds publishes
	// those writes, so workers never race on a record. Each round sizes
	// its pool through the adaptive cutover, like discovery.
	for b := 1; b <= depth; b++ {
		var work []*dpRec
		for _, rec := range order {
			if rec.need[b] {
				work = append(work, rec)
			}
		}
		err := pool.Run(ctx, pool.Adaptive(workers, len(work), x.SerialCutover), len(work), func(i int) error {
			rec := work[i]
			branches := make([]*closure.Set, 0, len(rec.vis))
			for _, e := range rec.vis {
				branches = append(branches, closure.Prefix(e.ev, e.next.sets[b-1]))
			}
			rec.sets[b] = closure.UnionAll(branches...)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	// The DP computed tracesFrom(s, b) for every discovered state and every
	// budget it can be asked at; fold it all into the serial memo so a later
	// Traces call (serial or parallel) on this explorer reuses it.
	for _, rec := range order {
		for b := 1; b <= depth-rec.level; b++ {
			if rec.sets[b] != nil {
				x.memo[memoKey{depth: b, state: rec.id}] = rec.sets[b]
			}
		}
	}
	x.Progress.Emit(progress.Event{
		Stage:          "explore",
		StatesExpanded: expanded,
		Elapsed:        time.Since(start),
		Done:           true,
	})
	return root.sets[depth], nil
}

// frontierProbe, when non-nil, observes each discovery level's frontier
// size; set only by tests measuring cutover thresholds.
var frontierProbe func(level, n int)
