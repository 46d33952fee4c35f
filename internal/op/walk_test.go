package op_test

import (
	"context"
	"math/rand"
	"strconv"
	"testing"

	"cspsat/internal/gen"
	"cspsat/internal/op"
	"cspsat/internal/sem"
	"cspsat/internal/syntax"
	"cspsat/internal/trace"
)

// traceWalk is the walk Walk's normal form must unfold to: one node per
// visible trace up to depth, breadth-first, each holding the τ-closed
// state list after its trace as rendered state keys in discovery order.
// It follows the same rules as the explorer (τ-closures depth-first in
// transition order, successors grouped by event in first-seen order, a
// group's closures joined without repeats) but shares only op.Step with
// it: no state table, no ids, no meeting a list twice. It reports false
// once a τ-closure holds more than limit states.
func traceWalk(t *testing.T, s op.State, depth, limit int) (traces []trace.T, lists [][]string, ok bool) {
	t.Helper()
	step := func(s op.State) []op.Transition {
		ts, err := op.Step(s)
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		return ts
	}
	closeList := func(seeds []op.State) ([]op.State, bool) {
		var out []op.State
		seen := map[string]bool{}
		for _, s := range seeds {
			inClosure := map[string]bool{s.Key(): true}
			closure := []op.State{s}
			for work := []op.State{s}; len(work) > 0; {
				cur := work[len(work)-1]
				work = work[:len(work)-1]
				for _, tr := range step(cur) {
					if k := tr.Next.Key(); tr.Tau && !inClosure[k] {
						if len(closure) >= limit {
							return nil, false
						}
						inClosure[k] = true
						closure = append(closure, tr.Next)
						work = append(work, tr.Next)
					}
				}
			}
			for _, c := range closure {
				if k := c.Key(); !seen[k] {
					seen[k] = true
					out = append(out, c)
				}
			}
		}
		return out, true
	}
	type item struct {
		t      trace.T
		states []op.State
	}
	root, ok := closeList([]op.State{s})
	if !ok {
		return nil, nil, false
	}
	for queue := []item{{nil, root}}; len(queue) > 0; {
		it := queue[0]
		queue = queue[1:]
		keys := make([]string, len(it.states))
		for i, s := range it.states {
			keys[i] = s.Key()
		}
		traces, lists = append(traces, it.t), append(lists, keys)
		if len(it.t) >= depth {
			continue
		}
		var evs []trace.Event
		var seeds [][]op.State
		for _, s := range it.states {
			for _, tr := range step(s) {
				if tr.Tau {
					continue
				}
				i := 0
				for i < len(evs) && (evs[i].Chan != tr.Ev.Chan || !evs[i].Msg.Equal(tr.Ev.Msg)) {
					i++
				}
				if i == len(evs) {
					evs, seeds = append(evs, tr.Ev), append(seeds, nil)
				}
				seeds[i] = append(seeds[i], tr.Next)
			}
		}
		for i, ev := range evs {
			states, ok := closeList(seeds[i])
			if !ok {
				return nil, nil, false
			}
			queue = append(queue, item{it.t.Append(ev), states})
		}
	}
	return traces, lists, true
}

// diffWalk unfolds the graph Walk returns for p and compares it with
// traceWalk: the same traces in the same order, each reaching a node that
// holds the same state list, and each node's Trace the first trace to
// reach it. It reports the number of nodes and traces, or false when the
// reference gave up at limit.
func diffWalk(t *testing.T, p syntax.Proc, env sem.Env, depth, limit int) (nodes, traces int, ok bool) {
	t.Helper()
	s := op.NewState(p, env)
	wantTraces, wantLists, ok := traceWalk(t, s, depth, limit)
	if !ok {
		return 0, 0, false
	}
	graph, err := new(op.Explorer).Walk(context.Background(), s, depth, nil)
	if err != nil {
		t.Fatalf("Walk: %v", err)
	}
	type item struct {
		t trace.T
		n int
	}
	reached := make([]bool, len(graph))
	k := 0
	for queue := []item{{nil, 0}}; len(queue) > 0; k++ {
		it := queue[0]
		queue = queue[1:]
		n := graph[it.n]
		if k >= len(wantTraces) {
			t.Fatalf("the walk unfolds to more than the reference's %d traces", len(wantTraces))
		}
		if !it.t.Equal(wantTraces[k]) {
			t.Fatalf("trace %d unfolds as %s, reference %s", k, it.t, wantTraces[k])
		}
		if len(n.States) != len(wantLists[k]) {
			t.Fatalf("after %s: node %d holds %d states, reference %d", it.t, it.n, len(n.States), len(wantLists[k]))
		}
		for i, st := range n.States {
			if st.Key() != wantLists[k][i] {
				t.Fatalf("after %s: node %d state %d is %s, reference %s", it.t, it.n, i, st.Key(), wantLists[k][i])
			}
		}
		if !reached[it.n] {
			reached[it.n] = true
			if !n.Trace.Equal(it.t) {
				t.Fatalf("node %d is first reached by %s but records %s", it.n, it.t, n.Trace)
			}
		}
		if len(it.t) >= depth {
			if len(it.t) == len(n.Trace) && n.Edges != nil {
				t.Fatalf("node %d at the depth bound was expanded", it.n)
			}
			continue
		}
		for _, e := range n.Edges {
			queue = append(queue, item{it.t.Append(e.Ev), e.To})
		}
	}
	if k != len(wantTraces) {
		t.Fatalf("the walk unfolds to %d traces, the reference has %d", k, len(wantTraces))
	}
	for i, r := range reached {
		if !r {
			t.Fatalf("node %d is never reached", i)
		}
	}
	return len(graph), k, true
}

// TestWalkUnfoldsToTraceWalk checks the normal form's one promise: meeting
// each τ-closed state list once loses nothing and reorders nothing. On
// every spec root, and on generated terms with parallel composition and
// hiding, the graph unfolds to exactly the walk over traces.
func TestWalkUnfoldsToTraceWalk(t *testing.T) {
	for _, c := range []struct {
		file  string
		roots []string
		depth int
	}{
		{"copier.csp", []string{"copier", "copysys"}, 6},
		{"protocol.csp", []string{"protocol"}, 6},
		{"multiplier.csp", []string{"multiplier"}, 4},
		{"buffers.csp", []string{"buf1", "buf2"}, 6},
		{"philosophers.csp", []string{"deadlocking", "safe"}, 5},
		{"tokenring.csp", []string{"sys"}, 6},
		{"nondet.csp", []string{"vend", "flaky"}, 6},
	} {
		for _, root := range c.roots {
			t.Run(c.file+"/"+root, func(t *testing.T) {
				pr := load(t, c.file, 2, root)
				nodes, traces, _ := diffWalk(t, pr.p, pr.env, c.depth, 1<<16)
				if nodes > traces {
					t.Fatalf("%d nodes for %d traces", nodes, traces)
				}
			})
		}
	}

	r := rand.New(rand.NewSource(18))
	compared, shared := 0, 0
	for i := 0; i < 120; i++ {
		m, main := gen.Module(r, gen.Config{MaxDepth: 3, Defs: 2, AllowPar: i%2 == 0, AllowHide: true})
		env := sem.NewEnv(m, 2)
		t.Run("term/"+strconv.Itoa(i), func(t *testing.T) {
			nodes, traces, ok := diffWalk(t, main, env, 4, 256)
			if t.Failed() {
				t.Logf("term %s\nmodule:\n%s", main, m)
			}
			if ok {
				compared++
				if nodes < traces {
					shared++
				}
			}
		})
	}
	if compared < 100 || shared == 0 {
		t.Fatalf("generated batch too thin: %d of 120 compared, %d meeting a state list twice", compared, shared)
	}
}
