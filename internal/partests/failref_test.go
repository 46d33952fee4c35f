package partests

// Brute-force reference for the three analyses built on the subset walk
// over τ-closed state sets: stable-failures acceptance families, divergence
// (a reachable τ-cycle) and reachable stuck states. Each is derived from
// refWalk alone — op.Step, syntactic state keys, rendered event strings,
// naive τ-closures — and shares no code with internal/failures or the
// op.Explorer: no EventIDs, no explorer closures, no engine walk. The
// engines must agree with it on every spec root and on generated terms.

import (
	"context"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"cspsat/internal/failures"
	"cspsat/internal/gen"
	"cspsat/internal/op"
	"cspsat/internal/sem"
	"cspsat/internal/syntax"
)

// walkRefDepth caps the spec-root depth of the walk-analysis diff: the
// failures model of the philosophers enumerates the interleaving product
// inside every τ-closure, and the reference re-steps every state it keys.
const walkRefDepth = 4

func refStep(t *testing.T, s op.State) []op.Transition {
	t.Helper()
	ts, err := op.Step(s)
	if err != nil {
		t.Fatalf("reference Step: %v", err)
	}
	return ts
}

// refAcceptanceKey renders an acceptance from its events' keys:
// deduplicated, sorted and concatenated. The empty acceptance (a stable
// state refusing everything) renders as "".
func refAcceptanceKey(evs []string) string {
	sort.Strings(evs)
	var sb strings.Builder
	for i, e := range evs {
		if i == 0 || e != evs[i-1] {
			sb.WriteString(e)
		}
	}
	return sb.String()
}

// refModel is what the reference derives from one walk of a process.
type refModel struct {
	// accs maps every trace key to the acceptance family after it: the
	// acceptance keys of the stable states (no τ-step enabled) in its
	// τ-closed set.
	accs map[string]map[string]bool
	// divergent holds the keys of the traces after which a τ-cycle is
	// reachable; shortestDiv is the length of the shortest, -1 if none.
	divergent   map[string]bool
	shortestDiv int
	// stuck maps the key of every reachable state with no transition at
	// all to its shortest traces.
	stuck map[string]*refStuckState
}

// refStuckState is one reachable stuck state: the length of the shortest
// trace reaching it, and every trace of that length that does.
type refStuckState struct {
	depth  int
	traces map[string]bool
}

// refAnalyse walks p to depth and derives the three analyses. Generated
// terms can recurse through hiding so that a τ-closure never ends, which
// no brute-force reference can enumerate: with limit > 0, a walk whose
// τ-closures outgrow limit states reports false and derives nothing.
func refAnalyse(t *testing.T, p syntax.Proc, env sem.Env, depth, limit int) (*refModel, bool) {
	t.Helper()
	m := &refModel{
		accs:        map[string]map[string]bool{},
		divergent:   map[string]bool{},
		shortestDiv: -1,
		stuck:       map[string]*refStuckState{},
	}
	ok := refWalk(t, p, env, depth, limit, func(n refNode) {
		accs := map[string]bool{}
		tauSucc := map[string][]string{}
		for _, st := range n.states {
			ts := refStep(t, st)
			k := st.Key()
			if len(ts) == 0 {
				e := m.stuck[k]
				if e == nil {
					// refWalk is breadth-first: the first depth a state
					// is met at is its shortest.
					e = &refStuckState{depth: n.depth, traces: map[string]bool{}}
					m.stuck[k] = e
				}
				if n.depth == e.depth {
					e.traces[n.key] = true
				}
			}
			tauSucc[k] = nil
			var evs []string
			for _, tr := range ts {
				if tr.Tau {
					tauSucc[k] = append(tauSucc[k], tr.Next.Key())
				} else {
					evs = append(evs, refEventKey(tr.Ev))
				}
			}
			if len(tauSucc[k]) == 0 {
				accs[refAcceptanceKey(evs)] = true
			}
		}
		m.accs[n.key] = accs
		if refHasCycle(tauSucc) {
			m.divergent[n.key] = true
			if m.shortestDiv < 0 {
				m.shortestDiv = n.depth
			}
		}
	})
	return m, ok
}

// refHasCycle reports whether a successor graph has a cycle. It peels
// vertices whose successors are all peeled already (such a vertex cannot
// lie on a cycle); a cycle exists iff peeling stalls with vertices left.
func refHasCycle(succ map[string][]string) bool {
	live := map[string]bool{}
	for k := range succ {
		live[k] = true
	}
	for changed := true; changed; {
		changed = false
		for k := range live {
			dead := true
			for _, n := range succ[k] {
				if live[n] {
					dead = false
					break
				}
			}
			if dead {
				delete(live, k)
				changed = true
			}
		}
	}
	return len(live) > 0
}

// walkFindings counts what one diff exercised, so the tests can insist the
// batch is not vacuous.
type walkFindings struct {
	nondet   bool // some trace has more than one acceptance
	diverges bool
	stuck    int
}

// diffWalkAnalyses checks failures.Compute, failures.Diverges and
// op.FindDeadlocks against the reference on one process. It reports false,
// running no engine, when the reference walk outgrows limit.
func diffWalkAnalyses(t *testing.T, p syntax.Proc, env sem.Env, depth, limit int) (walkFindings, bool) {
	t.Helper()
	var f walkFindings
	ref, ok := refAnalyse(t, p, env, depth, limit)
	if !ok {
		return f, false
	}

	m, err := failures.Compute(p, env, depth)
	if err != nil {
		t.Fatalf("failures.Compute: %v", err)
	}
	got := map[string]map[string]bool{}
	for _, tr := range m.Traces() {
		accs, ok := m.Acceptances(tr)
		if !ok {
			t.Fatalf("model lists %s but has no acceptances for it", tr)
		}
		set := map[string]bool{}
		for _, a := range accs {
			evs := make([]string, len(a))
			for i, e := range a {
				evs[i] = refEventKey(e)
			}
			set[refAcceptanceKey(evs)] = true
		}
		if len(set) != len(accs) {
			t.Errorf("after %s the model repeats an acceptance: %v", tr, accs)
		}
		got[refTraceKey(tr)] = set
		f.nondet = f.nondet || len(accs) > 1
	}
	if len(got) != len(ref.accs) {
		t.Errorf("failures model has %d traces, reference has %d", len(got), len(ref.accs))
	}
	for k, wa := range ref.accs {
		ga, ok := got[k]
		if !ok {
			t.Errorf("reference trace <%s> missing from the failures model", printable(k))
			continue
		}
		if !sameKeys(ga, wa) {
			t.Errorf("after <%s>: model acceptances %q, reference %q", printable(k), sortedKeys(ga), sortedKeys(wa))
		}
	}
	for k := range got {
		if _, ok := ref.accs[k]; !ok {
			t.Errorf("failures-model trace <%s> missing from the reference", printable(k))
		}
	}

	dtr, div, err := failures.Diverges(context.Background(), p, env, depth)
	if err != nil {
		t.Fatalf("failures.Diverges: %v", err)
	}
	switch {
	case div != (ref.shortestDiv >= 0):
		t.Errorf("Diverges = %v, reference shortest divergent trace length %d", div, ref.shortestDiv)
	case div && (len(dtr) != ref.shortestDiv || !ref.divergent[refTraceKey(dtr)]):
		t.Errorf("Diverges after %s, which is not among the reference's shortest divergent traces (length %d)", dtr, ref.shortestDiv)
	}
	f.diverges = div

	dls, err := op.FindDeadlocks(context.Background(), op.NewState(p, env), depth)
	if err != nil {
		t.Fatalf("op.FindDeadlocks: %v", err)
	}
	seen := map[string]bool{}
	for _, d := range dls {
		k := d.State.Key()
		if seen[k] {
			t.Errorf("FindDeadlocks reports stuck state %s twice", k)
		}
		seen[k] = true
		e, ok := ref.stuck[k]
		switch {
		case !ok:
			t.Errorf("FindDeadlocks reports %s after %s, which the reference never reaches stuck", k, d.Trace)
		case len(d.Trace) != e.depth || !e.traces[refTraceKey(d.Trace)]:
			t.Errorf("FindDeadlocks reaches %s after %s, not a shortest trace (length %d)", k, d.Trace, e.depth)
		}
	}
	for k := range ref.stuck {
		if !seen[k] {
			t.Errorf("reference stuck state %s missing from FindDeadlocks", k)
		}
	}
	f.stuck = len(dls)
	return f, true
}

func sameKeys(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, printable(k))
	}
	sort.Strings(out)
	return out
}

// TestWalkAnalysesMatchReferenceOnSpecs diffs the three analyses against
// the reference on every spec root.
func TestWalkAnalysesMatchReferenceOnSpecs(t *testing.T) {
	var total walkFindings
	for _, s := range specRoots {
		mod := loadSpec(t, s.file)
		for _, root := range s.roots {
			t.Run(s.file+"/"+root, func(t *testing.T) {
				p, err := mod.Proc(root)
				if err != nil {
					t.Fatal(err)
				}
				f, _ := diffWalkAnalyses(t, p, mod.Env(), min(s.depth, walkRefDepth), 0)
				total.nondet = total.nondet || f.nondet
				total.diverges = total.diverges || f.diverges
				total.stuck += f.stuck
			})
		}
	}
	if !total.nondet || !total.diverges || total.stuck == 0 {
		t.Fatalf("spec roots exercised too little: %+v", total)
	}
}

// TestWalkAnalysesMatchReferenceOnGenerated diffs the three analyses
// against the reference on random terms over the full language, internal
// choice, parallel composition and hiding included. Every other term is
// sequential and run under "chan a, b" instead, so that recursion through a
// hidden channel makes divergence common without parallel composition
// multiplying the hidden chatter. A term that recurses through hiding can
// have a τ-closure that never ends; the reference cannot enumerate it, so
// terms whose closures outgrow genRefLimit states are skipped, counted,
// and must stay rare. (The engines' own cap on such terms has dedicated
// tests.)
func TestWalkAnalysesMatchReferenceOnGenerated(t *testing.T) {
	const cases, depth, genRefLimit = 130, 3, 1024
	r := rand.New(rand.NewSource(1981))
	var compared, nondet, diverges, stuck int
	for i := 0; i < cases; i++ {
		cfg := gen.Config{MaxDepth: 3, Defs: 2, AllowPar: i%2 == 0, AllowHide: true}
		m, main := gen.Module(r, cfg)
		env := sem.NewEnv(m, 2)
		if i%2 == 1 {
			main = syntax.Hiding{Channels: []syntax.ChanItem{{Name: "a"}, {Name: "b"}}, Body: main}
		}
		t.Run("term/"+strconv.Itoa(i), func(t *testing.T) {
			f, ok := diffWalkAnalyses(t, main, env, depth, genRefLimit)
			if t.Failed() {
				t.Logf("term %s\nmodule:\n%s", main, m)
			}
			if !ok {
				return
			}
			compared++
			if f.nondet {
				nondet++
			}
			if f.diverges {
				diverges++
			}
			if f.stuck > 0 {
				stuck++
			}
		})
	}
	t.Logf("%d of %d terms compared: %d nondeterministic, %d diverging, %d with stuck states",
		compared, cases, nondet, diverges, stuck)
	if compared < 100 || nondet == 0 || diverges == 0 || stuck == 0 {
		t.Fatalf("generated batch too thin: %d of %d compared, %d nondeterministic, %d diverging, %d with stuck states",
			compared, cases, nondet, diverges, stuck)
	}
}
