package partests

// Six-spec differential test for the interned-symbol engine. refTraces is
// a deliberately naive enumerator over op.Step: state sets keyed by
// Proc.String(), traces rendered as plain strings, no closure tries, no
// EventIDs, no bitsets, no memoisation — a second implementation of the
// paper's prefix-closed trace semantics that shares nothing with the id
// layer under test. The engine must produce exactly its trace sets on
// every spec root at the depths the parallel tests use.

import (
	"sort"
	"strings"
	"testing"

	"cspsat/internal/core"
	"cspsat/internal/op"
	"cspsat/internal/sem"
	"cspsat/internal/syntax"
	"cspsat/internal/trace"
	"cspsat/internal/value"
)

// refEventKey renders one event unambiguously (channel and message key are
// separated so sym "3" and int 3 cannot collide).
func refEventKey(e trace.Event) string {
	return string(e.Chan) + "\x01" + e.Msg.Key() + "\x00"
}

// refTraceKey renders a trace the way refWalk keys its nodes.
func refTraceKey(tr trace.T) string {
	var sb strings.Builder
	for _, e := range tr {
		sb.WriteString(refEventKey(e))
	}
	return sb.String()
}

// refTauClosure expands a state to everything reachable by internal steps
// alone, deduplicating on the syntactic state key.
func refTauClosure(t *testing.T, s op.State) []op.State {
	t.Helper()
	out, _ := refTauClosureWithin(t, s, 0)
	return out
}

// refTauClosureWithin is refTauClosure giving up, with false, once the
// closure holds more than limit states; limit 0 means no limit.
func refTauClosureWithin(t *testing.T, s op.State, limit int) ([]op.State, bool) {
	t.Helper()
	seen := map[string]bool{s.Key(): true}
	out := []op.State{s}
	work := []op.State{s}
	for len(work) > 0 {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		ts, err := op.Step(cur)
		if err != nil {
			t.Fatalf("reference Step: %v", err)
		}
		for _, tr := range ts {
			if !tr.Tau {
				continue
			}
			k := tr.Next.Key()
			if seen[k] {
				continue
			}
			if limit > 0 && len(seen) >= limit {
				return nil, false
			}
			seen[k] = true
			out = append(out, tr.Next)
			work = append(work, tr.Next)
		}
	}
	return out, true
}

// refNode is one node of the reference enumeration: a visible trace, as
// its rendered key and its length, with the τ-closed set of states
// reachable after it.
type refNode struct {
	key    string
	depth  int
	states []op.State
}

// refWalk visits every visible trace of p up to depth (inclusive) as a
// refNode, breadth-first over τ-closed state sets. States reached by the
// same visible event are merged (their continuations union), which mirrors
// the semantics without ever sharing code with the engine. Sibling order
// follows map iteration, so nothing built on it may depend on order. With
// limit > 0 the walk stops and returns false as soon as one τ-closure
// holds more than limit states.
func refWalk(t *testing.T, p syntax.Proc, env sem.Env, depth, limit int, visit func(refNode)) bool {
	t.Helper()
	start, ok := refTauClosureWithin(t, op.NewState(p, env), limit)
	if !ok {
		return false
	}
	queue := []refNode{{states: start}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		visit(cur)
		if cur.depth >= depth {
			continue
		}
		nextBy := map[string][]op.State{}
		for _, st := range cur.states {
			ts, err := op.Step(st)
			if err != nil {
				t.Fatalf("reference Step: %v", err)
			}
			for _, tr := range ts {
				if tr.Tau {
					continue
				}
				k := refEventKey(tr.Ev)
				nextBy[k] = append(nextBy[k], tr.Next)
			}
		}
		for ek, nexts := range nextBy {
			seen := map[string]bool{}
			var closed []op.State
			for _, n := range nexts {
				cl, ok := refTauClosureWithin(t, n, limit)
				if !ok {
					return false
				}
				for _, c := range cl {
					if k := c.Key(); !seen[k] {
						seen[k] = true
						closed = append(closed, c)
					}
				}
			}
			queue = append(queue, refNode{key: cur.key + ek, depth: cur.depth + 1, states: closed})
		}
	}
	return true
}

// refTraces enumerates the visible traces of p up to depth as a set of
// rendered strings.
func refTraces(t *testing.T, p syntax.Proc, env sem.Env, depth int) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	refWalk(t, p, env, depth, 0, func(n refNode) { out[n.key] = true })
	return out
}

// TestInternedEngineMatchesStringReference compares the id-keyed engine's
// trace sets against refTraces on all seven specs at the standard depths.
func TestInternedEngineMatchesStringReference(t *testing.T) {
	for _, s := range specRoots {
		sys, err := core.LoadFile(specFile(s.file), core.Options{NatWidth: 2})
		if err != nil {
			t.Fatalf("loading %s: %v", s.file, err)
		}
		for _, root := range s.roots {
			t.Run(s.file+"/"+root, func(t *testing.T) {
				p, err := sys.Proc(root)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sys.Traces(p, s.depth)
				if err != nil {
					t.Fatal(err)
				}
				gotKeys := map[string]bool{}
				for _, tr := range got.Traces() {
					gotKeys[refTraceKey(tr)] = true
				}
				want := refTraces(t, p, sys.Env(), s.depth)
				if len(gotKeys) != len(want) {
					t.Errorf("engine has %d traces, reference has %d", len(gotKeys), len(want))
				}
				for k := range want {
					if !gotKeys[k] {
						t.Errorf("reference trace missing from engine: %q", printable(k))
					}
				}
				for k := range gotKeys {
					if !want[k] {
						t.Errorf("engine trace missing from reference: %q", printable(k))
					}
				}
			})
		}
	}
}

// printable rewrites the separator bytes of a rendered trace for error
// messages, sorted output not needed — map iteration already randomises.
func printable(k string) string {
	k = strings.ReplaceAll(k, "\x01", ".")
	return strings.TrimSuffix(strings.ReplaceAll(k, "\x00", " "), " ")
}

// specFile resolves a spec name the same way loadSpec does; kept as a
// helper so the core-level loader and the facade loader agree on paths.
func specFile(name string) string {
	return "../../specs/" + name
}

// TestReferenceEnumeratorSane guards the reference itself: on a known tiny
// spec the reference trace count must match a hand-computable bound, so a
// bug that silenced both engines equally would still be caught.
func TestReferenceEnumeratorSane(t *testing.T) {
	sys, err := core.LoadFile(specFile("copier.csp"), core.Options{NatWidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	p, err := sys.Proc("copier")
	if err != nil {
		t.Fatal(err)
	}
	want := refTraces(t, p, sys.Env(), 2)
	// copier = input?x -> wire!x -> copier over NAT width 2: at depth 2 the
	// traces are <>, <input.0>, <input.1>, <input.0 wire.0>, <input.1 wire.1>.
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, printable(k))
	}
	sort.Strings(keys)
	if len(want) != 5 {
		t.Fatalf("reference found %d traces at depth 2, want 5: %q", len(want), keys)
	}
	if !want[""] || !want[refEventKey(trace.Event{Chan: "input", Msg: value.Int(0)})+refEventKey(trace.Event{Chan: "wire", Msg: value.Int(0)})] {
		t.Fatalf("reference missing expected traces: %q", keys)
	}
}
