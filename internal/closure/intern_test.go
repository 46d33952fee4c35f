package closure_test

// Tests for the hash-consing machinery itself: canonical-node sharing,
// operator memo hits, the Stats counters, and the bounded two-generation
// eviction policy. The algebraic behaviour of the operators is covered by
// closure_test.go and laws_prop_test.go; this file pins down the cache
// contract those tests rely on.

import (
	"fmt"
	"testing"

	"cspsat/internal/closure"
	"cspsat/internal/trace"
)

// TestInternSharing: structurally equal sets built independently share one
// canonical root, so Equal degenerates to a pointer comparison.
func TestInternSharing(t *testing.T) {
	mk := func() *closure.Set {
		return closure.FromTraces([]trace.T{
			{ev("a", 1), ev("b", 2)},
			{ev("a", 1), ev("c", 3)},
			{ev("b", 2)},
		})
	}
	p, q := mk(), mk()
	if !p.Same(q) {
		t.Fatal("independently built equal sets must share a canonical root")
	}
	// Shared subtrees too: the suffix {<>, <b.2>} under a.1 and at the top
	// level is one node, which Channels() must visit only once (covered
	// implicitly — this just pins the observable sharing effects).
	if !closure.Union(p, q).Same(p) {
		t.Fatal("union of a set with itself must return the canonical node")
	}
}

// TestOperatorMemoHits: repeating an operator call on the same interned
// operands is answered from the memo table.
func TestOperatorMemoHits(t *testing.T) {
	closure.ResetCaches()
	p := closure.FromTraces([]trace.T{{ev("a", 1), ev("w", 2), ev("b", 3)}})
	q := closure.FromTraces([]trace.T{{ev("w", 2), ev("b", 3)}})
	x := trace.NewSet("a", "w", "b")
	y := trace.NewSet("w", "b")

	run := func() {
		closure.Union(p, q)
		closure.Union(q, p) // symmetric key: must hit the same entry
		closure.Intersect(p, q)
		closure.Hide(p, trace.NewSet("w"))
		closure.Ignore(q, []trace.Event{ev("a", 1)}, 4)
		closure.Parallel(p, q, x, y)
	}
	run()
	before := closure.Stats()
	run()
	after := closure.Stats()

	for op, b := range before.Ops {
		a := after.Ops[op]
		if a.Misses != b.Misses {
			t.Errorf("%s: repeat run recomputed (%d → %d misses)", op, b.Misses, a.Misses)
		}
	}
	if after.MemoHits <= before.MemoHits {
		t.Errorf("repeat run produced no memo hits (%d → %d)", before.MemoHits, after.MemoHits)
	}
	if hits := after.Ops["union"].Hits; hits < 2 {
		t.Errorf("union memo hits = %d, want ≥ 2 (symmetric key must unify P∪Q and Q∪P)", hits)
	}
}

// TestStatsCounters: InternedNodes tracks table contents and ResetCaches
// zeroes everything.
func TestStatsCounters(t *testing.T) {
	closure.ResetCaches()
	if s := closure.Stats(); s.InternedNodes != 0 || s.MemoHits != 0 || s.MemoMisses != 0 {
		t.Fatalf("stats not zero after reset: %+v", s)
	}
	_ = closure.FromTraces([]trace.T{{ev("a", 1)}, {ev("b", 2), ev("c", 3)}})
	s := closure.Stats()
	// Nodes: empty is pre-interned and not table-resident; expect the three
	// distinct non-trivial nodes of the trie (root, <b>-subtree, <b c>-leaf
	// shares empty... exact count depends on sharing), so just require > 0
	// and that a rebuild adds nothing.
	if s.InternedNodes == 0 {
		t.Fatal("building a set interned no nodes")
	}
	_ = closure.FromTraces([]trace.T{{ev("a", 1)}, {ev("b", 2), ev("c", 3)}})
	if s2 := closure.Stats(); s2.InternedNodes != s.InternedNodes {
		t.Fatalf("rebuilding an existing set changed node count: %d → %d", s.InternedNodes, s2.InternedNodes)
	} else if s2.InternHits <= s.InternHits {
		t.Fatalf("rebuilding an existing set produced no intern hits")
	}
}

// TestBoundedEviction: with a tiny budget the table rotates and sheds old
// entries instead of growing without bound, and semantic operations remain
// correct on sets whose nodes straddle evictions.
func TestBoundedEviction(t *testing.T) {
	closure.ResetCaches()
	closure.SetCacheBudget(16, 16)
	defer closure.SetCacheBudget(0, 0)

	keep := closure.FromTraces([]trace.T{{ev("a", 1), ev("b", 2)}})
	var last *closure.Set
	for i := 0; i < 500; i++ {
		last = closure.FromTraces([]trace.T{{ev("x", int64(i)), ev("y", int64(i+1))}})
	}
	s := closure.Stats()
	if s.Rotations == 0 || s.Evicted == 0 {
		t.Fatalf("500 distinct sets under a 16-node budget must rotate and evict: %+v", s)
	}
	if s.InternedNodes > 2*16 {
		t.Fatalf("interned nodes = %d, exceeds the 2×limit retention bound", s.InternedNodes)
	}

	// keep's nodes were almost certainly evicted; the semantics must not
	// notice. A rebuilt twin compares Equal (structural fallback) and all
	// operators still work.
	twin := closure.FromTraces([]trace.T{{ev("a", 1), ev("b", 2)}})
	if !keep.Equal(twin) || !keep.SubsetOf(twin) || !twin.SubsetOf(keep) {
		t.Fatal("Equal/SubsetOf must survive eviction of canonical nodes")
	}
	u := closure.Union(keep, last)
	if u.Size() != keep.Size()+last.Size()-1 {
		t.Fatalf("union across evicted operands has size %d, want %d", u.Size(), keep.Size()+last.Size()-1)
	}
}

// TestResetCachesIsolation: a reset invalidates canonical identity (Same)
// but never semantic identity (Equal); fresh results are again canonical.
func TestResetCachesIsolation(t *testing.T) {
	p := closure.FromTraces([]trace.T{{ev("a", 1)}})
	closure.ResetCaches()
	q := closure.FromTraces([]trace.T{{ev("a", 1)}})
	if p.Same(q) {
		t.Fatal("reset must mint fresh canonical nodes")
	}
	if !p.Equal(q) {
		t.Fatal("reset must not affect structural equality")
	}
	if !closure.FromTraces([]trace.T{{ev("a", 1)}}).Same(q) {
		t.Fatal("post-reset builds must be canonical among themselves")
	}
}

// TestConcurrentOperators exercises the table mutexes: many goroutines
// interleave builds and operators on overlapping operands. Run under
// -race this is the aliasing/locking regression test for the cache layer.
func TestConcurrentOperators(t *testing.T) {
	closure.ResetCaches()
	base := closure.FromTraces([]trace.T{{ev("a", 1), ev("w", 2)}, {ev("w", 2), ev("b", 3)}})
	done := make(chan error)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 200; i++ {
				p := closure.FromTraces([]trace.T{{ev("a", int64(g)), ev("b", int64(i%5))}})
				u := closure.Union(p, base)
				if !p.SubsetOf(u) || !base.SubsetOf(u) {
					done <- fmt.Errorf("goroutine %d iter %d: union lost an operand", g, i)
					return
				}
				closure.Hide(u, trace.NewSet("w"))
				closure.Intersect(u, base)
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
