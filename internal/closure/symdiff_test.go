package closure_test

// Differential tests for the symbol-interned engine: the id-keyed trie
// (edges keyed by trace.EventID, alphabets as channel bitsets, memo keys
// packed into small structs) must produce exactly the trace sets of the
// string-keyed reference implementation in laws_prop_test.go, which
// materialises sets as plain maps keyed by rendered trace strings and
// never touches ids, bitsets, or interning. The allocation guards then pin
// the point of the id layer: warm-path operators allocate no per-event
// strings.

import (
	"math/rand"
	"testing"

	"cspsat/internal/closure"
	"cspsat/internal/trace"
)

// TestPropComposedOpsMatchReference composes operators (the shapes the
// denotational engine builds: hide-of-union, intersect-of-hides, parallel
// over prefixed operands) and compares each composite against the same
// composition of reference operators.
func TestPropComposedOpsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(424242))
	for i := 0; i < propIters; i++ {
		p := randClosure(r, []string{"a", "w"}, 3, 4)
		q := randClosure(r, []string{"w", "b"}, 3, 4)
		rp, rq := refFrom(p), refFrom(q)
		hide := trace.NewSet("w")

		sameSet(t, "hide(union)",
			closure.Hide(closure.Union(p, q), hide),
			refHide(refUnion(rp, rq), hide))

		sameSet(t, "intersect(hide,hide)",
			closure.Intersect(closure.Hide(p, hide), closure.Hide(q, hide)),
			refIntersect(refHide(rp, hide), refHide(rq, hide)))

		x, y := trace.NewSet("a", "w"), trace.NewSet("w", "b")
		par := closure.Parallel(p, q, x, y)
		maxLen := par.MaxLen()
		sameSet(t, "hide(parallel)",
			closure.Hide(par, hide),
			refHide(refParallel(rp, rq, x, y, maxLen), hide))

		pre := closure.Prefix(ev("a", 1), closure.Union(p, q))
		rpre := refFrom(pre) // Prefix has no composite reference; re-enumerate
		sameSet(t, "truncate(prefix(union))",
			pre.TruncateTo(2),
			refTruncate(rpre, 2))
	}
}

// refTruncate filters the reference set to traces of length ≤ depth.
func refTruncate(a refSet, depth int) refSet {
	out := newRef()
	for _, tr := range a.m {
		if len(tr) <= depth {
			out.add(tr)
		}
	}
	return out
}

// TestPropUnionAllKWay pins the k-way UnionAll merge three ways: it equals
// the reference union of all operands, it returns the very node the
// pairwise Union fold returns (canonical interning makes them pointer-
// identical, which the engines' Same-pointer differential tests rely on),
// and it is insensitive to operand order and duplication.
func TestPropUnionAllKWay(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for i := 0; i < propIters; i++ {
		k := 3 + r.Intn(5)
		sets := make([]*closure.Set, k)
		ref := newRef()
		fold := closure.Stop()
		for j := range sets {
			sets[j] = randClosure(r, []string{"a", "b", "w"}, 3, 3)
			ref = refUnion(ref, refFrom(sets[j]))
			fold = closure.Union(fold, sets[j])
		}
		got := closure.UnionAll(sets...)
		if !got.Same(fold) {
			t.Fatalf("iter %d: UnionAll(%d) and pairwise fold returned different canonical nodes", i, k)
		}
		sameSet(t, "unionAll", got, ref)

		shuffled := make([]*closure.Set, 0, 2*k)
		shuffled = append(shuffled, sets...)
		shuffled = append(shuffled, sets...) // duplicates must be absorbed
		r.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
		if again := closure.UnionAll(shuffled...); !again.Same(got) {
			t.Fatalf("iter %d: UnionAll not order/duplication-insensitive", i)
		}
	}
}

// TestHotPathAllocationGuards pins the tentpole's claim: on warm symbols
// (channel, event, and set identities already interned) the hot operators
// allocate no per-event strings. The bounds are exact allocation budgets —
// Prefix may allocate its one-edge list and the *Set wrapper, memoized
// Union/Hide only the wrapper, membership tests nothing — so any
// reintroduced per-event key materialisation fails the guard.
func TestHotPathAllocationGuards(t *testing.T) {
	a := ev("allocA", 1)
	p := closure.Prefix(ev("allocB", 2), closure.Stop())
	q := closure.Prefix(ev("allocC", 3), closure.Stop())
	hide := trace.NewSet("allocB")
	tr := trace.T{ev("allocB", 2)}
	cid := trace.Chan("allocB").ID()

	// Warm every path (and the symbol tables) before measuring.
	_ = closure.Prefix(a, p)
	_ = closure.Union(p, q)
	_ = closure.Hide(p, hide)
	_ = p.Contains(tr)
	_ = hide.ID()

	guards := []struct {
		name  string
		limit float64
		fn    func()
	}{
		{"Event.ID warm", 0, func() { _ = a.ID() }},
		{"Set.ContainsID", 0, func() { _ = hide.ContainsID(cid) }},
		{"Set.ID warm", 0, func() { _ = hide.ID() }},
		{"Contains warm", 0, func() { _ = p.Contains(tr) }},
		{"Prefix warm", 2, func() { _ = closure.Prefix(a, p) }},
		{"Union memoized", 1, func() { _ = closure.Union(p, q) }},
		{"Hide memoized", 1, func() { _ = closure.Hide(p, hide) }},
	}
	for _, g := range guards {
		if got := testing.AllocsPerRun(200, g.fn); got > g.limit {
			t.Errorf("%s: %.2f allocs/op, want ≤ %.0f", g.name, got, g.limit)
		}
	}
}
