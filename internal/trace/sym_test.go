package trace

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"cspsat/internal/value"
)

// TestChanIDStableAndDistinct pins the interning contract: the same name
// always yields the same id, distinct names distinct ids, and ChanByID
// round-trips.
func TestChanIDStableAndDistinct(t *testing.T) {
	a, b := Chan("symtest_a"), Chan("symtest_b")
	ida, idb := a.ID(), b.ID()
	if ida == idb {
		t.Fatalf("distinct channels interned to the same id %d", ida)
	}
	if got := a.ID(); got != ida {
		t.Fatalf("Chan.ID unstable: %d then %d", ida, got)
	}
	if got := ChanByID(ida); got != a {
		t.Fatalf("ChanByID(%d) = %q, want %q", ida, got, a)
	}
	if id, ok := LookupChan(a); !ok || id != ida {
		t.Fatalf("LookupChan(%q) = %d,%v want %d,true", a, id, ok, ida)
	}
	if _, ok := LookupChan(Chan("symtest_never_interned_via_id")); ok {
		t.Fatal("LookupChan interned a channel it should only look up")
	}
}

// TestEventIDRoundTrip checks that event interning round-trips through
// EventByID and that EventChanID agrees with interning the channel alone.
func TestEventIDRoundTrip(t *testing.T) {
	evs := []Event{
		{Chan: "symtest_e", Msg: value.Int(3)},
		{Chan: "symtest_e", Msg: value.Int(4)},
		{Chan: "symtest_e", Msg: value.Sym("three")},
		{Chan: "symtest_e", Msg: value.Bool(true)},
		{Chan: "symtest_e", Msg: value.Seq(value.Int(1), value.Int(2))},
		{Chan: "symtest_f", Msg: value.Int(3)},
	}
	ids := map[EventID]bool{}
	for _, e := range evs {
		id := e.ID()
		if ids[id] {
			t.Fatalf("event %s shares an id with a distinct event", e)
		}
		ids[id] = true
		back := EventByID(id)
		if back.Chan != e.Chan || !back.Msg.Equal(e.Msg) {
			t.Fatalf("EventByID(%d) = %s, want %s", id, back, e)
		}
		if EventChanID(id) != e.Chan.ID() {
			t.Fatalf("EventChanID(%d) disagrees with %q.ID()", id, e.Chan)
		}
		if got, ok := e.LookupID(); !ok || got != id {
			t.Fatalf("LookupID(%s) = %d,%v want %d,true", e, got, ok, id)
		}
	}
	if _, ok := (Event{Chan: "symtest_never", Msg: value.Int(9)}).LookupID(); ok {
		t.Fatal("LookupID interned an event it should only look up")
	}
}

// TestConcurrentInterning hammers the sharded tables from many goroutines
// interning overlapping name sets; every goroutine must observe the same
// name→id assignment. Run under -race in CI.
func TestConcurrentInterning(t *testing.T) {
	const goroutines, names = 8, 100
	results := make([][]ChanID, goroutines)
	evResults := make([][]EventID, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids := make([]ChanID, names)
			eids := make([]EventID, names)
			for i := range ids {
				name := fmt.Sprintf("symtest_conc_%d", i)
				ids[i] = Chan(name).ID()
				eids[i] = Event{Chan: Chan(name), Msg: value.Int(int64(i % 4))}.ID()
			}
			results[g] = ids
			evResults[g] = eids
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range results[0] {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d interned chan %d as %d, goroutine 0 as %d", g, i, results[g][i], results[0][i])
			}
			if evResults[g][i] != evResults[0][i] {
				t.Fatalf("goroutine %d interned event %d as %d, goroutine 0 as %d", g, i, evResults[g][i], evResults[0][i])
			}
		}
	}
}

// TestSetIDCanonical checks that set interning is by content, not by
// construction order or aliasing.
func TestSetIDCanonical(t *testing.T) {
	a := NewSet("symtest_s1", "symtest_s2", "symtest_s3")
	var b Set
	for _, n := range []string{"symtest_s3", "symtest_s1", "symtest_s2", "symtest_s1"} {
		b.Add(Chan(n))
	}
	if a.ID() != b.ID() {
		t.Fatalf("equal sets interned to different ids %d and %d", a.ID(), b.ID())
	}
	c := NewSet("symtest_s1", "symtest_s2")
	if a.ID() == c.ID() {
		t.Fatal("distinct sets share a ChanSetID")
	}
	if NewSet().ID() == c.ID() {
		t.Fatal("empty set shares an id with a non-empty set")
	}
}

// TestBitsetOpsAgainstMapModel drives the bitset Set operations against a
// map[string]bool model over randomized inputs, including channels whose
// ids straddle word boundaries (the generator interns well over 64 names).
func TestBitsetOpsAgainstMapModel(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	universe := make([]Chan, 150)
	for i := range universe {
		universe[i] = Chan(fmt.Sprintf("symtest_u%03d", i))
		universe[i].ID() // force ids across several bitset words
	}
	randPair := func() (Set, map[string]bool) {
		var s Set
		m := map[string]bool{}
		for i, n := 0, r.Intn(20); i < n; i++ {
			c := universe[r.Intn(len(universe))]
			s.Add(c)
			m[string(c)] = true
		}
		return s, m
	}
	check := func(label string, got Set, want map[string]bool) {
		t.Helper()
		if got.Len() != len(want) {
			t.Fatalf("%s: Len = %d, model has %d", label, got.Len(), len(want))
		}
		for _, c := range universe {
			if got.Contains(c) != want[string(c)] {
				t.Fatalf("%s: Contains(%s) = %v, model says %v", label, c, got.Contains(c), want[string(c)])
			}
		}
		names := got.Slice()
		sorted := sort.SliceIsSorted(names, func(i, j int) bool { return names[i] < names[j] })
		if !sorted {
			t.Fatalf("%s: Slice not sorted: %q", label, names)
		}
	}
	for i := 0; i < 300; i++ {
		a, ma := randPair()
		b, mb := randPair()
		mu, mi, md := map[string]bool{}, map[string]bool{}, map[string]bool{}
		for k := range ma {
			mu[k] = true
			if mb[k] {
				mi[k] = true
			} else {
				md[k] = true
			}
		}
		for k := range mb {
			mu[k] = true
		}
		check("union", a.Union(b), mu)
		check("intersect", a.Intersect(b), mi)
		check("minus", a.Minus(b), md)
		if got, want := a.SubsetOf(b), len(md) == 0; got != want {
			t.Fatalf("SubsetOf = %v, model says %v (a=%s b=%s)", got, want, a, b)
		}
		if got, want := a.Equal(b), len(ma) == len(mb) && len(md) == 0; got != want {
			t.Fatalf("Equal = %v, model says %v", got, want)
		}
		ids := a.IDs()
		if len(ids) != len(ma) {
			t.Fatalf("IDs returned %d ids, model has %d", len(ids), len(ma))
		}
		for _, id := range ids {
			if !ma[string(ChanByID(id))] {
				t.Fatalf("IDs yielded %s which the model lacks", ChanByID(id))
			}
		}
	}
}

// TestInternEventIDsCanonical checks alphabet interning ignores order and
// duplicates, matching what Ignore's memo key relies on.
func TestInternEventIDsCanonical(t *testing.T) {
	a := Event{Chan: "symtest_ia", Msg: value.Int(0)}.ID()
	b := Event{Chan: "symtest_ib", Msg: value.Int(0)}.ID()
	id1 := InternEventIDs([]EventID{a, b})
	id2 := InternEventIDs([]EventID{b, a, a})
	if id1 != id2 {
		t.Fatalf("same alphabet interned to %d and %d", id1, id2)
	}
	if id1 == InternEventIDs([]EventID{a}) {
		t.Fatal("distinct alphabets share an EventSetID")
	}
}

// TestSymbolStatsMonotonic checks the counters only grow: interning is
// append-only and survives closure-cache resets by design (DESIGN.md §3.4).
func TestSymbolStatsMonotonic(t *testing.T) {
	before := SymbolTableStats()
	Chan("symtest_mono_new").ID()
	after := SymbolTableStats()
	if after.Chans <= before.Chans {
		t.Fatalf("chan count did not grow: %d -> %d", before.Chans, after.Chans)
	}
	if after.Events < before.Events || after.ChanSets < before.ChanSets || after.EventSets < before.EventSets {
		t.Fatal("symbol counters decreased; tables must be append-only")
	}
}

// TestSubCanonical pins Sub's cache: a warm call allocates nothing, every
// goroutine gets the same channel, and each cached entry is a channel of
// the symbol table, so the cache grows no faster than the table.
func TestSubCanonical(t *testing.T) {
	if got := Sub("subtest_col", 2); got != "subtest_col[2]" {
		t.Fatalf("Sub = %q", got)
	}
	if n := testing.AllocsPerRun(100, func() { Sub("subtest_col", 2) }); n != 0 {
		t.Errorf("warm Sub allocates %v times, want 0", n)
	}
	const goroutines, subs = 8, 50
	results := make([][]Chan, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := int64(0); i < subs; i++ {
				results[g] = append(results[g], Sub("subtest_conc", i))
			}
		}(g)
	}
	wg.Wait()
	for g := range results {
		for i, c := range results[g] {
			if want := fmt.Sprintf("subtest_conc[%d]", i); c != Chan(want) {
				t.Fatalf("goroutine %d: Sub(subtest_conc, %d) = %q", g, i, c)
			}
		}
	}
	entries := 0
	subChans.Range(func(_, v any) bool {
		entries++
		if _, ok := LookupChan(v.(Chan)); !ok {
			t.Errorf("cached %q is not in the symbol table", v)
		}
		return true
	})
	if entries > NumChans() {
		t.Errorf("%d cached subscripted channels, %d channels in the symbol table", entries, NumChans())
	}
}
