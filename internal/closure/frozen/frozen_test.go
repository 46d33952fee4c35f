package frozen

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"cspsat/internal/closure"
	"cspsat/internal/trace"
	"cspsat/internal/value"
)

func testEvents() []trace.Event {
	return []trace.Event{
		{Chan: "a", Msg: value.Int(0)},
		{Chan: "a", Msg: value.Int(1)},
		{Chan: "b", Msg: value.Sym("ACK")},
		{Chan: "c[2]", Msg: value.Bool(true)},
		{Chan: "d", Msg: value.SeqOf([]value.V{value.Int(3), value.Sym("x")})},
	}
}

func randomSet(rng *rand.Rand, events []trace.Event, traces, maxLen int) *closure.Set {
	s := closure.Stop()
	for i := 0; i < traces; i++ {
		t := closure.Stop()
		for j := rng.Intn(maxLen + 1); j > 0; j-- {
			t = closure.Prefix(events[rng.Intn(len(events))], t)
		}
		s = closure.Union(s, t)
	}
	return s
}

// mustFreeze freezes s and returns its view.
func mustFreeze(t *testing.T, s *closure.Set) *NodeView {
	t.Helper()
	a, idx, err := Freeze(s)
	if err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	v, err := a.View(idx)
	if err != nil {
		t.Fatalf("View: %v", err)
	}
	return v
}

// assertViewMatches demands the frozen view and the live set answer every
// View method identically — the package's core contract.
func assertViewMatches(t *testing.T, v *NodeView, s *closure.Set) {
	t.Helper()
	if v.Size() != s.Size() {
		t.Fatalf("Size: frozen %d, live %d", v.Size(), s.Size())
	}
	if v.MaxLen() != s.MaxLen() {
		t.Fatalf("MaxLen: frozen %d, live %d", v.MaxLen(), s.MaxLen())
	}
	if got, want := v.Traces(), s.Traces(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Traces: frozen %v, live %v", got, want)
	}
	if got, want := v.TracesMax(), s.TracesMax(); !reflect.DeepEqual(got, want) {
		t.Fatalf("TracesMax: frozen %v, live %v", got, want)
	}
	for _, limit := range []int{0, 1, 2, 3, s.Size() - 1, s.Size(), s.Size() + 5} {
		g, gt := v.TracesN(limit)
		w, wt := s.TracesN(limit)
		if gt != wt || !reflect.DeepEqual(g, w) {
			t.Fatalf("TracesN(%d): frozen (%v,%v), live (%v,%v)", limit, g, gt, w, wt)
		}
		g, gt = v.TracesMaxN(limit)
		w, wt = s.TracesMaxN(limit)
		if gt != wt || !reflect.DeepEqual(g, w) {
			t.Fatalf("TracesMaxN(%d): frozen (%v,%v), live (%v,%v)", limit, g, gt, w, wt)
		}
	}
	for _, tr := range s.Traces() {
		if !v.Contains(tr) {
			t.Fatalf("Contains(%v): frozen says no, live set holds it", tr)
		}
	}
}

// TestFrozenViewDifferential pins frozen traversal byte-identical to the
// live interned set, and thaw pointer-canonical (Same), over random sets.
func TestFrozenViewDifferential(t *testing.T) {
	events := testEvents()
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 150; i++ {
		s := randomSet(rng, events, rng.Intn(10), 6)
		v := mustFreeze(t, s)
		assertViewMatches(t, v, s)
		if !v.Thaw().Same(s) {
			t.Fatalf("Thaw is not pointer-canonical with the original set")
		}
		// Non-member probes: mutate members.
		for _, tr := range s.Traces() {
			probe := append(append(trace.T{}, tr...), trace.Event{Chan: "zz", Msg: value.Int(99)})
			if v.Contains(probe) != s.Contains(probe) {
				t.Fatalf("Contains(%v) disagrees", probe)
			}
		}
		if v.Contains(trace.T{{Chan: "never-interned-chan", Msg: value.Int(7)}}) {
			t.Fatalf("Contains accepted an event that labels no edge")
		}
	}
}

// TestBuilderSharesSubtrees: two roots sharing structure share frozen
// nodes, and both views stay faithful.
func TestBuilderSharesSubtrees(t *testing.T) {
	ev := testEvents()
	base := closure.Union(closure.Prefix(ev[0], closure.Stop()), closure.Prefix(ev[1], closure.Stop()))
	p := closure.Prefix(ev[2], base)
	q := closure.Prefix(ev[3], base)

	b := NewBuilder()
	pi := b.Add(p)
	qi := b.Add(q)
	if pi == qi {
		t.Fatalf("distinct roots froze to the same node")
	}
	a, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	// p's nodes: stop, two prefix children... base, p. q adds only itself.
	if a.NumNodes() >= p.Size()+q.Size() {
		t.Fatalf("no sharing: %d nodes for overlapping roots", a.NumNodes())
	}
	pv, _ := a.View(pi)
	qv, _ := a.View(qi)
	assertViewMatches(t, pv, p)
	assertViewMatches(t, qv, q)
	if !pv.Thaw().Same(p) || !qv.Thaw().Same(q) {
		t.Fatalf("shared-arena thaw not canonical")
	}
}

// TestOpenPureOnCorrupt: every truncation and every single bit flip of a
// valid image must either decode to an equally-valid arena (flips in dead
// bytes don't exist here — sizes, offsets, and events are all load-bearing)
// or error out, never panic, and never intern a symbol.
func TestOpenPureOnCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := randomSet(rng, testEvents(), 8, 5)
	a, _, err := Freeze(s)
	if err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	img := a.Bytes()

	check := func(data []byte) {
		t.Helper()
		evBefore, chBefore := trace.NumEvents(), trace.NumChans()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Open panicked: %v", r)
				}
			}()
			Open(data)
		}()
		if trace.NumEvents() != evBefore || trace.NumChans() != chBefore {
			t.Fatalf("Open interned symbols (events %d→%d, chans %d→%d)",
				evBefore, trace.NumEvents(), chBefore, trace.NumChans())
		}
	}

	for cut := 0; cut <= len(img); cut += 3 {
		check(img[:cut])
	}
	for i := 0; i < len(img); i++ {
		for bit := 0; bit < 8; bit += 3 {
			mut := append([]byte{}, img...)
			mut[i] ^= 1 << bit
			check(mut)
		}
	}
}

// TestOpenRejects exercises specific structural violations.
func TestOpenRejects(t *testing.T) {
	if _, err := Open(nil); err == nil {
		t.Fatalf("Open(nil) succeeded")
	}
	if _, err := Open([]byte("CSPFRZN1")); err == nil {
		t.Fatalf("header-only image succeeded")
	}
	if _, err := Open([]byte("NOTMAGIC\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00")); err == nil {
		t.Fatalf("bad magic succeeded")
	}
}

// TestFrozenReadsAllocationFree guards the hot path the issue targets:
// after the one-time bind, Size/MaxLen/Contains off a frozen node are
// 0 allocs/op. Scalar-message events only: sequence messages pay a string
// key on LookupID, on the live set exactly as here (the PR4 warm-path
// contract this extends).
func TestFrozenReadsAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := randomSet(rng, testEvents()[:4], 12, 6)
	v := mustFreeze(t, s)
	member := s.TracesMax()[0]
	v.Contains(member) // force bind outside the measured window

	for _, g := range []struct {
		name string
		fn   func()
	}{
		{"Size", func() { v.Size() }},
		{"MaxLen", func() { v.MaxLen() }},
		{"Contains", func() { v.Contains(member) }},
	} {
		if got := testing.AllocsPerRun(200, g.fn); got > 0 {
			t.Errorf("%s allocates %v/op on the frozen path", g.name, got)
		}
	}
}

// TestLivePermutationOrder forces the case where the arena's local event
// order disagrees with live event-id order: Contains, which binds, and the
// listings, which do not, must still match a rebuilt set exactly.
func TestLivePermutationOrder(t *testing.T) {
	ev := testEvents()
	s := closure.Union(
		closure.Prefix(ev[3], closure.Prefix(ev[0], closure.Stop())),
		closure.Union(closure.Prefix(ev[1], closure.Stop()), closure.Prefix(ev[4], closure.Stop())),
	)
	// Build an arena whose event table is ordered by first DFS encounter
	// from a different root shape, then reverse the live-id relationship by
	// hand: re-encode the image with the event table permuted.
	a, idx, err := Freeze(s)
	if err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	v, _ := a.View(idx)
	assertViewMatches(t, v, s)

	// Directly exercise a permuted arena: rebuild via builder adding events
	// in reverse first-seen order by freezing a mirror structure first.
	b := NewBuilder()
	mirror := closure.Union(
		closure.Prefix(ev[4], closure.Stop()),
		closure.Union(closure.Prefix(ev[1], closure.Stop()), closure.Prefix(ev[3], closure.Stop())),
	)
	b.Add(mirror)
	root := b.Add(s)
	a2, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	v2, _ := a2.View(root)
	assertViewMatches(t, v2, s)
	if !v2.Thaw().Same(s) {
		t.Fatalf("permuted-order thaw not canonical")
	}
}

// TestViewInterface: *NodeView satisfies closure.View and the empty-trie
// node behaves like Stop.
func TestViewInterface(t *testing.T) {
	a, _, err := Freeze(closure.Stop())
	if err != nil {
		t.Fatalf("Freeze(Stop): %v", err)
	}
	v, err := a.View(0)
	if err != nil {
		t.Fatalf("View(0): %v", err)
	}
	var view closure.View = v
	if view.Size() != 1 || view.MaxLen() != 0 {
		t.Fatalf("empty trie: Size %d MaxLen %d", view.Size(), view.MaxLen())
	}
	if !view.Contains(nil) {
		t.Fatalf("empty trie does not contain the empty trace")
	}
	if !view.Thaw().Same(closure.Stop()) {
		t.Fatalf("empty trie thaw is not Stop")
	}
	if _, err := a.View(99); err == nil {
		t.Fatalf("out-of-range View succeeded")
	}
}

// TestTruncatedListingsKeepLeastTraces interns fresh events in reverse
// trace.Event.Compare order, so live event ids order every node's edges
// backwards: TracesN(k) and TracesMaxN(k) must still return the k least
// members in trace.T.Compare order, on the live set and on its frozen
// view alike.
func TestTruncatedListingsKeepLeastTraces(t *testing.T) {
	var evs []trace.Event
	for _, ch := range []trace.Chan{"zzleast", "mmleast", "aaleast"} {
		for _, m := range []int64{2, 1, 0} {
			ev := trace.Event{Chan: ch, Msg: value.Int(m)}
			ev.ID() // hand out ids in this, reverse, order
			evs = append(evs, ev)
		}
	}
	b := closure.NewBuilder()
	for i, e := range evs {
		b.Add(trace.T{e, evs[(i+4)%len(evs)], evs[(i+7)%len(evs)]})
		b.Add(trace.T{e, evs[len(evs)-1-i]})
	}
	s := b.Set()

	var all []trace.T
	s.WalkDFS(func(path trace.T) bool {
		all = append(all, append(trace.T{}, path...))
		return true
	}, nil, nil)
	slices.SortFunc(all, trace.T.Compare)
	var maximal []trace.T
	for i, tr := range all {
		if i+1 == len(all) || !tr.IsPrefixOf(all[i+1]) {
			maximal = append(maximal, tr)
		}
	}

	for _, view := range []closure.View{s, mustFreeze(t, s)} {
		for k := 1; k <= len(all)+1; k++ {
			got, truncated := view.TracesN(k)
			want := all[:min(k, len(all))]
			if !reflect.DeepEqual(got, want) || truncated != (k < len(all)) {
				t.Fatalf("%T TracesN(%d) = %v, %v; want %v, %v", view, k, got, truncated, want, k < len(all))
			}
		}
		for k := 1; k <= len(maximal)+1; k++ {
			got, truncated := view.TracesMaxN(k)
			want := maximal[:min(k, len(maximal))]
			if !reflect.DeepEqual(got, want) || truncated != (k < len(maximal)) {
				t.Fatalf("%T TracesMaxN(%d) = %v, %v; want %v, %v", view, k, got, truncated, want, k < len(maximal))
			}
		}
	}
}
