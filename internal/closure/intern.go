package closure

// Hash-consing for trie nodes. Every node reachable from a *Set is
// canonical: it was produced by intern, which returns the one retained node
// for each distinct (sorted) edge list. Because children are interned
// before their parents, structural equality of subtrees coincides with
// pointer equality as long as the canonical node is still retained, which
// makes Equal/SubsetOf near-O(1) pointer walks on the common path and lets
// Size/MaxLen be precomputed per node at construction time.
//
// Retention is bounded: the intern table and every operator memo table use
// two-generation eviction (see gen2 below), so a long-running host (the
// cspi REPL, cspexperiments, a server loop) cannot accumulate canonical
// nodes without bound. Eviction never invalidates a node — nodes are
// immutable and remain correct forever — it only means a later structurally
// equal construction may mint a fresh pointer, so Equal falls back to a
// structural walk when the pointer test fails.
//
// The intern table and each memo table sit under one mutex of their own.
// Concurrent requests share them, and so do the workers of a CheckAll
// sweep or proof batch. One lock per table keeps pointer-canonicality
// global: two goroutines interning the same edge list take the same mutex
// and one of them wins. Locks are taken only inside the short leaf helpers
// in this file, never while calling back into operator code and never
// nested, so lock ordering is trivially acyclic and the package is safe
// for concurrent use. A node's children are interned before it under the
// same mutex, so any goroutine that obtains a node through the table also
// sees its children fully written.

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"cspsat/internal/trace"
)

// node is an immutable hash-consed trie node. edges is sorted by key and
// never mutated after intern publishes the node.
type node struct {
	edges  []edge
	id     uint64 // unique creation index, for canonical symmetric memo keys
	hash   uint64
	size   int // number of member traces in the tree-unfolding (≥ 1 for <>)
	height int // length of the longest member trace

	// wrapped caches the node's *Set facade. Sets are immutable one-field
	// views, so every operator that resolves to the same canonical node may
	// hand out the same wrapper instead of allocating a fresh one.
	wrapped atomic.Pointer[Set]
}

// wrap returns the cached *Set for the node, creating it at most once.
func (n *node) wrap() *Set {
	if s := n.wrapped.Load(); s != nil {
		return s
	}
	s := &Set{root: n}
	if n.wrapped.CompareAndSwap(nil, s) {
		return s
	}
	return n.wrapped.Load()
}

// edge carries the interned event id (the sort/compare key), the event
// itself for rendering walks, and the canonical child.
type edge struct {
	id    trace.EventID
	ev    trace.Event
	child *node
}

// get returns the outgoing edge for an event id, by binary search over the
// sorted edge list.
func (n *node) get(id trace.EventID) (edge, bool) {
	lo, hi := 0, len(n.edges)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.edges[mid].id < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(n.edges) && n.edges[lo].id == id {
		return n.edges[lo], true
	}
	return edge{}, false
}

// emptyNode is the canonical {<>}; it is pinned and never evicted.
var emptyNode = &node{hash: fnvOffset, size: 1, height: 0}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func hashUint(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	return h
}

func hashEdges(edges []edge) uint64 {
	h := fnvOffset
	for _, e := range edges {
		h = hashUint(h, uint64(e.id))
		h = hashUint(h, e.child.hash)
	}
	return h
}

// gen2 is a two-generation bounded table. Inserts go to the current
// generation; when it fills, the previous generation is dropped and the
// current one takes its place. A lookup that hits the previous generation
// promotes the entry, so the working set survives rotation and only cold
// entries age out. The scheme bounds retained entries to 2×limit with O(1)
// amortized maintenance (no LRU list, no per-entry clocks). A gen2 is not
// itself synchronized; its owning table's mutex guards it.
type gen2[K comparable, V any] struct {
	cur, old map[K]V
	limit    int
	hits     uint64
	misses   uint64
	evicted  uint64
	rotated  uint64
}

func newGen2[K comparable, V any](limit int) *gen2[K, V] {
	return &gen2[K, V]{cur: make(map[K]V), old: make(map[K]V), limit: limit}
}

func (g *gen2[K, V]) get(k K) (V, bool) {
	if v, ok := g.cur[k]; ok {
		g.hits++
		return v, true
	}
	if v, ok := g.old[k]; ok {
		g.hits++
		g.promote(k, v)
		return v, true
	}
	g.misses++
	var zero V
	return zero, false
}

func (g *gen2[K, V]) put(k K, v V) {
	g.promote(k, v)
}

func (g *gen2[K, V]) promote(k K, v V) {
	g.cur[k] = v
	if len(g.cur) >= g.limit {
		g.rotated++
		g.evicted += uint64(len(g.old))
		g.old = g.cur
		g.cur = make(map[K]V)
	}
}

func (g *gen2[K, V]) reset() {
	// Keep already-empty generations: a reset sweep touches every memo
	// table, and most of them are empty in any given workload — re-making
	// two maps per table would dominate the allocation profile of
	// ResetCaches-per-iteration callers.
	if len(g.cur) > 0 {
		g.cur = make(map[K]V)
	}
	if len(g.old) > 0 {
		g.old = make(map[K]V)
	}
	g.hits, g.misses, g.evicted, g.rotated = 0, 0, 0, 0
}

// Default entry budgets of the intern table and of each memo table. A node
// is ~5 words plus its edge list, so the intern default bounds
// canonical-node retention to a few hundred MB in the worst case and far
// less in practice; memo entries are a key plus a pointer. Both are
// adjustable via SetCacheBudget.
const (
	defaultInternBudget = 1 << 18
	defaultMemoBudget   = 1 << 18
)

// internTab is the intern table: a bucket map from node hash to the
// canonical nodes with that hash, its hit/miss counters, and the last
// creation index handed out (0 is emptyNode's), all under one mutex.
var internTab = struct {
	mu           sync.Mutex
	buckets      *gen2[uint64, []*node]
	hits, misses uint64
	lastID       uint64
}{buckets: newGen2[uint64, []*node](defaultInternBudget)}

// nodePair keys the symmetric binary memos (union, intersect, subset);
// callers canonicalise the order by node id before lookup.
type nodePair struct{ a, b *node }

// hideKey keys the hide memo: the node plus the interned identity of the
// hidden channel set — a pointer and a uint32, no string materialisation.
type hideKey struct {
	n *node
	c trace.ChanSetID
}

type nodeIntKey struct {
	n *node
	i int
}

// ignoreKey keys the ignore memo: node, interned chatter-alphabet identity,
// and remaining budget.
type ignoreKey struct {
	n     *node
	alpha trace.EventSetID
	i     int32
}

// parKey keys the parallel memo on the node pair, the interned identities
// of the two alphabets, and the remaining budget — or fitsBudget when the
// product's height fits every budget it is asked for, so the entry serves
// them all.
type parKey struct {
	a, b *node
	x, y trace.ChanSetID
	i    int32
}

// memo is one operator's memo table: a gen2 under one mutex. V is *node
// for the operator memos and bool for the subset-verdict memo.
type memo[K comparable, V any] struct {
	name string
	mu   sync.Mutex
	tab  *gen2[K, V]
}

// memoTable is what Stats, ResetCaches and SetCacheBudget need of a memo,
// whatever its key and value types.
type memoTable interface {
	counters() (name string, hits, misses uint64)
	reset()
	setLimit(entries int)
}

// memos lists every memo table newMemo made.
var memos []memoTable

func newMemo[K comparable, V any](name string) *memo[K, V] {
	m := &memo[K, V]{name: name, tab: newGen2[K, V](defaultMemoBudget)}
	memos = append(memos, m)
	return m
}

func (m *memo[K, V]) get(k K) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tab.get(k)
}

func (m *memo[K, V]) put(k K, v V) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tab.put(k, v)
}

func (m *memo[K, V]) counters() (name string, hits, misses uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.name, m.tab.hits, m.tab.misses
}

func (m *memo[K, V]) reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tab.reset()
}

func (m *memo[K, V]) setLimit(entries int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tab.limit = entries
}

var (
	unionMemo = newMemo[nodePair, *node]("union")
	// unionAllMemo is keyed by the packed creation ids of the (sorted,
	// deduplicated) operand nodes. Node ids are never reused, so the key
	// stays unambiguous across cache evictions.
	unionAllMemo  = newMemo[string, *node]("unionAll")
	intersectMemo = newMemo[nodePair, *node]("intersect")
	hideMemo      = newMemo[hideKey, *node]("hide")
	ignoreMemo    = newMemo[ignoreKey, *node]("ignore")
	parallelMemo  = newMemo[parKey, *node]("parallel")
	truncMemo     = newMemo[nodeIntKey, *node]("truncate")
	subsetMemo    = newMemo[nodePair, bool]("subset")
)

// satAdd adds two non-negative trace counts, saturating at MaxInt.
func satAdd(a, b int) int {
	const maxInt = int(^uint(0) >> 1)
	if a > maxInt-b {
		return maxInt
	}
	return a + b
}

// intern returns the canonical node for the given edge list, which must be
// sorted by key, free of duplicate keys, and built over canonical children.
// The caller must not retain or mutate edges after the call if the interned
// node may share it.
func intern(edges []edge) *node { return internEdges(edges, edges) }

// internCopy is intern for callers that reuse their edge buffer: edges may
// be a scratch (or stack) slice the caller recycles after the call. On a
// hit nothing is retained; on a miss an exact-size copy is interned, never
// edges itself — which also sheds the append slack a growing scratch
// carries.
func internCopy(edges []edge) *node { return internEdges(edges, nil) }

// internEdges is the locked bucket probe behind intern and internCopy. It
// only reads probe; a node minted on a miss owns own, or an exact-size
// copy of probe when own is nil.
func internEdges(probe, own []edge) *node {
	if len(probe) == 0 {
		return emptyNode
	}
	h := hashEdges(probe)
	internTab.mu.Lock()
	defer internTab.mu.Unlock()
	bucket, _ := internTab.buckets.get(h)
	for _, cand := range bucket {
		if edgesIdentical(cand.edges, probe) {
			internTab.hits++
			return cand
		}
	}
	internTab.misses++
	if own == nil {
		own = make([]edge, len(probe))
		copy(own, probe)
	}
	size, height := 1, 0
	for _, e := range own {
		// Trie sharing makes member counts exponential in depth, so the sum
		// saturates instead of wrapping: a deep parallel composition easily
		// exceeds MaxInt members while the trie itself stays tiny.
		size = satAdd(size, e.child.size)
		if ch := 1 + e.child.height; ch > height {
			height = ch
		}
	}
	internTab.lastID++
	n := &node{edges: own, id: internTab.lastID, hash: h, size: size, height: height}
	internTab.buckets.put(h, append(bucket, n))
	return n
}

// edgesIdentical reports structural equality of two sorted edge lists over
// canonical children (so child comparison is pointer comparison).
func edgesIdentical(a, b []edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].id != b[i].id || a[i].child != b[i].child {
			return false
		}
	}
	return true
}

func countInternedLocked(tab *gen2[uint64, []*node]) int {
	n := 0
	for _, bucket := range tab.cur {
		n += len(bucket)
	}
	for h, bucket := range tab.old {
		if _, dup := tab.cur[h]; dup {
			continue // promoted buckets appear in both generations
		}
		n += len(bucket)
	}
	return n
}

// sortEdges sorts an edge list in place by event id and merges duplicate
// ids by unioning their children (duplicates arise when two construction
// paths produce the same event, e.g. a hidden subtree collapsing onto a
// sibling). It returns the (possibly shortened) list.
func sortEdges(edges []edge) []edge {
	slices.SortFunc(edges, func(a, b edge) int { return cmp.Compare(a.id, b.id) })
	out := edges[:0]
	for _, e := range edges {
		if len(out) > 0 && out[len(out)-1].id == e.id {
			out[len(out)-1].child = unionNodes(out[len(out)-1].child, e.child)
			continue
		}
		out = append(out, e)
	}
	return out
}

// OpStats reports one memo table's effectiveness.
type OpStats struct {
	Hits   uint64
	Misses uint64
}

// CacheStats is a snapshot of the interning and memoization counters, for
// benchmark harnesses and long-running hosts watching cache health.
type CacheStats struct {
	// InternedNodes is the number of canonical nodes currently retained by
	// the intern table (live Sets may additionally pin evicted nodes).
	InternedNodes int
	// InternHits / InternMisses count intern lookups that returned an
	// existing canonical node vs minted a new one.
	InternHits   uint64
	InternMisses uint64
	// Evicted is the cumulative number of intern-table entries dropped by
	// generation rotation (entries are hash buckets, almost always holding
	// one node each); Rotations counts the rotations themselves.
	Evicted   uint64
	Rotations uint64
	// MemoHits / MemoMisses aggregate the operator memo tables; Ops breaks
	// them down per operator (union, unionAll, intersect, hide, ignore,
	// parallel, truncate, subset).
	MemoHits   uint64
	MemoMisses uint64
	Ops        map[string]OpStats
	// Symbols is the occupancy of the process-global symbol tables
	// (channels, events, set identities). Unlike the intern and memo
	// tables above, the symbol tables are append-only and survive
	// ResetCaches — interned ids must stay stable for the lifetime of any
	// bitset or trie edge that embeds them.
	Symbols trace.SymbolStats
}

// Stats returns a snapshot of the interning and operator-memo counters.
// Tables are locked one at a time, so a snapshot taken while engines run
// is internally consistent per table but only approximately so globally —
// fine for the monitoring it serves.
func Stats() CacheStats {
	s := CacheStats{Ops: map[string]OpStats{}}
	internTab.mu.Lock()
	s.InternedNodes = countInternedLocked(internTab.buckets)
	s.InternHits, s.InternMisses = internTab.hits, internTab.misses
	s.Evicted, s.Rotations = internTab.buckets.evicted, internTab.buckets.rotated
	internTab.mu.Unlock()
	for _, m := range memos {
		name, hits, misses := m.counters()
		s.Ops[name] = OpStats{Hits: hits, Misses: misses}
		s.MemoHits += hits
		s.MemoMisses += misses
	}
	s.Symbols = trace.SymbolTableStats()
	return s
}

// ResetCaches empties the intern and memo tables and zeroes the counters.
// Existing Sets remain valid (their nodes are immutable); they merely stop
// being canonical, so sets built before and after the reset compare by
// structural walk rather than pointer equality. The symbol tables in
// internal/trace are deliberately NOT reset: event and channel ids are
// embedded in live bitsets and trie edges and must stay stable for the
// process lifetime (see DESIGN.md §3.4). Intended for tests and
// cold-cache benchmarking; resetting while engines run concurrently is
// safe (each table is locked for its wipe) but makes the hit counters
// meaningless for that run.
func ResetCaches() {
	internTab.mu.Lock()
	internTab.buckets.reset()
	internTab.hits, internTab.misses = 0, 0
	internTab.mu.Unlock()
	for _, m := range memos {
		m.reset()
	}
}

// SetCacheBudget adjusts the entry budgets of the intern table and of each
// operator memo table; each table retains at most twice its budget. Values
// ≤ 0 restore the defaults. Lower budgets trade memo effectiveness for a
// tighter memory ceiling in long-running hosts; the change applies to
// subsequent inserts and does not drop current entries.
func SetCacheBudget(internNodes, memoEntries int) {
	if internNodes <= 0 {
		internNodes = defaultInternBudget
	}
	if memoEntries <= 0 {
		memoEntries = defaultMemoBudget
	}
	internTab.mu.Lock()
	internTab.buckets.limit = internNodes
	internTab.mu.Unlock()
	for _, m := range memos {
		m.setLimit(memoEntries)
	}
}
