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
// Both the intern table and the memo tables are lock-striped across
// NumShards shards so concurrent requests and the parallel engines (sem's
// concurrent approximation chains, assert sweeps, proof batching) do not
// serialize on one package mutex. The stripe is a pure function of the
// key's hash — the node hash for interning, a derived key hash for memos —
// so every distinct edge list maps to exactly one shard and
// pointer-canonicality remains global, not merely per-shard: two
// goroutines interning the same edge list land on the same shard mutex and
// one of them wins. Locks are taken only
// inside the short leaf helpers in this file (never while calling back into
// operator code), so lock ordering is trivially acyclic and the package is
// safe for concurrent use.
//
// Cross-shard publication is safe by happens-before transitivity: a parent
// node's edge list is built over already-interned children, and any reader
// that obtains the parent does so under the parent's shard mutex, which the
// interning goroutine released only after the children were fully written.

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

func hashBytes(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

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

// NumShards is the number of lock stripes the intern and memo tables are
// split across. It is a power of two; the stripe for a key is a pure
// function of the key's hash, which is what keeps canonicality global (see
// the package comment). 32 stripes keeps contention negligible up to the
// worker counts the engines use while costing only a few KB of mutexes.
const NumShards = 32

const shardMask = NumShards - 1

// shardIndex folds the high bits of an FNV hash into the stripe index so
// keys that differ only above the mask still spread.
func shardIndex(h uint64) int {
	return int((h ^ (h >> 16) ^ (h >> 32)) & shardMask)
}

// gen2 is a two-generation bounded table. Inserts go to the current
// generation; when it fills, the previous generation is dropped and the
// current one takes its place. A lookup that hits the previous generation
// promotes the entry, so the working set survives rotation and only cold
// entries age out. The scheme bounds retained entries to 2×limit with O(1)
// amortized maintenance (no LRU list, no per-entry clocks). A gen2 is not
// itself synchronized; its owning shard's mutex guards it.
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
	// table across every stripe, and most of them are empty in any given
	// workload — re-making ~2×NumShards maps per table would dominate the
	// allocation profile of ResetCaches-per-iteration callers.
	if len(g.cur) > 0 {
		g.cur = make(map[K]V)
	}
	if len(g.old) > 0 {
		g.old = make(map[K]V)
	}
	g.hits, g.misses, g.evicted, g.rotated = 0, 0, 0, 0
}

// Default total entry budgets (split evenly across the stripes). A node is
// ~5 words plus its edge list, so the intern default bounds canonical-node
// retention to a few hundred MB in the worst case and far less in practice;
// memo entries are a key plus a pointer. Both are adjustable via
// SetCacheBudget.
const (
	defaultInternBudget = 1 << 18
	defaultMemoBudget   = 1 << 18
)

// perShardLimit splits a total entry budget across the stripes, rounding up
// so no stripe gets a zero (degenerate) generation.
func perShardLimit(total int) int {
	per := (total + NumShards - 1) / NumShards
	if per < 1 {
		per = 1
	}
	return per
}

// internShard is one stripe of the intern table: a bucket map from node
// hash to the canonical nodes with that hash, plus this stripe's share of
// the hit/miss counters.
type internShard struct {
	mu     sync.Mutex
	tab    *gen2[uint64, []*node]
	hits   uint64
	misses uint64
}

var (
	internShards [NumShards]internShard
	nextNodeID   atomic.Uint64 // 0 is emptyNode
)

func init() {
	per := perShardLimit(defaultInternBudget)
	for i := range internShards {
		internShards[i].tab = newGen2[uint64, []*node](per)
	}
}

// shardKey is the constraint on memo keys: comparable (map key) and able to
// name its stripe. The stripe hash folds in the node creation ids rather
// than the node hashes so distinct nodes with colliding hashes still spread.
type shardKey interface {
	comparable
	shardHash() uint64
}

// nodePair keys the symmetric binary memos (union, intersect, subset);
// callers canonicalise the order by node id before lookup.
type nodePair struct{ a, b *node }

func (k nodePair) shardHash() uint64 {
	return hashUint(hashUint(fnvOffset, k.a.id), k.b.id)
}

// hideKey keys the hide memo: the node plus the interned identity of the
// hidden channel set — a pointer and a uint32, no string materialisation.
type hideKey struct {
	n *node
	c trace.ChanSetID
}

func (k hideKey) shardHash() uint64 {
	return hashUint(hashUint(fnvOffset, k.n.id), uint64(k.c))
}

type nodeIntKey struct {
	n *node
	i int
}

func (k nodeIntKey) shardHash() uint64 {
	return hashUint(hashUint(fnvOffset, k.n.id), uint64(k.i))
}

// ignoreKey keys the ignore memo: node, interned chatter-alphabet identity,
// and remaining budget.
type ignoreKey struct {
	n     *node
	alpha trace.EventSetID
	i     int32
}

func (k ignoreKey) shardHash() uint64 {
	return hashUint(hashUint(hashUint(fnvOffset, k.n.id), uint64(k.alpha)), uint64(uint32(k.i)))
}

// parKey keys the parallel memo on the node pair and the interned
// identities of the two alphabets.
type parKey struct {
	a, b *node
	x, y trace.ChanSetID
}

func (k parKey) shardHash() uint64 {
	h := hashUint(hashUint(fnvOffset, k.a.id), k.b.id)
	return hashUint(h, uint64(k.x)<<32|uint64(k.y))
}

// parBoundKey keys the budget-bounded parallel memo. The budget only joins
// the key when the bound can actually bind (a.height+b.height > budget);
// shallower products fall through to the unbounded parallelMemo, which
// shares entries across budgets.
type parBoundKey struct {
	a, b *node
	x, y trace.ChanSetID
	i    int32
}

func (k parBoundKey) shardHash() uint64 {
	h := hashUint(hashUint(fnvOffset, k.a.id), k.b.id)
	h = hashUint(h, uint64(k.x)<<32|uint64(k.y))
	return hashUint(h, uint64(uint32(k.i)))
}

// nodeListKey keys the k-way UnionAll memo: the packed creation ids of the
// (sorted, deduplicated) operand nodes. Node ids are never reused, so the
// key stays unambiguous across cache evictions.
type nodeListKey struct {
	ids string
}

func (k nodeListKey) shardHash() uint64 {
	return hashBytes(fnvOffset, k.ids)
}

// stripedMemo is a lock-striped memo table: NumShards independently locked
// gen2 generations, stripe chosen by the key's shardHash. V is *node for
// the operator memos and bool for the subset-verdict memo.
type stripedMemo[K shardKey, V any] struct {
	name   string
	stripe [NumShards]struct {
		mu  sync.Mutex
		tab *gen2[K, V]
	}
}

func newStripedMemo[K shardKey, V any](name string) *stripedMemo[K, V] {
	m := &stripedMemo[K, V]{name: name}
	per := perShardLimit(defaultMemoBudget)
	for i := range m.stripe {
		m.stripe[i].tab = newGen2[K, V](per)
	}
	return m
}

func (m *stripedMemo[K, V]) get(k K) (V, bool) {
	s := &m.stripe[shardIndex(k.shardHash())]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tab.get(k)
}

func (m *stripedMemo[K, V]) put(k K, v V) {
	s := &m.stripe[shardIndex(k.shardHash())]
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tab.put(k, v)
}

// counters sums this memo's hit/miss/eviction counters across stripes.
func (m *stripedMemo[K, V]) counters() (hits, misses, evicted, rotated uint64) {
	for i := range m.stripe {
		s := &m.stripe[i]
		s.mu.Lock()
		hits += s.tab.hits
		misses += s.tab.misses
		evicted += s.tab.evicted
		rotated += s.tab.rotated
		s.mu.Unlock()
	}
	return
}

func (m *stripedMemo[K, V]) reset() {
	for i := range m.stripe {
		s := &m.stripe[i]
		s.mu.Lock()
		s.tab.reset()
		s.mu.Unlock()
	}
}

func (m *stripedMemo[K, V]) setLimit(total int) {
	per := perShardLimit(total)
	for i := range m.stripe {
		s := &m.stripe[i]
		s.mu.Lock()
		s.tab.limit = per
		s.mu.Unlock()
	}
}

var (
	unionMemo     = newStripedMemo[nodePair, *node]("union")
	unionAllMemo  = newStripedMemo[nodeListKey, *node]("unionAll")
	intersectMemo = newStripedMemo[nodePair, *node]("intersect")
	hideMemo      = newStripedMemo[hideKey, *node]("hide")
	ignoreMemo    = newStripedMemo[ignoreKey, *node]("ignore")
	parallelMemo  = newStripedMemo[parKey, *node]("parallel")
	parBoundMemo  = newStripedMemo[parBoundKey, *node]("parallelTo")
	truncMemo     = newStripedMemo[nodeIntKey, *node]("truncate")
	subsetMemo    = newStripedMemo[nodePair, bool]("subset")
)

// intern returns the canonical node for the given edge list, which must be
// sorted by key, free of duplicate keys, and built over canonical children.
// satAdd adds two non-negative trace counts, saturating at MaxInt.
func satAdd(a, b int) int {
	const maxInt = int(^uint(0) >> 1)
	if a > maxInt-b {
		return maxInt
	}
	return a + b
}

// The caller must not retain or mutate edges after the call if the interned
// node may share it. Only the one stripe owning the hash is locked, so
// interns of unrelated nodes proceed in parallel.
func intern(edges []edge) *node {
	if len(edges) == 0 {
		return emptyNode
	}
	h := hashEdges(edges)
	sh := &internShards[shardIndex(h)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	bucket, _ := sh.tab.get(h)
	for _, cand := range bucket {
		if edgesIdentical(cand.edges, edges) {
			sh.hits++
			return cand
		}
	}
	sh.misses++
	size, height := 1, 0
	for _, e := range edges {
		// Trie sharing makes member counts exponential in depth, so the sum
		// saturates instead of wrapping: a deep parallel composition easily
		// exceeds MaxInt members while the trie itself stays tiny.
		size = satAdd(size, e.child.size)
		if ch := 1 + e.child.height; ch > height {
			height = ch
		}
	}
	n := &node{edges: edges, id: nextNodeID.Add(1), hash: h, size: size, height: height}
	sh.tab.put(h, append(bucket, n))
	return n
}

// internCopy is intern for callers that reuse their edge buffer: edges may
// be a scratch slice the caller recycles after the call. On a hit nothing
// is retained; on a miss an exact-size copy is interned, never edges
// itself — which also sheds the append slack a growing scratch carries.
func internCopy(edges []edge) *node {
	if len(edges) == 0 {
		return emptyNode
	}
	h := hashEdges(edges)
	sh := &internShards[shardIndex(h)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	bucket, _ := sh.tab.get(h)
	for _, cand := range bucket {
		if edgesIdentical(cand.edges, edges) {
			sh.hits++
			return cand
		}
	}
	sh.misses++
	cp := make([]edge, len(edges))
	copy(cp, edges)
	size, height := 1, 0
	for _, e := range cp {
		size = satAdd(size, e.child.size)
		if ch := 1 + e.child.height; ch > height {
			height = ch
		}
	}
	n := &node{edges: cp, id: nextNodeID.Add(1), hash: h, size: size, height: height}
	sh.tab.put(h, append(bucket, n))
	return n
}

// internPrefix is intern specialised to the single-edge nodes Prefix
// builds. On a hit — the steady state of every fixpoint iteration — no
// edge slice is materialised at all; the probe works from the scalars.
func internPrefix(id trace.EventID, ev trace.Event, child *node) *node {
	h := hashUint(hashUint(fnvOffset, uint64(id)), child.hash)
	sh := &internShards[shardIndex(h)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	bucket, _ := sh.tab.get(h)
	for _, cand := range bucket {
		if len(cand.edges) == 1 && cand.edges[0].id == id && cand.edges[0].child == child {
			sh.hits++
			return cand
		}
	}
	sh.misses++
	n := &node{
		edges:  []edge{{id: id, ev: ev, child: child}},
		id:     nextNodeID.Add(1),
		hash:   h,
		size:   satAdd(1, child.size),
		height: 1 + child.height,
	}
	sh.tab.put(h, append(bucket, n))
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

// CacheStats is a snapshot of the interning and memoization counters,
// aggregated across the lock stripes, for benchmark harnesses and
// long-running hosts watching cache health.
type CacheStats struct {
	// Shards is the number of lock stripes (NumShards), for display.
	Shards int
	// InternedNodes is the number of canonical nodes currently retained by
	// the intern table (live Sets may additionally pin evicted nodes).
	InternedNodes int
	// InternHits / InternMisses count intern lookups that returned an
	// existing canonical node vs minted a new one.
	InternHits   uint64
	InternMisses uint64
	// Evicted is the cumulative number of intern-table entries dropped by
	// generation rotation (entries are hash buckets, almost always holding
	// one node each); Rotations counts the rotations themselves, summed
	// over stripes.
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
// Stripes are locked one at a time, so a snapshot taken while engines run
// is internally consistent per stripe but only approximately so globally —
// fine for the monitoring it serves.
func Stats() CacheStats {
	s := CacheStats{Shards: NumShards, Ops: map[string]OpStats{}}
	for i := range internShards {
		sh := &internShards[i]
		sh.mu.Lock()
		s.InternedNodes += countInternedLocked(sh.tab)
		s.InternHits += sh.hits
		s.InternMisses += sh.misses
		s.Evicted += sh.tab.evicted
		s.Rotations += sh.tab.rotated
		sh.mu.Unlock()
	}
	record := func(name string, hits, misses uint64) {
		s.Ops[name] = OpStats{Hits: hits, Misses: misses}
		s.MemoHits += hits
		s.MemoMisses += misses
	}
	uh, um, _, _ := unionMemo.counters()
	record(unionMemo.name, uh, um)
	uah, uam, _, _ := unionAllMemo.counters()
	record(unionAllMemo.name, uah, uam)
	ih, im, _, _ := intersectMemo.counters()
	record(intersectMemo.name, ih, im)
	hh, hm, _, _ := hideMemo.counters()
	record(hideMemo.name, hh, hm)
	gh, gm, _, _ := ignoreMemo.counters()
	record(ignoreMemo.name, gh, gm)
	ph, pm, _, _ := parallelMemo.counters()
	record(parallelMemo.name, ph, pm)
	pbh, pbm, _, _ := parBoundMemo.counters()
	record(parBoundMemo.name, pbh, pbm)
	th, tm, _, _ := truncMemo.counters()
	record(truncMemo.name, th, tm)
	sh, sm, _, _ := subsetMemo.counters()
	record(subsetMemo.name, sh, sm)
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
// safe (each stripe is locked for its wipe) but makes the hit counters
// meaningless for that run.
func ResetCaches() {
	for i := range internShards {
		sh := &internShards[i]
		sh.mu.Lock()
		sh.tab.reset()
		sh.hits, sh.misses = 0, 0
		sh.mu.Unlock()
	}
	unionMemo.reset()
	unionAllMemo.reset()
	intersectMemo.reset()
	hideMemo.reset()
	ignoreMemo.reset()
	parallelMemo.reset()
	parBoundMemo.reset()
	truncMemo.reset()
	subsetMemo.reset()
}

// SetCacheBudget adjusts the total entry budgets of the intern table and
// the operator memo tables; each budget is split evenly across the stripes,
// and each stripe retains at most twice its share, so total retention is
// bounded by 2×budget plus rounding slack of at most 2×NumShards entries.
// Values ≤ 0 restore the defaults. Lower budgets trade memo effectiveness
// for a tighter memory ceiling in long-running hosts; the change applies to
// subsequent inserts and does not drop current entries.
func SetCacheBudget(internNodes, memoEntries int) {
	if internNodes <= 0 {
		internNodes = defaultInternBudget
	}
	if memoEntries <= 0 {
		memoEntries = defaultMemoBudget
	}
	per := perShardLimit(internNodes)
	for i := range internShards {
		sh := &internShards[i]
		sh.mu.Lock()
		sh.tab.limit = per
		sh.mu.Unlock()
	}
	unionMemo.setLimit(memoEntries)
	unionAllMemo.setLimit(memoEntries)
	intersectMemo.setLimit(memoEntries)
	hideMemo.setLimit(memoEntries)
	ignoreMemo.setLimit(memoEntries)
	parallelMemo.setLimit(memoEntries)
	parBoundMemo.setLimit(memoEntries)
	truncMemo.setLimit(memoEntries)
	subsetMemo.setLimit(memoEntries)
}
