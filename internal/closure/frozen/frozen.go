// Package frozen implements the zero-copy arena tier of the closure layer:
// a trie graph flattened once — at compile/export time — into a single
// offset-addressed byte image that later processes mmap (or read whole)
// and traverse directly, with no pointers to fix up, no nodes to re-intern,
// and no per-node heap objects. It is the move FDR-style checkers make when
// compiled state spaces outgrow what rebuild-on-boot can amortise: the
// image *is* the data structure.
//
// # Image layout
//
// All integers little-endian; node ids are dense uint32 indices in
// bottom-up order (children strictly precede parents), node 0 is the empty
// trie {<>}:
//
//	magic     8 bytes  "CSPFRZN1"
//	nodes     uint32   N ≥ 1 (node 0 included)
//	edges     uint32   E
//	events    uint32   K
//	reserved  uint32   must be 0
//	edgeStart (N+1) × uint32   node i's edges are edge rows edgeStart[i]..edgeStart[i+1]
//	sizes     N × uint64       per-node trace counts (saturating at MaxInt)
//	heights   N × uint32       per-node longest-trace lengths
//	edges     E × 8 bytes      (event uint32, child uint32), sorted by event per node
//	events    K × variable     uvarint chan length, chan bytes, value binary
//
// Every section offset is a pure function of (N, E) and the event table
// runs to the end of the image, so the layout self-describes without an
// offset directory, and Open can bounds-check the whole graph — monotone
// edgeStart, sorted in-range events, strictly backward child references,
// size/height consistency — before any traversal touches it.
//
// # Purity and binding
//
// Open validates everything and interns nothing: corrupt bytes are
// rejected without a single symbol or trie node entering the process-global
// tables, the same property the store codec's Decode has. The only
// intern-table contact is *binding* — resolving the arena's local event
// indices to the live process's dense trace.EventIDs — which happens
// lazily, once, on the first Contains of an already-validated arena (it
// interns event symbols exactly as loading the module source would, and
// never touches the trie interner).
//
// Per-node edges are stored sorted by local event index, and membership
// probes binary-search that order directly. Listings walk each node's
// edges in trace.Event.Compare order of the decoded events (WalkSorted),
// which needs no binding at all, so Contains is the only traversal that
// binds.
package frozen

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"cspsat/internal/closure"
	"cspsat/internal/trace"
	"cspsat/internal/value"
)

const (
	magic = "CSPFRZN1"

	headerLen  = 8 + 4*4
	edgeRowLen = 8
)

// ErrMalformed reports bytes that are not a well-formed arena image:
// truncation, bad magic, out-of-bounds indices, unsorted edges, or
// inconsistent precomputed sizes. Store-level concerns (checksums,
// versioning) belong to the caller; this is the structural layer.
var ErrMalformed = errors.New("frozen: malformed arena image")

func malformed(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
}

// Arena is a validated frozen trie image plus the lazy live-process
// binding. The image bytes are referenced, never copied — they may live in
// an mmap'd region (see AttachCloser) — and an Arena is safe for
// concurrent use once Open returns.
type Arena struct {
	data []byte

	nNodes int
	nEdges int

	offEdgeStart int
	offSizes     int
	offHeights   int
	offEdges     int

	// events is the decoded local symbol table (index → event by name).
	// Decoding strings is part of validation; interning them is not.
	events []trace.Event

	bindOnce sync.Once
	byID     map[trace.EventID]uint32 // live id → local event index

	thawOnce sync.Once
	thawed   []*closure.Set

	closer   func()
	closerMu sync.Mutex
}

// Open validates data as an arena image and returns an Arena traversing it
// in place. data is retained; callers must not mutate it afterwards. Open
// touches no intern table: malformed bytes are rejected with ErrMalformed
// before anything global could be polluted, and even a successful Open
// leaves binding to the first traversal.
func Open(data []byte) (*Arena, error) {
	if len(data) < headerLen {
		return nil, malformed("%d bytes is shorter than the %d-byte header", len(data), headerLen)
	}
	if string(data[:len(magic)]) != magic {
		return nil, malformed("bad magic")
	}
	n64 := binary.LittleEndian.Uint32(data[8:])
	e64 := binary.LittleEndian.Uint32(data[12:])
	k64 := binary.LittleEndian.Uint32(data[16:])
	if r := binary.LittleEndian.Uint32(data[20:]); r != 0 {
		return nil, malformed("reserved word %d", r)
	}
	if n64 == 0 {
		return nil, malformed("zero nodes (node 0, the empty trie, is mandatory)")
	}
	n, e, k := uint64(n64), uint64(e64), uint64(k64)

	// Section offsets, computed in uint64 so a hostile header cannot
	// overflow into a bogus in-bounds layout.
	offEdgeStart := uint64(headerLen)
	offSizes := offEdgeStart + 4*(n+1)
	offHeights := offSizes + 8*n
	offEdges := offHeights + 4*n
	offEvents := offEdges + edgeRowLen*e
	if offEvents > uint64(len(data)) {
		return nil, malformed("fixed sections need %d bytes, image has %d", offEvents, len(data))
	}
	// Every event entry occupies at least two bytes (channel length plus a
	// value kind byte), so a count exceeding the remaining bytes is corrupt
	// — checked here so allocations below are bounded by the input size.
	if k > (uint64(len(data))-offEvents+1)/2 {
		return nil, malformed("event count %d cannot fit in %d remaining bytes", k, uint64(len(data))-offEvents)
	}

	a := &Arena{
		data:         data,
		nNodes:       int(n64),
		nEdges:       int(e64),
		offEdgeStart: int(offEdgeStart),
		offSizes:     int(offSizes),
		offHeights:   int(offHeights),
		offEdges:     int(offEdges),
	}

	// Edge ranges: monotone, exhaustive, and empty for node 0.
	if a.edgeStart(0) != 0 {
		return nil, malformed("edgeStart[0] = %d", a.edgeStart(0))
	}
	if a.edgeStart(1) != 0 {
		return nil, malformed("node 0 must be the empty trie, has %d edges", a.edgeStart(1))
	}
	for i := 0; i < a.nNodes; i++ {
		if a.edgeStart(i) > a.edgeStart(i+1) {
			return nil, malformed("edgeStart not monotone at node %d", i)
		}
	}
	if a.edgeStart(a.nNodes) != uint32(a.nEdges) {
		return nil, malformed("edgeStart[%d] = %d, edge count %d", a.nNodes, a.edgeStart(a.nNodes), a.nEdges)
	}

	// Edge rows: events sorted strictly per node and in range, children
	// strictly backward (bottom-up acyclicity); precomputed sizes and
	// heights must agree with the graph they summarise, so every later
	// O(1) answer off those tables is as trustworthy as a recomputation.
	if a.sizeAt(0) != 1 {
		return nil, malformed("node 0 size %d, want 1", a.sizeAt(0))
	}
	if a.heightAt(0) != 0 {
		return nil, malformed("node 0 height %d, want 0", a.heightAt(0))
	}
	for i := 1; i < a.nNodes; i++ {
		lo, hi := int(a.edgeStart(i)), int(a.edgeStart(i+1))
		wantSize := uint64(1)
		wantHeight := uint32(0)
		prevEv := int64(-1)
		for j := lo; j < hi; j++ {
			ev, child := a.edgeAt(j)
			if int64(ev) <= prevEv {
				return nil, malformed("node %d edges not strictly sorted by event", i)
			}
			prevEv = int64(ev)
			if ev >= k64 {
				return nil, malformed("node %d: event index %d out of %d", i, ev, k64)
			}
			if child >= uint32(i) {
				return nil, malformed("node %d: forward child reference %d", i, child)
			}
			wantSize = satAddU64(wantSize, a.sizeAt(int(child)))
			if h := a.heightAt(int(child)) + 1; h > wantHeight {
				wantHeight = h
			}
		}
		if a.sizeAt(i) != wantSize {
			return nil, malformed("node %d size %d, children sum to %d", i, a.sizeAt(i), wantSize)
		}
		if a.heightAt(i) != wantHeight {
			return nil, malformed("node %d height %d, children give %d", i, a.heightAt(i), wantHeight)
		}
	}

	// Event table: exactly K entries, consuming exactly the remaining
	// bytes, every entry distinct (the binary value encoding is canonical,
	// so raw encoded bytes are an identity — duplicates would alias one
	// live id and diverge from the thawed rebuild).
	a.events = make([]trace.Event, 0, k)
	seen := make(map[string]struct{}, k)
	pos := int(offEvents)
	for i := uint64(0); i < k; i++ {
		start := pos
		l, un := binary.Uvarint(data[pos:])
		if un <= 0 {
			return nil, malformed("event %d: truncated channel length", i)
		}
		pos += un
		if l > uint64(len(data)-pos) {
			return nil, malformed("event %d: channel length %d exceeds %d remaining bytes", i, l, len(data)-pos)
		}
		ch := string(data[pos : pos+int(l)])
		pos += int(l)
		v, vn, err := value.DecodeBinary(data[pos:])
		if err != nil {
			return nil, malformed("event %d: %v", i, err)
		}
		pos += vn
		if _, dup := seen[string(data[start:pos])]; dup {
			return nil, malformed("event %d: duplicate of an earlier event", i)
		}
		seen[string(data[start:pos])] = struct{}{}
		a.events = append(a.events, trace.Event{Chan: trace.Chan(ch), Msg: v})
	}
	if pos != len(data) {
		return nil, malformed("%d trailing bytes after event table", len(data)-pos)
	}

	arenasOpened.Add(1)
	arenaBytes.Add(int64(len(data)))
	return a, nil
}

// satAddU64 mirrors the interner's saturating trace-count arithmetic
// (closure.satAdd) at the image's width.
func satAddU64(a, b uint64) uint64 {
	const max = uint64(math.MaxInt)
	if a > max-b {
		return max
	}
	return a + b
}

func (a *Arena) edgeStart(i int) uint32 {
	return binary.LittleEndian.Uint32(a.data[a.offEdgeStart+4*i:])
}

func (a *Arena) sizeAt(i int) uint64 {
	return binary.LittleEndian.Uint64(a.data[a.offSizes+8*i:])
}

func (a *Arena) heightAt(i int) uint32 {
	return binary.LittleEndian.Uint32(a.data[a.offHeights+4*i:])
}

func (a *Arena) edgeAt(j int) (event, child uint32) {
	row := a.data[a.offEdges+edgeRowLen*j:]
	return binary.LittleEndian.Uint32(row), binary.LittleEndian.Uint32(row[4:])
}

// Bytes returns the underlying image, for embedding in a store payload.
// Callers must treat it as read-only.
func (a *Arena) Bytes() []byte { return a.data }

// NumNodes returns the node count, node 0 (the empty trie) included.
func (a *Arena) NumNodes() int { return a.nNodes }

// NumEdges returns the total edge count.
func (a *Arena) NumEdges() int { return a.nEdges }

// AttachCloser registers a release hook for the image's backing storage
// (munmap, typically). It runs at most once, when the Arena is garbage
// collected — the store layer arranges that via a finalizer — or when
// Close is called explicitly.
func (a *Arena) AttachCloser(close func()) {
	a.closerMu.Lock()
	a.closer = close
	a.closerMu.Unlock()
}

// Close releases the backing storage if a closer was attached. The Arena
// must not be used afterwards.
func (a *Arena) Close() {
	a.closerMu.Lock()
	c := a.closer
	a.closer = nil
	a.closerMu.Unlock()
	if c != nil {
		c()
	}
}

// bind resolves local event indices to live ids, once. It runs only on
// arenas that passed Open, so the events it interns are exactly the spec's
// own vocabulary — the same symbols loading the source would intern.
func (a *Arena) bind() {
	a.bindOnce.Do(func() {
		binds.Add(1)
		a.byID = make(map[trace.EventID]uint32, len(a.events))
		for i, ev := range a.events {
			a.byID[ev.ID()] = uint32(i)
		}
	})
}

// Thaw rebuilds every node into a canonical interned *closure.Set,
// bottom-up — the write-side escape hatch, and the exact path the v2 codec
// took on every boot. It runs once per Arena; repeated calls return the
// cached slice, and concurrent thaws of the same logical trie converge on
// the same pointers because the interner is canonical.
func (a *Arena) Thaw() []*closure.Set {
	a.thawOnce.Do(func() {
		thaws.Add(1)
		thawedNodes.Add(int64(a.nNodes))
		sets := make([]*closure.Set, a.nNodes)
		sets[0] = closure.Stop()
		edges := make([]closure.Edge, 0, 8)
		for i := 1; i < a.nNodes; i++ {
			lo, hi := int(a.edgeStart(i)), int(a.edgeStart(i+1))
			edges = edges[:0]
			for j := lo; j < hi; j++ {
				ev, child := a.edgeAt(j)
				edges = append(edges, closure.Edge{Ev: a.events[ev], Child: sets[child]})
			}
			sets[i] = closure.FromEdges(edges)
		}
		a.thawed = sets
	})
	return a.thawed
}

// View returns the closure.View over node idx. The returned view is one
// small heap object per call; hosts hold one per root, not per query.
func (a *Arena) View(idx uint32) (*NodeView, error) {
	if int(idx) >= a.nNodes {
		return nil, fmt.Errorf("frozen: node index %d out of %d", idx, a.nNodes)
	}
	return &NodeView{a: a, idx: idx}, nil
}

// NodeView is a closure.View reading one frozen node (and the subgraph
// under it) directly off the arena image. Size, MaxLen, and Contains are
// allocation-free after the arena's one-time binding.
type NodeView struct {
	a   *Arena
	idx uint32
}

var _ closure.View = (*NodeView)(nil)

// Arena returns the arena the view reads from.
func (v *NodeView) Arena() *Arena { return v.a }

// Size returns the node's trace count, clamped at MaxInt exactly like the
// interner's saturating counter.
func (v *NodeView) Size() int {
	s := v.a.sizeAt(int(v.idx))
	if s > uint64(math.MaxInt) {
		return math.MaxInt
	}
	return int(s)
}

// MaxLen returns the length of the node's longest trace.
func (v *NodeView) MaxLen() int { return int(v.a.heightAt(int(v.idx))) }

// Contains reports membership by walking the flat edge table. Like
// Set.Contains it never interns: events are resolved through the lazy
// binding (live id → local index) and unbound events cannot be members.
func (v *NodeView) Contains(t trace.T) bool {
	v.a.bind()
	n := int(v.idx)
	for _, e := range t {
		id, ok := e.LookupID()
		if !ok {
			return false
		}
		local, ok := v.a.byID[id]
		if !ok {
			return false
		}
		lo, hi := int(v.a.edgeStart(n)), int(v.a.edgeStart(n+1))
		// Binary search the node's storage order (sorted by local index).
		found := false
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			ev, child := v.a.edgeAt(mid)
			switch {
			case ev < local:
				lo = mid + 1
			case ev > local:
				hi = mid
			default:
				n = int(child)
				found = true
				lo = hi
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Traces returns every trace in canonical order; see Set.Traces for the
// materialisation caveat.
func (v *NodeView) Traces() []trace.T {
	out, _ := v.TracesN(0)
	return out
}

// TracesN mirrors Set.TracesN on the frozen graph: the limit least traces
// in canonical order, and whether the set holds more.
func (v *NodeView) TracesN(limit int) ([]trace.T, bool) {
	return closure.ListTraces(v, limit, false)
}

// TracesMax returns the maximal traces in canonical order.
func (v *NodeView) TracesMax() []trace.T {
	out, _ := v.TracesMaxN(0)
	return out
}

// TracesMaxN mirrors Set.TracesMaxN on the frozen graph.
func (v *NodeView) TracesMaxN(limit int) ([]trace.T, bool) {
	return closure.ListTraces(v, limit, true)
}

// WalkSorted implements closure.View.WalkSorted. It orders a node's edges
// by the arena's own decoded events, so it never binds the arena.
func (v *NodeView) WalkSorted(visit func(depth int, last trace.Event, maximal bool) bool) bool {
	w := sortedWalk{a: v.a, visit: visit}
	return w.walk(int(v.idx), 0, trace.Event{})
}

type sortedWalk struct {
	a     *Arena
	visit func(depth int, last trace.Event, maximal bool) bool
	// order stacks, for each node on the path, its edge rows in
	// trace.Event.Compare order.
	order []int
}

func (w *sortedWalk) walk(n, depth int, last trace.Event) bool {
	lo, hi := int(w.a.edgeStart(n)), int(w.a.edgeStart(n+1))
	if !w.visit(depth, last, lo == hi) {
		return false
	}
	if w.order == nil {
		w.order = make([]int, 0, 64)
	}
	base := len(w.order)
	for j := lo; j < hi; j++ {
		w.order = append(w.order, j)
	}
	// Deeper nodes push above base; should that move w.order, seg keeps
	// reading this node's rows from the old array.
	seg := w.order[base:]
	slices.SortFunc(seg, func(x, y int) int { return w.event(x).Compare(w.event(y)) })
	for _, j := range seg {
		ev, child := w.a.edgeAt(j)
		if !w.walk(int(child), depth+1, w.a.events[ev]) {
			return false
		}
	}
	w.order = w.order[:base]
	return true
}

func (w *sortedWalk) event(row int) trace.Event {
	ev, _ := w.a.edgeAt(row)
	return w.a.events[ev]
}

// Thaw rebuilds the whole arena through the interner (once, cached) and
// returns this node's canonical set.
func (v *NodeView) Thaw() *closure.Set { return v.a.Thaw()[v.idx] }

// --- process-wide counters (surfaced through /metrics) ---

var (
	arenasOpened atomic.Int64
	arenaBytes   atomic.Int64
	binds        atomic.Int64
	thaws        atomic.Int64
	thawedNodes  atomic.Int64
	viewHits     atomic.Int64
)

// CountHit records one read query answered from a frozen view without a
// thaw; hosts call it where they route reads (pkg/csp's TraceResult.View).
func CountHit() { viewHits.Add(1) }

// Stats is a snapshot of the process-wide frozen-tier counters.
type Stats struct {
	// ArenasOpened counts successful Opens; ArenaBytes sums their image
	// sizes (the frozen tier's resident footprint — file-backed pages when
	// mmap'd, heap bytes otherwise).
	ArenasOpened int64 `json:"arenas_opened"`
	ArenaBytes   int64 `json:"arena_bytes"`
	// Binds counts lazy event-id bindings (≤ ArenasOpened; an arena whose
	// views only list, and never answer Contains, never binds).
	Binds int64 `json:"binds"`
	// Hits counts read queries served from frozen views without a thaw.
	Hits int64 `json:"hits"`
	// Thaws counts arenas rebuilt through the interner on a write path;
	// ThawedNodes sums the nodes those rebuilds re-interned.
	Thaws       int64 `json:"thaws"`
	ThawedNodes int64 `json:"thawed_nodes"`
}

// Snapshot returns the current counter values.
func Snapshot() Stats {
	return Stats{
		ArenasOpened: arenasOpened.Load(),
		ArenaBytes:   arenaBytes.Load(),
		Binds:        binds.Load(),
		Hits:         viewHits.Load(),
		Thaws:        thaws.Load(),
		ThawedNodes:  thawedNodes.Load(),
	}
}
