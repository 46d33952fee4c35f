package frozen

import (
	"encoding/binary"
	"fmt"
	"sort"

	"cspsat/internal/closure"
	"cspsat/internal/trace"
	"cspsat/internal/value"
)

// Builder flattens canonical interned sets into one arena image. Roots
// added to the same builder share the node graph and event table (two sets
// sharing subtrees share their frozen nodes too), exactly like the tries
// shared pointers while live. Freezing happens once, at export time; the
// assembled image is then the cheap thing to load forever after.
type Builder struct {
	nodeIdx map[*closure.Set]uint32
	evIdx   map[trace.EventID]uint32
	events  []trace.Event

	// Per node: its edge list (sorted by local event index), trace count,
	// and height. Node 0 (the empty trie) is pre-seeded.
	nodeEdges [][]builderEdge
	sizes     []uint64
	heights   []uint32
}

type builderEdge struct {
	event uint32
	child uint32
}

// NewBuilder starts an empty arena holding only node 0, the empty trie.
func NewBuilder() *Builder {
	return &Builder{
		nodeIdx:   map[*closure.Set]uint32{closure.Stop(): 0},
		evIdx:     map[trace.EventID]uint32{},
		nodeEdges: [][]builderEdge{nil},
		sizes:     []uint64{1},
		heights:   []uint32{0},
	}
}

// Add flattens s into the arena (children first, sharing already-added
// nodes) and returns its node index.
func (b *Builder) Add(s *closure.Set) uint32 {
	if idx, ok := b.nodeIdx[s]; ok {
		return idx
	}
	s.Export(func(n *closure.Set, edges []closure.Edge) {
		if _, ok := b.nodeIdx[n]; ok {
			return
		}
		rows := make([]builderEdge, len(edges))
		for i, e := range edges {
			rows[i] = builderEdge{event: b.eventIndex(e.Ev), child: b.nodeIdx[e.Child]}
		}
		// The trie stores edges sorted by live event id; the image stores
		// them sorted by local event index so membership probes can binary
		// search without binding.
		sort.Slice(rows, func(i, j int) bool { return rows[i].event < rows[j].event })
		b.nodeIdx[n] = uint32(len(b.nodeEdges))
		b.nodeEdges = append(b.nodeEdges, rows)
		b.sizes = append(b.sizes, uint64(n.Size()))
		b.heights = append(b.heights, uint32(n.MaxLen()))
	})
	return b.nodeIdx[s]
}

func (b *Builder) eventIndex(ev trace.Event) uint32 {
	id := ev.ID()
	if idx, ok := b.evIdx[id]; ok {
		return idx
	}
	idx := uint32(len(b.events))
	b.events = append(b.events, ev)
	b.evIdx[id] = idx
	return idx
}

// Finish assembles the image and re-opens it through the same validator
// every untrusted load goes through — a freshly frozen arena is proven
// loadable before it is ever written. The builder must not be used after.
func (b *Builder) Finish() (*Arena, error) {
	nEdges := 0
	for _, rows := range b.nodeEdges {
		nEdges += len(rows)
	}
	n := len(b.nodeEdges)

	size := headerLen + 4*(n+1) + 8*n + 4*n + edgeRowLen*nEdges
	data := make([]byte, 0, size+16*len(b.events))
	data = append(data, magic...)
	data = binary.LittleEndian.AppendUint32(data, uint32(n))
	data = binary.LittleEndian.AppendUint32(data, uint32(nEdges))
	data = binary.LittleEndian.AppendUint32(data, uint32(len(b.events)))
	data = binary.LittleEndian.AppendUint32(data, 0)

	start := uint32(0)
	for _, rows := range b.nodeEdges {
		data = binary.LittleEndian.AppendUint32(data, start)
		start += uint32(len(rows))
	}
	data = binary.LittleEndian.AppendUint32(data, start)
	for _, s := range b.sizes {
		data = binary.LittleEndian.AppendUint64(data, s)
	}
	for _, h := range b.heights {
		data = binary.LittleEndian.AppendUint32(data, h)
	}
	for _, rows := range b.nodeEdges {
		for _, e := range rows {
			data = binary.LittleEndian.AppendUint32(data, e.event)
			data = binary.LittleEndian.AppendUint32(data, e.child)
		}
	}
	for _, ev := range b.events {
		data = binary.AppendUvarint(data, uint64(len(ev.Chan)))
		data = append(data, ev.Chan...)
		data = value.AppendBinary(data, ev.Msg)
	}

	a, err := Open(data)
	if err != nil {
		return nil, fmt.Errorf("frozen: self-check of freshly built arena failed: %w", err)
	}
	return a, nil
}

// Freeze is the one-set convenience: a single root frozen into its own
// arena, returning the arena and the root's node index.
func Freeze(s *closure.Set) (*Arena, uint32, error) {
	b := NewBuilder()
	idx := b.Add(s)
	a, err := b.Finish()
	if err != nil {
		return nil, 0, err
	}
	return a, idx, nil
}
