package trace

// Symbol interning: the finite channel and event vocabularies of a spec are
// mapped once to dense integer ids, and the closure engine's hot paths run
// on the ids instead of re-deriving string keys per operation. A ChanID
// names a channel, an EventID names a communication c.m; both are assigned
// densely in first-intern order by the symbol tables, so they double as
// bit positions (channel bitsets in set.go) and as compact memo-key
// components (internal/closure).
//
// The tables are append-only and process-global. Ids are stable for the
// lifetime of the process: interning the same channel or event always
// returns the same id, and — unlike the closure package's intern/memo
// tables — the symbol tables are never evicted or reset, not even by
// closure.ResetCaches. Live bitsets and interned trie edges embed ids, so
// recycling one would silently change set membership; the price is that a
// host which parses an unbounded stream of distinct channel names grows its
// symbol tables monotonically. Specs have small fixed vocabularies, so
// occupancy (see SymbolTableStats) stays in the hundreds.
//
// Concurrency: each forward map (name → id) sits under one RWMutex, which
// interning a new symbol takes for writing; the reverse direction (id →
// name) is a chunked append-only store whose spine and length are
// published with atomics, so reverse lookups — the per-edge probes of the
// closure walkers — take no lock at all. An id handed to another
// goroutine carries the usual Go happens-before edge from whatever
// synchronisation handed it over, which is what makes the lock-free read
// safe.

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"cspsat/internal/value"
)

// ChanID is the dense interned identity of a channel. Ids are assigned in
// first-intern order starting at 0 and are stable for the process lifetime.
type ChanID uint32

// EventID is the dense interned identity of a communication c.m.
type EventID uint32

// ChanSetID is the interned identity of a channel set's membership: two
// Sets have the same ChanSetID iff they contain the same channels. Used as
// a compact memo-key component by the closure operators.
type ChanSetID uint32

// EventSetID is the interned identity of a sorted event-id list (a chatter
// alphabet); same-membership lists share one id.
type EventSetID uint32

const (
	symChunkBits = 8
	symChunkLen  = 1 << symChunkBits
)

// symStore is an append-only id → value array stored as fixed-size chunks
// hanging off an atomically published spine. Appends serialise on the
// owning table's write lock; reads are lock-free: a reader holding a valid
// id loads the spine pointer (which only ever grows, and every published
// spine contains every chunk a previously returned id lives in) and
// indexes directly.
type symStore[V any] struct {
	count atomic.Uint32
	spine atomic.Pointer[[]*[symChunkLen]V]
}

// append stores v under the next id; the caller holds the owning table's
// write lock.
func (s *symStore[V]) append(v V) uint32 {
	i := s.count.Load()
	ci, off := int(i>>symChunkBits), i&(symChunkLen-1)
	sp := s.spine.Load()
	if sp == nil || ci == len(*sp) {
		var grown []*[symChunkLen]V
		if sp != nil {
			grown = make([]*[symChunkLen]V, len(*sp), len(*sp)+1)
			copy(grown, *sp)
		}
		grown = append(grown, new([symChunkLen]V))
		sp = &grown
		s.spine.Store(sp)
	}
	(*sp)[ci][off] = v
	s.count.Store(i + 1)
	return i
}

func (s *symStore[V]) at(i uint32) V {
	sp := s.spine.Load()
	return (*sp)[i>>symChunkBits][i&(symChunkLen-1)]
}

func (s *symStore[V]) len() int { return int(s.count.Load()) }

// --- channel table ---

var chanTab = struct {
	mu    sync.RWMutex
	ids   map[Chan]ChanID
	store symStore[Chan]
}{ids: map[Chan]ChanID{}}

// ID interns the channel, returning its dense id. The first caller for a
// given name assigns the id; every later call returns the same one.
func (c Chan) ID() ChanID {
	if id, ok := LookupChan(c); ok {
		return id
	}
	chanTab.mu.Lock()
	defer chanTab.mu.Unlock()
	if id, ok := chanTab.ids[c]; ok {
		return id
	}
	id := ChanID(chanTab.store.append(c))
	chanTab.ids[c] = id
	return id
}

// LookupChan returns the channel's id without interning; ok is false when
// the channel has never been interned (in which case it cannot belong to
// any bitset either).
func LookupChan(c Chan) (ChanID, bool) {
	chanTab.mu.RLock()
	id, ok := chanTab.ids[c]
	chanTab.mu.RUnlock()
	return id, ok
}

// ChanByID returns the channel named by a previously interned id.
func ChanByID(id ChanID) Chan { return chanTab.store.at(uint32(id)) }

// NumChans returns the number of distinct channels interned so far.
func NumChans() int { return chanTab.store.len() }

// --- event table ---

// evKey is the comparable forward-map key for an event. value.V is not
// comparable (sequences carry a slice), so the payload is flattened: the
// scalar kinds map to their fields directly and sequences (which never
// travel on channels in the paper's examples) fall back to the canonical
// string key.
type evKey struct {
	c    ChanID
	kind value.Kind
	i    int64
	b    bool
	s    string
}

func eventInternKey(c ChanID, m value.V) evKey {
	k := evKey{c: c, kind: m.Kind()}
	switch m.Kind() {
	case value.KindInt:
		k.i = m.AsInt()
	case value.KindSym:
		k.s = m.AsSym()
	case value.KindBool:
		k.b = m.AsBool()
	default:
		k.s = m.Key()
	}
	return k
}

type eventEntry struct {
	ev Event
	ch ChanID
}

var eventTab = struct {
	mu    sync.RWMutex
	ids   map[evKey]EventID
	store symStore[eventEntry]
}{ids: map[evKey]EventID{}}

func lookupEvent(k evKey) (EventID, bool) {
	eventTab.mu.RLock()
	id, ok := eventTab.ids[k]
	eventTab.mu.RUnlock()
	return id, ok
}

// ID interns the event, returning its dense id. Warm calls (channel and
// event already interned, scalar message) allocate nothing.
func (e Event) ID() EventID {
	cid := e.Chan.ID()
	k := eventInternKey(cid, e.Msg)
	if id, ok := lookupEvent(k); ok {
		return id
	}
	eventTab.mu.Lock()
	defer eventTab.mu.Unlock()
	if id, ok := eventTab.ids[k]; ok {
		return id
	}
	id := EventID(eventTab.store.append(eventEntry{ev: e, ch: cid}))
	eventTab.ids[k] = id
	return id
}

// LookupID returns the event's id without interning; ok is false when the
// event was never interned — in which case no interned trie contains it.
func (e Event) LookupID() (EventID, bool) {
	cid, ok := LookupChan(e.Chan)
	if !ok {
		return 0, false
	}
	return lookupEvent(eventInternKey(cid, e.Msg))
}

// EventByID returns the event named by a previously interned id.
func EventByID(id EventID) Event { return eventTab.store.at(uint32(id)).ev }

// EventChanID returns the channel id of a previously interned event — the
// closure walkers' per-edge probe, lock-free by construction of symStore.
func EventChanID(id EventID) ChanID { return eventTab.store.at(uint32(id)).ch }

// NumEvents returns the number of distinct events interned so far.
func NumEvents() int { return eventTab.store.len() }

// --- channel-set identity ---

// chanSetKey inlines up to four bitset words (256 channel ids), which
// covers every realistic spec without allocating on the warm path; wider
// sets fall back to a packed-string key.
type chanSetKey struct {
	n              uint8
	w0, w1, w2, w3 uint64
}

var chanSetTab = struct {
	mu    sync.RWMutex
	small map[chanSetKey]ChanSetID
	big   map[string]ChanSetID
	next  ChanSetID
}{small: map[chanSetKey]ChanSetID{}, big: map[string]ChanSetID{}}

func packWords(ws []uint64) string {
	b := make([]byte, 0, 8*len(ws))
	for _, w := range ws {
		b = append(b, byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	return string(b)
}

// ID interns the set's membership, returning a process-stable identity:
// equal sets share one ChanSetID. Warm calls on sets of ≤ 256 channel ids
// allocate nothing.
func (s Set) ID() ChanSetID {
	if len(s.words) <= 4 {
		var k chanSetKey
		k.n = uint8(len(s.words))
		switch len(s.words) {
		case 4:
			k.w3 = s.words[3]
			fallthrough
		case 3:
			k.w2 = s.words[2]
			fallthrough
		case 2:
			k.w1 = s.words[1]
			fallthrough
		case 1:
			k.w0 = s.words[0]
		}
		chanSetTab.mu.RLock()
		id, ok := chanSetTab.small[k]
		chanSetTab.mu.RUnlock()
		if ok {
			return id
		}
		chanSetTab.mu.Lock()
		defer chanSetTab.mu.Unlock()
		if id, ok := chanSetTab.small[k]; ok {
			return id
		}
		id = chanSetTab.next
		chanSetTab.next++
		chanSetTab.small[k] = id
		return id
	}
	key := packWords(s.words)
	chanSetTab.mu.RLock()
	id, ok := chanSetTab.big[key]
	chanSetTab.mu.RUnlock()
	if ok {
		return id
	}
	chanSetTab.mu.Lock()
	defer chanSetTab.mu.Unlock()
	if id, ok := chanSetTab.big[key]; ok {
		return id
	}
	id = chanSetTab.next
	chanSetTab.next++
	chanSetTab.big[key] = id
	return id
}

// NumChanSets returns the number of distinct channel-set memberships
// interned so far.
func NumChanSets() int {
	chanSetTab.mu.RLock()
	defer chanSetTab.mu.RUnlock()
	return len(chanSetTab.small) + len(chanSetTab.big)
}

// --- event-set identity ---

var eventSetTab = struct {
	mu sync.RWMutex
	m  map[string]EventSetID
}{m: map[string]EventSetID{}}

// InternEventIDs interns a list of event ids (a chatter alphabet) and
// returns its identity: lists with the same elements share one id. The
// input is canonicalised here — order and duplicates do not matter — so
// memo keys built from the result are content-addressed. The input slice
// is not modified.
func InternEventIDs(ids []EventID) EventSetID {
	canonical := slices.IsSorted(ids)
	for i := 1; canonical && i < len(ids); i++ {
		canonical = ids[i] != ids[i-1]
	}
	if !canonical {
		ids = slices.Clone(ids)
		slices.Sort(ids)
		ids = slices.Compact(ids)
	}
	b := make([]byte, 0, 4*len(ids))
	for _, id := range ids {
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	key := string(b)
	eventSetTab.mu.RLock()
	id, ok := eventSetTab.m[key]
	eventSetTab.mu.RUnlock()
	if ok {
		return id
	}
	eventSetTab.mu.Lock()
	defer eventSetTab.mu.Unlock()
	if id, ok := eventSetTab.m[key]; ok {
		return id
	}
	id = EventSetID(len(eventSetTab.m))
	eventSetTab.m[key] = id
	return id
}

// NumEventSets returns the number of distinct chatter alphabets interned
// so far.
func NumEventSets() int {
	eventSetTab.mu.RLock()
	defer eventSetTab.mu.RUnlock()
	return len(eventSetTab.m)
}

// SymbolStats is an occupancy snapshot of the process-global symbol
// tables, surfaced through closure.Stats for hosts watching memory health.
// The tables are append-only (never evicted or reset), so every counter is
// monotone over the process lifetime.
type SymbolStats struct {
	// Chans / Events count the distinct channels and communications
	// interned so far.
	Chans  int
	Events int
	// ChanSets / EventSets count the distinct set memberships interned as
	// memo-key identities.
	ChanSets  int
	EventSets int
}

// SymbolTableStats returns the current symbol-table occupancy.
func SymbolTableStats() SymbolStats {
	return SymbolStats{
		Chans:     NumChans(),
		Events:    NumEvents(),
		ChanSets:  NumChanSets(),
		EventSets: NumEventSets(),
	}
}

// popcountWords is shared by Set.Len; kept here with the other bit helpers.
func popcountWords(ws []uint64) int {
	n := 0
	for _, w := range ws {
		n += bits.OnesCount64(w)
	}
	return n
}
