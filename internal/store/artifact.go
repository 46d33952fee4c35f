// Package store persists compiled CSP modules as content-addressed
// artifacts: the on-disk L2 tier under pkg/csp's in-memory ModuleCache.
// The paper's semantics make every artifact section a pure function of the
// module source — a prefix-closed trace set (§3) and the verdicts it
// discharges (§2.1) cannot change unless the text does — so the source
// hash the module cache already computes is the natural address, and
// artifacts never need invalidation, only garbage collection.
//
// An artifact carries the module source, the closure trie graph as one
// frozen arena image (internal/closure/frozen: dense node ids, flat edge
// tables, its own local symbol table — written once at export, traversed
// in place forever after), and the module's results: trace sets as arena
// node indices and verdicts as opaque wire-format blobs, each under the
// facade's key. The ids baked into the image are arena-local; the
// live engines' dense trace ids are re-derived lazily on the first
// membership probe or id-order walk (frozen's bind step; listings need
// none), and rebuilding through the interner happens only
// when a caller explicitly thaws — loads alone intern nothing.
//
// Files are written via temp file + atomic rename and read with strict
// version, bounds, and checksum checks (codec.go); a corrupt artifact is a
// recompute, never a crash.
package store

import (
	"cspsat/internal/closure"
	"cspsat/internal/closure/frozen"
)

// Artifact is the decoded form of one stored module. It is plain data
// plus a validated frozen arena: decoding touches no global state, so a
// corrupt file is rejected (by checksum and bounds checks) before anything
// is interned.
type Artifact struct {
	// Key is the content address: the hex source hash pkg/csp computes
	// (csp.SourceHash). It is stored inside the payload too, so a file
	// renamed to the wrong address is detected.
	Key string
	// Source is the module's .csp text — small next to the tries, and
	// carrying it makes a loaded artifact self-contained: the module can
	// re-parse lazily if a request needs more than the precomputed results.
	Source string
	// NatWidth is the load option baked into Key.
	NatWidth int
	// CreatedUnix records when the artifact was first written.
	CreatedUnix int64

	// Arena is the trie graph as a validated frozen image: every node of
	// every stored trace set, bottom-up, node 0 the empty trie {<>}. When
	// the artifact was decoded from an mmap'd file the image bytes alias
	// the mapping (the codec never copies them), so serving read queries
	// from the arena costs file-backed pages, not heap.
	Arena *frozen.Arena
	// Results are the module's precomputed results, in the order they
	// were added.
	Results []Result
}

// Result is one precomputed result: a trace set, as the arena node Root,
// or a verdict, as the JSON Blob. Kind, Model, Bound, P and Q are the
// facade's key for it, which this package carries without reading.
type Result struct {
	Kind, Model uint32
	Bound       int
	P, Q        string
	// Root is the arena node index of a trace set (0 = {<>}), and
	// Iterations its approximation-chain pass count (denote only), so a
	// served result is indistinguishable from a computed one.
	Root, Iterations uint32
	// Blob is a verdict in the facade's stable JSON wire encoding.
	Blob []byte
}

// Builder freezes canonical Sets into an Artifact, sharing the arena's
// symbol table and node graph across all added roots (two roots whose
// tries share subtrees share their frozen nodes too).
type Builder struct {
	art *Artifact
	fz  *frozen.Builder
}

// NewBuilder starts an artifact for one module.
func NewBuilder(key, source string, natWidth int, createdUnix int64) *Builder {
	return &Builder{
		art: &Artifact{
			Key:         key,
			Source:      source,
			NatWidth:    natWidth,
			CreatedUnix: createdUnix,
		},
		fz: frozen.NewBuilder(),
	}
}

// Add records one result. When set is non-nil, its trie is frozen into
// the shared arena and r.Root names it.
func (b *Builder) Add(r Result, set *closure.Set) {
	if set != nil {
		r.Root = b.fz.Add(set)
	}
	b.art.Results = append(b.art.Results, r)
}

// Artifact finalises the arena image (self-validated through the same
// checks every load runs) and returns the built artifact. The builder must
// not be reused afterwards.
func (b *Builder) Artifact() (*Artifact, error) {
	arena, err := b.fz.Finish()
	if err != nil {
		return nil, err
	}
	b.art.Arena = arena
	return b.art, nil
}
