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
// in place forever after), the named denotation roots (arena node indices
// per process/engine/depth), and the check/prove/refine verdicts as opaque
// wire-format blobs. The ids baked into the image are arena-local; the
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
	"fmt"

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
	// re-parse lazily if a request needs more than the precomputed roots.
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
	// TraceRoots names the precomputed trace sets by arena node index.
	TraceRoots []TraceRoot
	// Checks, Proves, and Refinements hold verdict blocks in the facade's
	// stable JSON wire encodings, opaque to this package.
	Checks      []CheckBlock
	Proves      []ProveBlock
	Refinements []RefineBlock
}

// TraceRoot names one precomputed trace set: which process, under which
// engine and depth, denotes the trie rooted at arena node Root.
type TraceRoot struct {
	// Engine is "op" or "denote" (runtime walks are sampled, not pure
	// functions of the source, and are never stored).
	Engine string
	// Depth is the trace-length bound the set was computed to.
	Depth uint32
	// Process is the root process expression, canonically rendered (a
	// plain name for the common case).
	Process string
	// Root is the arena node index of the set (0 = {<>}).
	Root uint32
	// Iterations preserves the approximation-chain pass count (denote
	// only), so a served result is indistinguishable from a computed one.
	Iterations uint32
}

// CheckBlock is one CheckAll outcome: the verdicts for a depth, as the
// facade's []AssertResultJSON marshaled bytes.
type CheckBlock struct {
	Depth   uint32
	Results []byte
}

// ProveBlock is one ProveAsserts outcome: the verdicts for a validity
// bound, as the facade's []ProveResultJSON marshaled bytes.
type ProveBlock struct {
	MaxLen  uint32
	Results []byte
}

// RefineBlock is one refinement verdict: impl against spec under a named
// semantic model ("traces", "failures") at a depth bound, as the facade's
// RefineResultJSON marshaled bytes. Introduced in wire version 2.
type RefineBlock struct {
	Model string
	Depth uint32
	// Impl and Spec are the two process expressions, canonically rendered.
	Impl   string
	Spec   string
	Result []byte
}

// RootView returns the zero-rebuild read surface of a trace root: a
// frozen view traversing the arena image in place. This is the warm-boot
// fast path — nothing is interned until the view is first traversed, and
// no trie node is ever rebuilt unless someone thaws.
func (a *Artifact) RootView(r TraceRoot) (*frozen.NodeView, error) {
	v, err := a.Arena.View(r.Root)
	if err != nil {
		return nil, fmt.Errorf("store: trace root %q: %w", r.Process, err)
	}
	return v, nil
}

// Sets rebuilds every arena node into a canonical *closure.Set, bottom-up,
// re-interning events by name — the thaw-on-write escape hatch (and the
// only path that re-interns; it runs once per arena, cached). sets[i]
// corresponds to arena node i; sets[0] is the empty trie.
func (a *Artifact) Sets() ([]*closure.Set, error) {
	if a.Arena == nil {
		return nil, fmt.Errorf("store: artifact has no arena")
	}
	return a.Arena.Thaw(), nil
}

// RootSet returns the rebuilt set for a TraceRoot given the Sets() result.
func (a *Artifact) RootSet(sets []*closure.Set, r TraceRoot) (*closure.Set, error) {
	if int(r.Root) >= len(sets) {
		return nil, fmt.Errorf("store: trace root %q: node index %d out of range", r.Process, r.Root)
	}
	return sets[r.Root], nil
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

// AddTraceRoot records one precomputed trace set, freezing its trie into
// the shared arena.
func (b *Builder) AddTraceRoot(engine string, depth int, process string, set *closure.Set, iterations int) {
	b.art.TraceRoots = append(b.art.TraceRoots, TraceRoot{
		Engine:     engine,
		Depth:      uint32(depth),
		Process:    process,
		Root:       b.fz.Add(set),
		Iterations: uint32(iterations),
	})
}

// AddCheck records one CheckAll verdict block.
func (b *Builder) AddCheck(depth int, results []byte) {
	b.art.Checks = append(b.art.Checks, CheckBlock{Depth: uint32(depth), Results: results})
}

// AddProve records one ProveAsserts verdict block.
func (b *Builder) AddProve(maxLen int, results []byte) {
	b.art.Proves = append(b.art.Proves, ProveBlock{MaxLen: uint32(maxLen), Results: results})
}

// AddRefinement records one refinement verdict block.
func (b *Builder) AddRefinement(model string, depth int, impl, spec string, result []byte) {
	b.art.Refinements = append(b.art.Refinements, RefineBlock{
		Model:  model,
		Depth:  uint32(depth),
		Impl:   impl,
		Spec:   spec,
		Result: result,
	})
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
