// Module ↔ store.Artifact conversion. internal/store knows nothing about
// modules or engines (it traffics in tries, symbols, opaque result keys
// and opaque verdict blobs); this file is the bridge: flattening a
// Module's results table into an artifact for persisting, and rehydrating
// an artifact into a deferred Module whose table is pre-warmed — the
// warm-boot path that serves requests without parsing or denoting
// anything.
package csp

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"cspsat/internal/store"
)

// ArtifactStore re-exports the on-disk content-addressed store so hosts
// (cspserved, the CLI tools) can stay on the facade import.
type ArtifactStore = store.Store

// OpenStore opens (creating if needed) an artifact store directory for
// attaching to a ModuleCache via SetStore.
func OpenStore(dir string) (*ArtifactStore, error) { return store.Open(dir) }

// buildArtifact flattens the module's source and recorded results into a
// store artifact under the given content address. It fails for modules
// without source text (FromModule) — they have no stable address to store
// under.
func (m *Module) buildArtifact(key string, createdUnix int64) (*store.Artifact, error) {
	if m.src == "" {
		return nil, fmt.Errorf("csp: module has no source text to persist")
	}
	b := store.NewBuilder(key, m.src, m.opts.NatWidth, createdUnix)

	m.res.mu.Lock()
	defer m.res.mu.Unlock()

	// Deterministic artifact bytes for identical result sets: add in key
	// order.
	keys := make([]resultKey, 0, len(m.res.table))
	for k := range m.res.table {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, resultKey.compare)
	for _, k := range keys {
		r := m.res.table[k]
		rec := store.Result{Kind: uint32(k.kind), Model: uint32(k.model), Bound: k.bound, P: k.p, Q: k.q}
		if r.traces != nil {
			// TraceSet, not Set: a store-rehydrated result being re-persisted
			// (a warm module that computed something new) thaws here — the
			// write side is the one place frozen data rebuilds through the
			// interner. Pure serve traffic never reaches this.
			rec.Iterations = uint32(r.traces.Iterations)
			b.Add(rec, r.traces.TraceSet())
			continue
		}
		var verdict any
		switch k.kind {
		case kindCheck:
			verdict = r.checks
		case kindProve:
			verdict = r.proves
		default:
			verdict = r.refine
		}
		blob, err := json.Marshal(verdict)
		if err != nil {
			return nil, fmt.Errorf("csp: encoding verdict (%+v): %w", k, err)
		}
		rec.Blob = blob
		b.Add(rec, nil)
	}
	return b.Artifact()
}

// moduleFromArtifact rehydrates a decoded artifact into a deferred Module
// whose trace results stay frozen: each root is an arena view traversing
// the stored image in place — nothing is re-interned, nothing rebuilt —
// and thaws back to a pointer-canonical interned set only if a write path
// asks (TraceResult.TraceSet). Verdict blobs are decoded back into the
// wire types, and the source is retained for a lazy parse should a request
// need more than the precomputed results. The artifact's NatWidth is the
// load option baked into its key, so the rehydrated module behaves exactly
// like one loaded with those options.
func moduleFromArtifact(art *store.Artifact) (*Module, error) {
	m := newDeferred(art.Source, Options{NatWidth: art.NatWidth})
	m.createdUnix = art.CreatedUnix
	for _, rec := range art.Results {
		k := resultKey{kind: resultKind(rec.Kind), model: Model(rec.Model), bound: rec.Bound, p: rec.P, q: rec.Q}
		var r result
		var err error
		switch k.kind {
		case kindOp, kindDenote:
			r.traces = &TraceResult{Engine: Engine(k.kind), Iterations: int(rec.Iterations)}
			r.traces.frozen, err = art.Arena.View(rec.Root)
		case kindCheck:
			r.checks, err = unmarshal[[]AssertResultJSON](rec.Blob)
		case kindProve:
			r.proves, err = unmarshal[[]ProveResultJSON](rec.Blob)
		case kindRefine:
			r.refine, err = unmarshal[RefineResultJSON](rec.Blob)
		default:
			err = errors.New("unknown kind")
		}
		if err != nil {
			return nil, fmt.Errorf("csp: artifact result (%+v): %w", k, err)
		}
		m.res.put(k, r)
	}
	return m, nil
}

// unmarshal decodes a verdict blob into its own T, so that the result
// being rebuilt can stay off the heap.
func unmarshal[T any](blob []byte) (T, error) {
	var v T
	err := json.Unmarshal(blob, &v)
	return v, err
}
