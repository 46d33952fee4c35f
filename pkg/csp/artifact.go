// Module ↔ store.Artifact conversion. internal/store knows nothing about
// modules or engines (it traffics in tries, symbols, and opaque verdict
// blobs); this file is the bridge: flattening a Module's recorded results
// into an artifact for persisting, and rehydrating an artifact into a
// deferred Module whose caches are pre-warmed — the warm-boot path that
// serves requests without parsing or denoting anything.
package csp

import (
	"encoding/json"
	"fmt"
	"sort"

	"cspsat/internal/store"
)

// ArtifactStore re-exports the on-disk content-addressed store so hosts
// (cspserved, the CLI tools) can stay on the facade import.
type ArtifactStore = store.Store

// OpenStore opens (creating if needed) an artifact store directory for
// attaching to a ModuleCache via SetStore.
func OpenStore(dir string) (*ArtifactStore, error) { return store.Open(dir) }

// engineFromName is the inverse of Engine.String for the storable engines.
func engineFromName(name string) (Engine, bool) {
	switch name {
	case "op":
		return EngineOp, true
	case "denote":
		return EngineDenote, true
	}
	return 0, false
}

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

	// Deterministic artifact bytes for identical result sets: flatten in
	// sorted key order.
	tkeys := make([]traceResultKey, 0, len(m.res.traces))
	for k := range m.res.traces {
		tkeys = append(tkeys, k)
	}
	sort.Slice(tkeys, func(i, j int) bool {
		a, b := tkeys[i], tkeys[j]
		if a.engine != b.engine {
			return a.engine < b.engine
		}
		if a.depth != b.depth {
			return a.depth < b.depth
		}
		return a.process < b.process
	})
	for _, k := range tkeys {
		r := m.res.traces[k]
		// TraceSet, not Set: a store-rehydrated result being re-persisted
		// (a warm module that computed something new) thaws here — the
		// write side is the one place frozen data rebuilds through the
		// interner. Pure serve traffic never reaches this.
		b.AddTraceRoot(k.engine.String(), k.depth, k.process, r.TraceSet(), r.Iterations)
	}

	depths := make([]int, 0, len(m.res.checks))
	for d := range m.res.checks {
		depths = append(depths, d)
	}
	sort.Ints(depths)
	for _, d := range depths {
		blob, err := json.Marshal(m.res.checks[d])
		if err != nil {
			return nil, fmt.Errorf("csp: encoding check verdicts: %w", err)
		}
		b.AddCheck(d, blob)
	}

	lens := make([]int, 0, len(m.res.proves))
	for l := range m.res.proves {
		lens = append(lens, l)
	}
	sort.Ints(lens)
	for _, l := range lens {
		blob, err := json.Marshal(m.res.proves[l])
		if err != nil {
			return nil, fmt.Errorf("csp: encoding prove verdicts: %w", err)
		}
		b.AddProve(l, blob)
	}

	rkeys := make([]refineResultKey, 0, len(m.res.refines))
	for k := range m.res.refines {
		rkeys = append(rkeys, k)
	}
	sort.Slice(rkeys, func(i, j int) bool {
		a, b := rkeys[i], rkeys[j]
		if a.model != b.model {
			return a.model < b.model
		}
		if a.depth != b.depth {
			return a.depth < b.depth
		}
		if a.impl != b.impl {
			return a.impl < b.impl
		}
		return a.spec < b.spec
	})
	for _, k := range rkeys {
		blob, err := json.Marshal(m.res.refines[k])
		if err != nil {
			return nil, fmt.Errorf("csp: encoding refinement verdict: %w", err)
		}
		b.AddRefinement(k.model.String(), k.depth, k.impl, k.spec, blob)
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

	for _, r := range art.TraceRoots {
		engine, ok := engineFromName(r.Engine)
		if !ok {
			return nil, fmt.Errorf("csp: artifact names unknown engine %q", r.Engine)
		}
		view, err := art.RootView(r)
		if err != nil {
			return nil, err
		}
		m.StoreTraces(engine, int(r.Depth), r.Process, &TraceResult{
			frozen:     view,
			Engine:     engine,
			Iterations: int(r.Iterations),
		})
	}
	for _, c := range art.Checks {
		var results []AssertResultJSON
		if err := json.Unmarshal(c.Results, &results); err != nil {
			return nil, fmt.Errorf("csp: decoding check verdicts: %w", err)
		}
		m.StoreCheck(int(c.Depth), results)
	}
	for _, p := range art.Proves {
		var results []ProveResultJSON
		if err := json.Unmarshal(p.Results, &results); err != nil {
			return nil, fmt.Errorf("csp: decoding prove verdicts: %w", err)
		}
		m.StoreProve(int(p.MaxLen), results)
	}
	for _, rf := range art.Refinements {
		mdl, err := ParseModel(rf.Model)
		if err != nil {
			return nil, fmt.Errorf("csp: artifact names unknown model %q", rf.Model)
		}
		var result RefineResultJSON
		if err := json.Unmarshal(rf.Result, &result); err != nil {
			return nil, fmt.Errorf("csp: decoding refinement verdict: %w", err)
		}
		m.StoreRefine(mdl, int(rf.Depth), rf.Impl, rf.Spec, result)
	}
	return m, nil
}
