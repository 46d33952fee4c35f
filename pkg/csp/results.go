// Per-module result caching. The engines are deterministic over the
// sampled domains (EngineRuntime excepted), so a result's key fully
// determines it: resident hosts record each computed result on the Module
// and serve repeats — and artifact-store warm boots — without touching the
// engines. This table is what the artifact store persists; CachedTraces on
// a deferred module is the path that answers a request without ever
// parsing the source.
package csp

import (
	"cmp"
	"strings"
	"sync"
)

// resultKind says what a result is. A trace set's kind is the Engine that
// computed it; the verdict kinds follow the engines. Kinds and models are
// written into artifacts (store.Result), so renumbering either needs a new
// codec version.
type resultKind uint8

const (
	kindOp     = resultKind(EngineOp)
	kindDenote = resultKind(EngineDenote)
	// EngineRuntime results are sampled walks, not functions of the
	// source, so its kind never reaches the table.
	kindCheck  = resultKind(EngineRuntime) + 1 // CheckAll's verdicts
	kindProve  = kindCheck + 1                 // ProveAsserts' verdicts
	kindRefine = kindProve + 1                 // one refinement verdict
)

// resultKey identifies one deterministic result. bound is the depth, or
// the validity bound of a prove; p is the process of a trace set and the
// implementation of a refinement, q the refinement's specification, both
// canonically rendered. The model is part of a refinement's key because
// the same (impl, spec, depth) triple can hold under traces and fail under
// failures.
type resultKey struct {
	kind  resultKind
	model Model
	bound int
	p, q  string
}

// compare is the total order that makes artifact bytes a function of the
// result set alone.
func (a resultKey) compare(b resultKey) int {
	return cmp.Or(
		cmp.Compare(a.kind, b.kind),
		cmp.Compare(a.model, b.model),
		cmp.Compare(a.bound, b.bound),
		strings.Compare(a.p, b.p),
		strings.Compare(a.q, b.q),
	)
}

// depthKey is the key of a result computed to a trace-length bound; depth
// 0 is normalized to DefaultDepth like everywhere else.
func depthKey(kind resultKind, mdl Model, depth int, p, q string) resultKey {
	if depth <= 0 {
		depth = DefaultDepth
	}
	return resultKey{kind: kind, model: mdl, bound: depth, p: p, q: q}
}

// result is one entry of the table: the field of its key's kind is set.
// Verdicts are kept in the stable wire encodings.
type result struct {
	traces *TraceResult
	checks []AssertResultJSON
	proves []ProveResultJSON
	refine RefineResultJSON
}

// resultsCache is the per-Module memo of deterministic results. The table
// is lazily allocated; values are treated as immutable once stored.
type resultsCache struct {
	mu    sync.Mutex
	table map[resultKey]result
	// onResult, when set, fires after each newly stored result (outside
	// the mutex). The module cache uses it to persist the module's
	// artifact; see ModuleCache.SetStore.
	onResult func()
}

func (rc *resultsCache) setOnResult(f func()) {
	rc.mu.Lock()
	rc.onResult = f
	rc.mu.Unlock()
}

func (rc *resultsCache) get(k resultKey) (result, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	r, ok := rc.table[k]
	return r, ok
}

// put records r under k unless a result is already there: the first write
// wins, and only it fires onResult.
func (rc *resultsCache) put(k resultKey, r result) {
	rc.mu.Lock()
	if _, ok := rc.table[k]; ok {
		rc.mu.Unlock()
		return
	}
	if rc.table == nil {
		rc.table = map[resultKey]result{}
	}
	rc.table[k] = r
	f := rc.onResult
	rc.mu.Unlock()
	if f != nil {
		f()
	}
}

// CachedTraces returns the recorded trace result for (engine, depth,
// process), if any. process is the name the result was stored under
// (StoreTraces); depth 0 is normalized to DefaultDepth like everywhere
// else.
func (m *Module) CachedTraces(engine Engine, depth int, process string) (*TraceResult, bool) {
	r, ok := m.res.get(depthKey(resultKind(engine), ModelTraces, depth, process, ""))
	return r.traces, ok
}

// StoreTraces records a computed trace result for later CachedTraces hits
// (and, when the module came through a store-backed ModuleCache, persists
// it). EngineRuntime results are sampled walks, not functions of the
// source, and are never recorded.
func (m *Module) StoreTraces(engine Engine, depth int, process string, r *TraceResult) {
	if engine == EngineRuntime || r == nil {
		return
	}
	m.res.put(depthKey(resultKind(engine), ModelTraces, depth, process, ""), result{traces: r})
}

// CachedCheck returns the recorded CheckAll verdicts for a depth, in the
// stable wire encoding.
func (m *Module) CachedCheck(depth int) ([]AssertResultJSON, bool) {
	r, ok := m.res.get(depthKey(kindCheck, ModelTraces, depth, "", ""))
	return r.checks, ok
}

// StoreCheck records CheckAll verdicts for a depth. The slice is retained;
// callers must not mutate it afterwards.
func (m *Module) StoreCheck(depth int, results []AssertResultJSON) {
	if results == nil {
		return
	}
	m.res.put(depthKey(kindCheck, ModelTraces, depth, "", ""), result{checks: results})
}

// CachedProve returns the recorded ProveAsserts verdicts for a validity
// bound, in the stable wire encoding.
func (m *Module) CachedProve(maxLen int) ([]ProveResultJSON, bool) {
	r, ok := m.res.get(resultKey{kind: kindProve, bound: maxLen})
	return r.proves, ok
}

// StoreProve records ProveAsserts verdicts for a validity bound. The slice
// is retained; callers must not mutate it afterwards.
func (m *Module) StoreProve(maxLen int, results []ProveResultJSON) {
	if results == nil {
		return
	}
	m.res.put(resultKey{kind: kindProve, bound: maxLen}, result{proves: results})
}

// CachedRefine returns the recorded refinement verdict for (model, depth,
// impl, spec), in the stable wire encoding. impl and spec are the
// canonical process renderings the verdict was stored under.
func (m *Module) CachedRefine(mdl Model, depth int, impl, spec string) (RefineResultJSON, bool) {
	r, ok := m.res.get(depthKey(kindRefine, mdl, depth, impl, spec))
	return r.refine, ok
}

// StoreRefine records a refinement verdict for later CachedRefine hits
// (and, when the module came through a store-backed ModuleCache, persists
// it).
func (m *Module) StoreRefine(mdl Model, depth int, impl, spec string, r RefineResultJSON) {
	m.res.put(depthKey(kindRefine, mdl, depth, impl, spec), result{refine: r})
}
