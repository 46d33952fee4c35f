package csp_test

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"cspsat/internal/trace"
	"cspsat/pkg/csp"
)

// referenceListing is the listing EncodeTraceSet must produce, built the
// long way from the id-order WalkDFS of the thawed set: every member,
// sorted by trace.T.Compare, only the maximal ones with maxOnly, the first
// limit of them, each rendered by EncodeTrace. Thawing a frozen view
// leaves the result frozen, so View keeps serving the arena.
func referenceListing(r *csp.TraceResult, maxOnly bool, limit int) csp.TraceSetJSON {
	v := r.View()
	var all []csp.Trace
	v.Thaw().WalkDFS(func(path trace.T) bool {
		all = append(all, slices.Clone(path))
		return true
	}, nil, nil)
	slices.SortFunc(all, trace.T.Compare)
	if maxOnly {
		var maximal []csp.Trace
		for i, t := range all {
			if i+1 == len(all) || !t.IsPrefixOf(all[i+1]) {
				maximal = append(maximal, t)
			}
		}
		all = maximal
	}
	out := csp.TraceSetJSON{
		Engine:     r.Engine.String(),
		Traces:     []csp.TraceJSON{},
		Count:      v.Size(),
		MaxLen:     v.MaxLen(),
		Iterations: r.Iterations,
		Events:     r.Events,
	}
	if limit > 0 && len(all) > limit {
		all, out.Truncated = all[:limit], true
	}
	for _, t := range all {
		out.Traces = append(out.Traces, csp.EncodeTrace(t))
	}
	return out
}

// TestEncodeTraceSetMatchesReference pins the listing walk to the
// reference on every spec root, on both engines' sets, live and frozen,
// truncated or not, with and without max_only.
func TestEncodeTraceSetMatchesReference(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	opts := csp.Options{NatWidth: 2}
	engines := []csp.Engine{csp.EngineOp, csp.EngineDenote}

	type result struct {
		name string
		res  *csp.TraceResult
	}
	var results []result
	c1 := storeBackedCache(t, dir)
	for _, sr := range specRoots {
		mod, _, _, err := c1.Load(ctx, readSpec(t, sr.file), opts)
		if err != nil {
			t.Fatalf("%s: %v", sr.file, err)
		}
		p, err := mod.Proc(sr.proc)
		if err != nil {
			t.Fatalf("%s: %v", sr.file, err)
		}
		for _, e := range engines {
			res, err := mod.Traces(ctx, p, csp.EngineOptions{Engine: e, Depth: sr.depth})
			if err != nil {
				t.Fatalf("%s %v: %v", sr.file, e, err)
			}
			mod.StoreTraces(e, sr.depth, sr.proc, res)
			results = append(results, result{fmt.Sprintf("%s/%v/live", sr.proc, e), res})
		}
	}
	c2 := storeBackedCache(t, dir)
	for _, sr := range specRoots {
		mod, _, hit, err := c2.Load(ctx, readSpec(t, sr.file), opts)
		if err != nil || !hit {
			t.Fatalf("%s reload: hit %v, %v", sr.file, hit, err)
		}
		for _, e := range engines {
			res, ok := mod.CachedTraces(e, sr.depth, sr.proc)
			if !ok || res.Set != nil {
				t.Fatalf("%s %v: no frozen result after the store hit", sr.file, e)
			}
			results = append(results, result{fmt.Sprintf("%s/%v/frozen", sr.proc, e), res})
		}
	}

	for _, r := range results {
		for _, limit := range []int{0, 1, 7, 64} {
			for _, maxOnly := range []bool{false, true} {
				got, err := json.Marshal(csp.EncodeTraceSet(r.res, maxOnly, limit))
				if err != nil {
					t.Fatal(err)
				}
				want, err := json.Marshal(referenceListing(r.res, maxOnly, limit))
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(want) {
					t.Errorf("%s limit %d max_only %v:\n got %s\nwant %s", r.name, limit, maxOnly, got, want)
				}
			}
		}
	}
}

// TestEncodeTraceSetAllocs bounds the listing's allocations: about one per
// member for a full listing (the multiplier's bound was 12,391 when every
// member was copied out, sorted and rendered again), a walk that stops at
// its limit on a set too large to list, and limit-1 listings no costlier
// than before the walk listed in sorted order.
func TestEncodeTraceSetAllocs(t *testing.T) {
	ctx := context.Background()
	traces := func(file, proc string, depth int) *csp.TraceResult {
		mod, err := csp.Load(ctx, readSpec(t, file), csp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		p, err := mod.Proc(proc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := mod.Traces(ctx, p, csp.EngineOptions{Engine: csp.EngineOp, Depth: depth})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	multiplier := traces("multiplier.csp", "multiplier", 4)
	safe := traces("philosophers.csp", "safe", 30)
	if n := safe.View().Size(); n < 1e12 {
		t.Fatalf("philosophers safe at depth 30 has %d traces, want more than any listing could hold", n)
	}
	for _, g := range []struct {
		name    string
		res     *csp.TraceResult
		maxOnly bool
		limit   int
		bound   float64
	}{
		{"multiplier", multiplier, false, 10000, 2100},
		{"safe-30-limit-100", safe, false, 100, 150},
		{"safe-30-max-limit-100", safe, true, 100, 250},
		// The bounds below are what these listings allocated when the
		// listing was copied out of an id-order walk.
		{"multiplier-limit-1", multiplier, false, 1, 4},
		{"multiplier-max-limit-1", multiplier, true, 1, 15},
		{"safe-30-limit-1", safe, false, 1, 4},
		{"safe-30-max-limit-1", safe, true, 1, 44},
	} {
		got := testing.AllocsPerRun(20, func() { csp.EncodeTraceSet(g.res, g.maxOnly, g.limit) })
		if got > g.bound {
			t.Errorf("%s: %v allocations, want at most %v", g.name, got, g.bound)
		}
	}
}
