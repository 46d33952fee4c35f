package csp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"cspsat/internal/assertion"
	"cspsat/internal/proof"
	"cspsat/internal/store"
	"cspsat/internal/syntax"
)

// TestArtifactBytesDependOnResultsOnly records the same results, in
// opposite orders, on two modules of one source. Their artifacts must
// encode to the same bytes, the artifact must rehydrate into a module that
// answers every Cached* with the stored value, and each such hit must not
// allocate: the hot path makes one per request.
func TestArtifactBytesDependOnResultsOnly(t *testing.T) {
	ctx := context.Background()
	src := "vend = coin?x:{0..1} -> choc!x -> vend\nflaky = vend |~| STOP\nassert vend sat choc <= coin\n"
	mod, err := Load(ctx, src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	vend, err := mod.Proc("vend")
	if err != nil {
		t.Fatal(err)
	}
	flaky, err := mod.Proc("flaky")
	if err != nil {
		t.Fatal(err)
	}
	traces := map[Engine]*TraceResult{}
	for _, e := range []Engine{EngineOp, EngineDenote} {
		if traces[e], err = mod.Traces(ctx, vend, EngineOptions{Engine: e, Depth: 4}); err != nil {
			t.Fatal(err)
		}
	}
	asserts, err := mod.CheckAll(ctx, CheckOptions{Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	check := EncodeAssertResults(asserts)
	proves, err := mod.ProveAsserts(ctx, CheckOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	prove := EncodeProveResults(proves)
	refines := map[Model]RefineResultJSON{}
	for _, mdl := range KnownModels() {
		r, err := mod.Refine(ctx, flaky, vend, CheckOptions{Model: mdl, Depth: 4})
		if err != nil {
			t.Fatal(err)
		}
		refines[mdl] = EncodeRefineResult(r.RefineResult)
	}

	record := []func(m *Module){
		func(m *Module) { m.StoreTraces(EngineOp, 4, "vend", traces[EngineOp]) },
		func(m *Module) { m.StoreTraces(EngineDenote, 4, "vend", traces[EngineDenote]) },
		func(m *Module) { m.StoreCheck(4, check) },
		func(m *Module) { m.StoreProve(3, prove) },
		func(m *Module) { m.StoreRefine(ModelTraces, 4, "flaky", "vend", refines[ModelTraces]) },
		func(m *Module) { m.StoreRefine(ModelFailures, 4, "flaky", "vend", refines[ModelFailures]) },
	}
	var encoded [2][]byte
	for i := range encoded {
		m, err := Load(ctx, src, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for j := range record {
			if i == 0 {
				record[j](m)
			} else {
				record[len(record)-1-j](m)
			}
		}
		art, err := m.buildArtifact(SourceHash(src, Options{}), 1754000000)
		if err != nil {
			t.Fatal(err)
		}
		encoded[i] = store.Encode(art)
	}
	if !bytes.Equal(encoded[0], encoded[1]) {
		t.Fatalf("one result set encoded to two artifacts (%d and %d bytes)", len(encoded[0]), len(encoded[1]))
	}

	art, err := store.Decode(encoded[0])
	if err != nil {
		t.Fatal(err)
	}
	warm, err := moduleFromArtifact(art)
	if err != nil {
		t.Fatal(err)
	}
	sameJSON := func(what string, got, want any) {
		t.Helper()
		g, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		w, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s: rehydrated %s, stored %s", what, g, w)
		}
	}
	for e, want := range traces {
		got, ok := warm.CachedTraces(e, 4, "vend")
		if !ok {
			t.Fatalf("CachedTraces(%s) missed", e)
		}
		sameJSON("CachedTraces "+e.String(), EncodeTraceSet(got, false, 0), EncodeTraceSet(want, false, 0))
	}
	got, ok := warm.CachedCheck(4)
	if !ok {
		t.Fatal("CachedCheck missed")
	}
	sameJSON("CachedCheck", got, check)
	gotProve, ok := warm.CachedProve(3)
	if !ok {
		t.Fatal("CachedProve missed")
	}
	sameJSON("CachedProve", gotProve, prove)
	for mdl, want := range refines {
		got, ok := warm.CachedRefine(mdl, 4, "flaky", "vend")
		if !ok {
			t.Fatalf("CachedRefine(%s) missed", mdl)
		}
		sameJSON("CachedRefine "+mdl.String(), got, want)
	}

	for what, hit := range map[string]func(){
		"CachedTraces": func() { warm.CachedTraces(EngineDenote, 4, "vend") },
		"CachedCheck":  func() { warm.CachedCheck(4) },
		"CachedProve":  func() { warm.CachedProve(3) },
		"CachedRefine": func() { warm.CachedRefine(ModelFailures, 4, "flaky", "vend") },
	} {
		if n := testing.AllocsPerRun(100, hit); n != 0 {
			t.Errorf("%s hit: %v allocs, want 0", what, n)
		}
	}
}

// TestStoreHitSkipsParse is the white-box half of the warm-boot claim: a
// module rehydrated from the store must not parse its source until an
// engine actually needs the AST — served-from-cache requests never touch
// the parser or the denoters.
func TestStoreHitSkipsParse(t *testing.T) {
	ctx := context.Background()
	opts := Options{NatWidth: 2}
	src := "p = a!0 -> a!1 -> p\n"

	c1 := NewModuleCache(8)
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c1.SetStore(st, t.Logf)
	mod, _, _, err := c1.Load(ctx, src, opts)
	if err != nil {
		t.Fatal(err)
	}
	p, err := mod.Proc("p")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := mod.Traces(ctx, p, EngineOptions{Engine: EngineOp, Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	mod.StoreTraces(EngineOp, 4, "p", tr)

	c2 := NewModuleCache(8)
	c2.SetStore(st, t.Logf)
	mod2, _, hit, err := c2.Load(ctx, src, opts)
	if err != nil || !hit {
		t.Fatalf("reload: hit=%v err=%v", hit, err)
	}
	if mod2.syn != nil {
		t.Fatalf("store hit parsed the source eagerly")
	}
	if _, ok := mod2.CachedTraces(EngineOp, 4, "p"); !ok {
		t.Fatalf("cached traces missing after store hit")
	}
	if mod2.syn != nil {
		t.Fatalf("CachedTraces forced a parse")
	}
	// An engine request beyond the precomputed results forces the lazy
	// parse, transparently.
	if _, err := mod2.Proc("p"); err != nil {
		t.Fatal(err)
	}
	if mod2.syn == nil {
		t.Fatalf("Proc did not force the parse")
	}
}

// TestDeferredParseError covers a module rehydrated from the store whose
// source no longer parses (the grammar drifted since the artifact was
// written): every method that returns an error must return ErrParse, not
// dereference the missing AST.
func TestDeferredParseError(t *testing.T) {
	ctx := context.Background()
	p := syntax.Ref{Name: "p"}
	a := assertion.True()
	cases := []struct {
		name string
		call func(m *Module) error
	}{
		{"Proc", func(m *Module) error { _, err := m.Proc("p"); return err }},
		{"ProcIdx", func(m *Module) error { _, err := m.ProcIdx("p", 0); return err }},
		{"Traces", func(m *Module) error { _, err := m.Traces(ctx, p, EngineOptions{}); return err }},
		{"Run", func(m *Module) error { _, err := m.Run(ctx, p, EngineOptions{}); return err }},
		{"DotLTS", func(m *Module) error { _, err := m.DotLTS(p, 2); return err }},
		{"Sat", func(m *Module) error { _, err := m.Sat(ctx, p, a, CheckOptions{}); return err }},
		{"Refines", func(m *Module) error { _, err := m.Refines(ctx, p, p, CheckOptions{}); return err }},
		{"Refine", func(m *Module) error { _, err := m.Refine(ctx, p, p, CheckOptions{}); return err }},
		{"Deadlocks", func(m *Module) error { _, err := m.Deadlocks(ctx, p, CheckOptions{}); return err }},
		{"CheckAll", func(m *Module) error { _, err := m.CheckAll(ctx, CheckOptions{}); return err }},
		{"Check", func(m *Module) error {
			_, err := m.Check(ctx, proof.Triviality{P: p, T: a}, CheckOptions{})
			return err
		}},
		{"CheckBatch", func(m *Module) error {
			_, err := m.CheckBatch(ctx, []Obligation{{Name: "t", Proof: proof.Triviality{P: p, T: a}}}, CheckOptions{})
			return err
		}},
		{"Failures", func(m *Module) error { _, err := m.Failures(ctx, p, EngineOptions{}); return err }},
		{"Diverges", func(m *Module) error { _, _, err := m.Diverges(ctx, p, EngineOptions{}); return err }},
		{"ProveAsserts", func(m *Module) error { _, err := m.ProveAsserts(ctx, CheckOptions{}, nil); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panicked: %v", r)
					}
				}()
				err = tc.call(newDeferred("p = ???", Options{}))
			}()
			if !errors.Is(err, ErrParse) {
				t.Fatalf("err = %v, want ErrParse", err)
			}
		})
	}
}
