package csp

import (
	"context"
	"errors"
	"testing"

	"cspsat/internal/assertion"
	"cspsat/internal/proof"
	"cspsat/internal/syntax"
)

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
