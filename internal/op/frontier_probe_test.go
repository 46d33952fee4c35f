package op_test

import (
	"context"
	"fmt"
	"os"
	"testing"

	"cspsat/internal/gen"
	"cspsat/internal/op"
	"cspsat/pkg/csp"
)

func TestFrontierSizes(t *testing.T) {
	if os.Getenv("FRONTIER_PROBE") == "" {
		t.Skip("probe disabled")
	}
	for _, spec := range []struct {
		file, root string
		depth      int
	}{
		{"../../specs/tokenring.csp", "sys", 6},
		{"../../specs/philosophers.csp", "safe", 5},
	} {
		mod, err := csp.LoadFile(context.Background(), spec.file, csp.Options{NatWidth: 2})
		if err != nil {
			t.Fatal(err)
		}
		probeRoot(t, mod, spec.root, spec.depth)
	}
	for _, spec := range []struct {
		name, src, root string
		depth           int
	}{
		{"phil4", gen.Philosophers(4), "safe", 9},
		{"ring8", gen.TokenRing(8), "sys", 8},
	} {
		mod, err := csp.Load(context.Background(), spec.src, csp.Options{NatWidth: 2})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "== %s\n", spec.name)
		probeRoot(t, mod, spec.root, spec.depth)
	}
}

func probeRoot(t *testing.T, mod *csp.Module, root string, depth int) {
	t.Helper()
	p, err := mod.Proc(root)
	if err != nil {
		t.Fatal(err)
	}
	op.SetFrontierProbe(func(level, n int) { fmt.Fprintf(os.Stderr, "%s level=%d n=%d\n", root, level, n) })
	defer op.SetFrontierProbe(nil)
	x := &op.Explorer{Workers: 8}
	if _, err := x.TracesContext(context.Background(), op.NewState(p, mod.Env()), depth); err != nil {
		t.Fatal(err)
	}
}
