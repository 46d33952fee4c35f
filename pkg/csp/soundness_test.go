package csp_test

import (
	"context"
	"fmt"
	"math/rand"
	"regexp"
	"slices"
	"strings"
	"testing"

	"cspsat/internal/gen"
	"cspsat/internal/syntax"
	"cspsat/pkg/csp"
)

// commChan matches a channel a module's source text communicates on.
var commChan = regexp.MustCompile(`\b([a-z]\w*)[!?]`)

// TestSoundnessOnGeneratedModules is the soundness theorem of §3.4 as a
// property: on generated modules, every claim the prover proves holds in
// the model checker. Claims come from a small grammar, c <= d and
// #c <= #d + k with k ∈ {0, 1}, about each definition, over channels read
// off the source text rather than the parser's census, so a channel the
// census misses shows up as a claim that does not check.
func TestSoundnessOnGeneratedModules(t *testing.T) {
	ctx := context.Background()
	proved := 0
	for seed := int64(0); seed < 400; seed++ {
		r := rand.New(rand.NewSource(seed))
		m, main := gen.Module(r, gen.Config{MaxDepth: 3, Defs: 2, AllowPar: seed%2 == 0})
		m.MustDefine(syntax.Def{Name: "main", Body: main})
		src := m.String()
		var chans []string
		for _, sm := range commChan.FindAllStringSubmatch(src, -1) {
			if !slices.Contains(chans, sm[1]) {
				chans = append(chans, sm[1])
			}
		}
		if len(chans) == 0 {
			continue
		}
		var sb strings.Builder
		sb.WriteString(src)
		names := m.Names()
		for range 3 {
			p, c, d := names[r.Intn(len(names))], chans[r.Intn(len(chans))], chans[r.Intn(len(chans))]
			if r.Intn(2) == 0 {
				fmt.Fprintf(&sb, "assert %s sat %s <= %s\n", p, c, d)
			} else {
				fmt.Fprintf(&sb, "assert %s sat #%s <= #%s + %d\n", p, c, d, r.Intn(2))
			}
		}
		mod, err := csp.Load(ctx, sb.String(), csp.Options{})
		if err != nil {
			t.Errorf("seed %d: %v\n%s", seed, err, sb.String())
			continue
		}
		checked, err := mod.CheckAll(ctx, csp.CheckOptions{Depth: 4})
		if err != nil {
			t.Errorf("seed %d: CheckAll: %v\n%s", seed, err, sb.String())
			continue
		}
		holds := map[string]bool{}
		for _, c := range checked {
			holds[c.Decl.String()] = c.OK()
		}
		results, err := mod.ProveAsserts(ctx, csp.CheckOptions{}, nil)
		if err != nil {
			t.Fatalf("seed %d: ProveAsserts: %v", seed, err)
		}
		for _, pr := range results {
			if !pr.OK {
				continue
			}
			proved++
			if !holds[pr.Decl] {
				t.Errorf("seed %d: proved %s, which the model checker refutes:\n%s", seed, pr.Decl, sb.String())
			}
		}
	}
	t.Logf("%d claims proved", proved)
}
