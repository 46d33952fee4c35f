package sem_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"cspsat/internal/sem"
	"cspsat/internal/syntax"
	"cspsat/internal/trace"
	"cspsat/pkg/csp"
)

// TestEnvCacheBoundedByModule checks that the environment cache stops
// growing once a module's processes have been explored: after one
// warm-up, further failures-model checks of every spec's asserts, and
// failures models of every plain definition, add no entry. A composition
// with inferred alphabets used to add its freshly built alphabet lists on
// every step of its unstamped term, so every check grew the cache. The
// inline module substitutes its input into an enumeration and, through
// the composition's alphabets, into channel lists, which builds those
// lists anew on every step; they used to be cached per built slice.
func TestEnvCacheBoundedByModule(t *testing.T) {
	files, err := filepath.Glob("../../specs/*.csp")
	if err != nil || len(files) == 0 {
		t.Fatalf("no specs: %v", err)
	}
	type module struct{ name, src string }
	modules := []module{{"substituted-literals", "net = in?x:{0..2} -> (out!x -> STOP || out?y:{x} -> STOP)\n"}}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		modules = append(modules, module{filepath.Base(file), string(src)})
	}
	ctx := context.Background()
	for _, m := range modules {
		t.Run(m.name, func(t *testing.T) {
			mod, err := csp.Load(ctx, m.src, csp.Options{NatWidth: 3})
			if err != nil {
				t.Fatal(err)
			}
			var roots []csp.Proc
			for _, name := range mod.Syntax().Names() {
				if def, _ := mod.Syntax().Lookup(name); !def.IsArray() {
					roots = append(roots, def.Body)
				}
			}
			check := func() {
				if _, err := mod.CheckAll(ctx, csp.CheckOptions{Model: csp.ModelFailures, Depth: 4}); err != nil {
					t.Fatal(err)
				}
				for _, p := range roots {
					if _, err := mod.Failures(ctx, p, csp.EngineOptions{Depth: 4}); err != nil {
						t.Fatal(err)
					}
				}
			}
			check()
			warm := sem.CacheEntries(mod.Env())
			for i := 0; i < 3; i++ {
				check()
			}
			if got := sem.CacheEntries(mod.Env()); got != warm {
				t.Errorf("cache grew from %d to %d entries over three more checks", warm, got)
			}
		})
	}
}

// TestEnvCacheConcurrent resolves array instances and alphabets from
// several goroutines at once on a cold cache: each gets the one canonical
// alphabet list, and the same body for each instance. Then each evaluates
// a literal channel list and enumeration it built itself, and the cache
// keeps one entry for each content.
func TestEnvCacheConcurrent(t *testing.T) {
	mod, err := csp.LoadFile(context.Background(), "../../specs/philosophers.csp", csp.Options{NatWidth: 3})
	if err != nil {
		t.Fatal(err)
	}
	env := mod.Env()
	alphabet := trace.NewSet("takeL[0]", "putL[0]", "eat[0]")
	const goroutines = 8
	items := make([][]syntax.ChanItem, goroutines)
	bodies := make([][]syntax.Proc, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			items[g] = env.ChanItems(alphabet)
			for i := int64(0); i < 3; i++ {
				for _, name := range []string{"fork", "phil"} {
					body, err := env.Instantiate(syntax.Ref{Name: name, Sub: syntax.IntLit{Val: i}})
					if err != nil {
						t.Error(err)
						return
					}
					bodies[g] = append(bodies[g], body)
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if &items[g][0] != &items[0][0] {
			t.Errorf("goroutine %d got its own alphabet list", g)
		}
		for i, body := range bodies[g] {
			if !reflect.DeepEqual(body, bodies[0][i]) {
				t.Errorf("goroutine %d: instance %d is %s, goroutine 0 got %s", g, i, body, bodies[0][i])
			}
		}
	}
	if got := bodies[0][0].String(); got != "(takeL[0]?x:{0} -> putL[0]?y:{0} -> fork[0] | takeR[0]?x:{0} -> putR[0]?y:{0} -> fork[0])" {
		t.Errorf("fork[0] instantiates as %s", got)
	}

	before := sem.CacheEntries(env)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			list := []syntax.ChanItem{{Name: "eat", Sub: syntax.IntLit{Val: 0}}, {Name: "eat", Sub: syntax.IntLit{Val: 1}}}
			if _, err := env.EvalChanItems(list); err != nil {
				t.Error(err)
			}
			enum := syntax.EnumSet{Elems: []syntax.Expr{syntax.IntLit{Val: 0}, syntax.IntLit{Val: 2}}}
			if _, err := env.EvalSet(enum); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := sem.CacheEntries(env) - before; got != 2 {
		t.Errorf("%d goroutines evaluating equal literal lists added %d cache entries, want 2", goroutines, got)
	}
}
