package op

import (
	"context"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"cspsat/internal/gen"
	"cspsat/internal/parser"
	"cspsat/internal/sem"
	"cspsat/internal/syntax"
)

// specState returns the initial state of a spec root at nat 2.
func specState(t *testing.T, file, root string) State {
	t.Helper()
	src, err := os.ReadFile("../../specs/" + file)
	if err != nil {
		t.Fatal(err)
	}
	f, err := parser.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	return NewState(syntax.Ref{Name: root}, sem.NewEnv(f.Module, 2))
}

// explore runs the trace recursion and the walk on one explorer, so its
// table holds every state either meets.
func explore(t *testing.T, x *Explorer, s State, depth int) {
	t.Helper()
	if _, err := x.Traces(s, depth); err != nil {
		t.Fatal(err)
	}
	if _, err := x.Walk(context.Background(), s, depth, nil); err != nil {
		t.Fatal(err)
	}
}

// checkIdentity fails unless the table gives two states one id exactly
// when their String renderings are equal. Besides the states the
// explorations minted, it interns the target of every transition they
// stepped, followed or not.
func checkIdentity(t *testing.T, x *Explorer) {
	t.Helper()
	byKey := map[string]int{}
	for id := 0; id < len(x.states); id++ {
		rec := x.states[id]
		key := rec.state.Proc.String()
		if prev, ok := byKey[key]; ok {
			t.Fatalf("ids %d and %d both render as %s", prev, id, key)
		}
		byKey[key] = id
		if !rec.stepped {
			continue
		}
		for i, tr := range rec.trans {
			s := rec.conts[i](tr.Ev.Msg)
			if got := x.states[x.intern(s)].state.Proc.String(); got != s.Proc.String() {
				t.Fatalf("%s interned as the id of %s", s.Proc, got)
			}
		}
	}
}

var identityRoots = []struct {
	file  string
	roots []string
	depth int
}{
	{"copier.csp", []string{"copier", "copysys"}, 6},
	{"protocol.csp", []string{"protocol"}, 6},
	{"multiplier.csp", []string{"multiplier"}, 4},
	{"buffers.csp", []string{"buf1", "buf2"}, 6},
	{"philosophers.csp", []string{"deadlocking", "safe"}, 5},
	{"tokenring.csp", []string{"sys"}, 6},
	{"nondet.csp", []string{"vend", "flaky"}, 6},
}

// TestStateTableIdentity checks the structural key against the rendered
// one on every spec root and on generated terms with parallel
// composition and hiding.
func TestStateTableIdentity(t *testing.T) {
	for _, c := range identityRoots {
		for _, root := range c.roots {
			t.Run(c.file+"/"+root, func(t *testing.T) {
				var x Explorer
				explore(t, &x, specState(t, c.file, root), c.depth)
				checkIdentity(t, &x)
			})
		}
	}
	r := rand.New(rand.NewSource(20))
	for i := 0; i < 120; i++ {
		m, main := gen.Module(r, gen.Config{MaxDepth: 3, Defs: 2, AllowPar: true, AllowHide: true})
		t.Run("term/"+strconv.Itoa(i), func(t *testing.T) {
			x := Explorer{MaxTauStates: 256}
			if _, err := x.Traces(NewState(main, sem.NewEnv(m, 2)), 4); err != nil {
				t.Skipf("%s: %v", main, err)
			}
			checkIdentity(t, &x)
		})
	}
}

// TestInternWithOneHash makes every state collide. Interned under one
// hash, the states of an exploration keep the ids their own hashes gave
// them, in the same order, and interning them again, or render-equal
// copies built by a second exploration, returns the same ids.
func TestInternWithOneHash(t *testing.T) {
	s := specState(t, "philosophers.csp", "deadlocking")
	var first, second, collided Explorer
	explore(t, &first, s, 4)
	explore(t, &second, s, 4)
	if len(first.states) != len(second.states) {
		t.Fatalf("explorations minted %d and %d states", len(first.states), len(second.states))
	}
	for pass, table := range []*Explorer{&first, &first, &second} {
		for id, rec := range table.states {
			if got := collided.internHashed(rec.state, 0); got != uint32(id) {
				t.Fatalf("pass %d: state %d interned as %d under one hash", pass, id, got)
			}
		}
	}
	if len(collided.states) != len(first.states) {
		t.Fatalf("one hash gave %d ids to %d states", len(collided.states), len(first.states))
	}
}
