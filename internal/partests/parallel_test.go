// Package partests holds the cross-engine and concurrency test layer:
// differential tests pinning the op and denote engines to each other on
// every spec root, and both to brute-force references, by canonical
// pointer identity (Same, not just set equality) where the engines agree
// exactly; a reuse test on the explorer's state table and memo; assert
// and proof batches across a worker pool against their serial runs;
// cancellation tests asserting prompt return without shard corruption;
// and a hammer test on the lock-striped intern tables themselves. Run
// with -race; CI does.
package partests

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"cspsat/internal/assertion"
	"cspsat/internal/closure"
	"cspsat/internal/csperr"
	"cspsat/internal/op"
	"cspsat/internal/proof"
	"cspsat/internal/syntax"
	"cspsat/internal/trace"
	"cspsat/internal/value"
	"cspsat/pkg/csp"
)

// specRoots names, for each of the repo's seven specs, the processes whose
// trace sets the differential tests compare across engines.
var specRoots = []struct {
	file  string
	roots []string
	depth int
}{
	{"copier.csp", []string{"copier", "copysys"}, 7},
	{"protocol.csp", []string{"protocol"}, 6},
	{"multiplier.csp", []string{"multiplier"}, 5},
	{"buffers.csp", []string{"buf1", "buf2"}, 6},
	{"philosophers.csp", []string{"deadlocking", "safe"}, 5},
	{"tokenring.csp", []string{"sys"}, 6},
	{"nondet.csp", []string{"vend", "flaky"}, 6},
}

func loadSpec(t testing.TB, name string) *csp.Module {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "specs", name))
	if err != nil {
		t.Fatalf("reading %s: %v", name, err)
	}
	mod, err := csp.Load(context.Background(), string(data), csp.Options{NatWidth: 2})
	if err != nil {
		t.Fatalf("loading %s: %v", name, err)
	}
	return mod
}

// TestExplorerReuse uses one explorer for three calls, so the later calls
// read the state table and the memo the earlier ones filled: Traces of
// the philosophers' safe network, again at a greater depth, and Traces of
// the deadlocking network. Each result must be the same canonical node as
// a fresh explorer's.
func TestExplorerReuse(t *testing.T) {
	mod := loadSpec(t, "philosophers.csp")
	env := mod.Env()
	x := op.NewExplorer()
	for _, c := range []struct {
		root  string
		depth int
	}{
		{"safe", 5},
		{"safe", 6},
		{"deadlocking", 5},
	} {
		p, err := mod.Proc(c.root)
		if err != nil {
			t.Fatal(err)
		}
		want, err := op.NewExplorer().Traces(op.NewState(p, env), c.depth)
		if err != nil {
			t.Fatal(err)
		}
		got, err := x.Traces(op.NewState(p, env), c.depth)
		if err != nil {
			t.Fatalf("%s depth %d: %v", c.root, c.depth, err)
		}
		if !want.Same(got) {
			t.Fatalf("%s depth %d: reused explorer returned a different canonical node than a fresh one (Equal=%v)",
				c.root, c.depth, want.Equal(got))
		}
	}
}

// TestCrossEngineAgreement pins the denote engine to the op engine on
// every spec root: the denotation never holds a trace the explorer does
// not, and outside sem.Denoter's two documented caveats the two are the
// same canonical node. The caveats are multiplier, whose partial sums
// leave the NAT sample (87 denoted against 95 explored traces at depth 3),
// and both philosophers roots, whose hidden chatter outruns the hiding
// slack (13 against 121 at depth 4). The literal chain materialises
// pre-hiding sets, so the three widest specs run shallower.
func TestCrossEngineAgreement(t *testing.T) {
	depths := map[string]int{"multiplier.csp": 3, "tokenring.csp": 4, "philosophers.csp": 4}
	caveats := map[string]bool{"multiplier.csp": true, "philosophers.csp": true}
	for _, s := range specRoots {
		mod := loadSpec(t, s.file)
		depth := s.depth
		if d, ok := depths[s.file]; ok {
			depth = d
		}
		for _, root := range s.roots {
			t.Run(s.file+"/"+root, func(t *testing.T) {
				p, err := mod.Proc(root)
				if err != nil {
					t.Fatal(err)
				}
				o, err := mod.Traces(context.Background(), p, csp.EngineOptions{Engine: csp.EngineOp, Depth: depth})
				if err != nil {
					t.Fatal(err)
				}
				d, err := mod.Traces(context.Background(), p, csp.EngineOptions{Engine: csp.EngineDenote, Depth: depth})
				if err != nil {
					t.Fatal(err)
				}
				if !d.Set.SubsetOf(o.Set) {
					t.Fatalf("depth %d: denote holds %v, which op does not", depth, d.Set.FirstNotIn(o.Set))
				}
				if !caveats[s.file] && !o.Set.Same(d.Set) {
					t.Fatalf("depth %d: op and denote disagree (%d vs %d traces, Equal=%v)",
						depth, o.Set.Size(), d.Set.Size(), o.Set.Equal(d.Set))
				}
			})
		}
	}
}

// TestCancellationPrompt checks that a canceled context aborts exploration
// with an error wrapping both ErrCanceled and the caller's cause, and —
// the shard-corruption half — that the very same computation still
// produces the canonical answer afterwards: a torn intern table would
// surface as a Same failure or a race report.
func TestCancellationPrompt(t *testing.T) {
	mod := loadSpec(t, "tokenring.csp")
	p, err := mod.Proc("sys")
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := mod.Traces(context.Background(), p, csp.EngineOptions{Depth: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Both engines run on the calling goroutine whatever the worker
	// setting, so the workers=4 run repeats the workers=1 run.
	for _, workers := range []int{1, 4} {
		for _, engine := range []csp.Engine{csp.EngineOp, csp.EngineDenote} {
			t.Run(fmt.Sprintf("%v/workers=%d", engine, workers), func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				cancel() // canceled before the engine starts: must not explore at all
				_, err := mod.Traces(ctx, p, csp.EngineOptions{Engine: engine, Depth: 6})
				if err == nil {
					t.Fatal("canceled context: want error, got result")
				}
				if !errors.Is(err, csperr.ErrCanceled) || !errors.Is(err, csp.ErrCanceled) {
					t.Fatalf("error does not wrap ErrCanceled: %v", err)
				}
			})
		}
	}
	// The shards took concurrent writes from the runs above; the canonical
	// answer must be unchanged.
	after, err := mod.Traces(context.Background(), p, csp.EngineOptions{Depth: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !baseline.Set.Same(after.Set) {
		t.Fatal("canonical node changed after canceled runs — shard state corrupted")
	}
}

// TestCheckAllParallel compares assert checking across a pool with the
// serial path on every spec carrying asserts.
func TestCheckAllParallel(t *testing.T) {
	for _, s := range specRoots {
		mod := loadSpec(t, s.file)
		if len(mod.Asserts()) == 0 {
			continue
		}
		t.Run(s.file, func(t *testing.T) {
			serial, err := mod.CheckAll(context.Background(), csp.CheckOptions{Depth: 5})
			if err != nil {
				t.Fatal(err)
			}
			par, err := mod.CheckAll(context.Background(), csp.CheckOptions{Depth: 5, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if len(serial) != len(par) {
				t.Fatalf("result count differs: %d vs %d", len(serial), len(par))
			}
			for i := range serial {
				if serial[i].OK() != par[i].OK() {
					t.Errorf("assert %d: serial OK=%v, parallel OK=%v", i, serial[i].OK(), par[i].OK())
				}
			}
		})
	}
}

// TestBatchProofChecking runs the copier system's machine proofs as a
// batch across workers and checks the outcomes match sequential checking,
// including the counter of discharged obligations.
func TestBatchProofChecking(t *testing.T) {
	mod := loadSpec(t, "copier.csp") // the spec parse only supplies the env shape
	prover := mod.Prover(context.Background(), csp.CheckOptions{})
	obs := make([]csp.Obligation, 8)
	for i := range obs {
		obs[i] = csp.Obligation{Name: fmt.Sprintf("triv-%d", i), Proof: proof.Triviality{P: syntax.Stop{}, T: assertion.True()}}
	}
	want := make([]csp.Claim, len(obs))
	for i, ob := range obs {
		cl, err := prover.Check(ob.Proof)
		if err != nil {
			t.Fatalf("sequential %s: %v", ob.Name, err)
		}
		want[i] = cl
	}
	got, err := mod.CheckBatch(context.Background(), obs, csp.CheckOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		if r.Err != nil {
			t.Fatalf("batch %s: %v", r.Name, r.Err)
		}
		if r.Claim.String() != want[i].String() {
			t.Errorf("batch %s: claim %s, want %s", r.Name, r.Claim, want[i])
		}
	}
}

// TestShardHammer drives many goroutines through identical closure-layer
// constructions simultaneously. Global canonicality demands every
// goroutine receive the *same pointers*; the race detector additionally
// verifies the striped locking publishes nodes safely.
func TestShardHammer(t *testing.T) {
	build := func() *closure.Set {
		evs := []trace.Event{
			{Chan: "a", Msg: value.Int(0)},
			{Chan: "b", Msg: value.Int(1)},
			{Chan: "c", Msg: value.Int(2)},
		}
		s := closure.Stop()
		for d := 0; d < 5; d++ {
			branches := make([]*closure.Set, 0, len(evs))
			for _, ev := range evs {
				branches = append(branches, closure.Prefix(ev, s))
			}
			s = closure.UnionAll(branches...)
		}
		return s
	}
	const goroutines = 16
	results := make([]*closure.Set, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = build()
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if !results[0].Same(results[g]) {
			t.Fatalf("goroutine %d interned a different canonical node", g)
		}
	}
}
