// Differential property tests for the semantic-model axis: on random
// generated terms, stable-failures refinement must imply trace refinement
// (the model hierarchy ⊑F ⊆ ⊑T) and never the converse, and the paper's
// §4 separation — STOP |~| P is trace-equivalent to P yet fails failures
// refinement against it — must hold on every communicating P. The failures
// models of each pair are computed concurrently, so -race additionally
// checks the explorer's shared intern tables under failures-model load.
package partests

import (
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"cspsat/internal/failures"
	"cspsat/internal/gen"
	"cspsat/internal/op"
	"cspsat/internal/sem"
	"cspsat/internal/syntax"
)

const hierarchyDepth = 3

// computePair builds the failures models of impl and spec concurrently in
// the shared env — the -race half of the test — failing on engine errors
// (generated terms are closed and guarded, so both computations terminate).
func computePair(t *testing.T, label string, impl, spec syntax.Proc, env sem.Env) (*failures.Model, *failures.Model) {
	t.Helper()
	var (
		wg     sync.WaitGroup
		fi, fs *failures.Model
		ei, es error
	)
	wg.Add(2)
	go func() { defer wg.Done(); fi, ei = failures.Compute(impl, env, hierarchyDepth) }()
	go func() { defer wg.Done(); fs, es = failures.Compute(spec, env, hierarchyDepth) }()
	wg.Wait()
	if ei != nil || es != nil {
		t.Fatalf("%s: failures compute: impl=%v spec=%v", label, ei, es)
	}
	return fi, fs
}

// TestModelHierarchyRandom draws random (impl, spec) pairs — a generated
// term against syntactic weakenings of itself — and pins the hierarchy on
// each: whenever impl ⊑F spec holds, impl ⊑T spec must hold too. The
// converse must not be universal: the batch has to contain pairs that are
// trace-refinements but not failures-refinements (internal choice with
// STOP produces them), otherwise the two orders would not be separated and
// the failures backend would be vacuous.
func TestModelHierarchyRandom(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	strict := 0 // pairs with impl ⊑T spec but impl ⋢F spec
	for i := 0; i < 120; i++ {
		m, main := gen.Module(r, gen.Config{MaxDepth: 3, Defs: 2})
		env := sem.NewEnv(m, 2)
		spec := main
		var impl syntax.Proc
		switch r.Intn(4) {
		case 0:
			impl = spec
		case 1:
			impl = syntax.IChoice{L: spec, R: syntax.Stop{}}
		case 2:
			impl = syntax.Alt{L: spec, R: syntax.Stop{}}
		default:
			impl = syntax.IChoice{L: spec, R: spec}
		}
		label := "pair/" + strconv.Itoa(i)
		fi, fs := computePair(t, label, impl, spec, env)
		cex, err := failures.Refines(fi, fs)
		if err != nil {
			t.Fatalf("%s: refines: %v", label, err)
		}
		t.Run(label, func(t *testing.T) { diffRefines(t, impl, spec, env, hierarchyDepth, cex) })
		it, err := op.Traces(impl, env, hierarchyDepth)
		if err != nil {
			t.Fatalf("%s: op impl: %v", label, err)
		}
		st, err := op.Traces(spec, env, hierarchyDepth)
		if err != nil {
			t.Fatalf("%s: op spec: %v", label, err)
		}
		tracesOK := it.SubsetOf(st)
		if cex == nil && !tracesOK {
			t.Errorf("%s: failures refinement holds but trace refinement fails — hierarchy violated\nmodule:\n%s\nimpl: %s\nspec: %s",
				label, m, impl, spec)
		}
		if tracesOK && cex != nil {
			strict++
		}
	}
	if strict == 0 {
		t.Error("no pair separated the models: every trace refinement was also a failures refinement")
	}
}

// TestSeparationSection4 is the paper's §4 example as a universal law:
// for random P with at least one visible initial, STOP |~| P refines P in
// the trace model (their trace sets coincide) but not in the failures
// model, where the internal branch to STOP shows up as the empty
// acceptance after <>.
func TestSeparationSection4(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	for i := 0; i < 60; i++ {
		m, main := gen.Module(r, gen.Config{MaxDepth: 3, Defs: 2})
		env := sem.NewEnv(m, 2)
		// Guarantee a visible initial: prefix the generated term, so STOP
		// is never trace- (or failures-) equivalent to it.
		spec := syntax.Proc(syntax.Output{
			Ch:   syntax.ChanRef{Name: "a"},
			Val:  syntax.IntLit{Val: 0},
			Cont: main,
		})
		impl := syntax.IChoice{L: syntax.Stop{}, R: spec}
		label := "sep/" + strconv.Itoa(i)

		it, err := op.Traces(impl, env, hierarchyDepth)
		if err != nil {
			t.Fatalf("%s: op impl: %v", label, err)
		}
		st, err := op.Traces(spec, env, hierarchyDepth)
		if err != nil {
			t.Fatalf("%s: op spec: %v", label, err)
		}
		if !it.Same(st) {
			t.Fatalf("%s: STOP |~| P and P have different trace sets — internal choice leaked into the trace model\nmodule:\n%s", label, m)
		}

		fi, fs := computePair(t, label, impl, spec, env)
		cex, err := failures.Refines(fi, fs)
		if err != nil {
			t.Fatalf("%s: refines: %v", label, err)
		}
		if cex == nil {
			t.Fatalf("%s: STOP |~| P ⊑F P held — the failures model cannot see the internal STOP branch\nmodule:\n%s", label, m)
		}
		if len(cex.Trace) != 0 || cex.ImplAcceptance == nil || len(*cex.ImplAcceptance) != 0 {
			t.Errorf("%s: want the empty acceptance after <> as counterexample, got %s", label, cex)
		}
		// And the other direction of the hierarchy stays intact: P ⊑F
		// STOP |~| P does hold (spec's failures include impl's behaviours
		// plus the refusal), never the converse confusion.
		if back, err := failures.Refines(fs, fi); err != nil || back != nil {
			t.Errorf("%s: P ⊑F STOP |~| P should hold (err=%v, cex=%v)", label, err, back)
		}
	}
}
