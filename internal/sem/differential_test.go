package sem_test

// Differential testing of the three engines on randomly generated
// processes: the literal denotational semantics (this package), the
// exhaustive operational explorer (internal/op), and the scheduled
// executor (internal/runtime). The paper's consistency claim, fuzzed:
// up to the depth bound the denotational and operational trace sets
// coincide, and every trace an actual scheduled run can produce lies in
// the denotation.
//
// Batches are structured around the two documented approximation caveats
// of the Denoter (see denote.go): hide-free terms admit a strict equality
// check; terms with hiding are checked in the direction that must hold
// unconditionally (denotational ⊆ operational) plus runtime containment
// with a chatter budget inside the hide slack.

import (
	"context"
	"math/rand"
	"strconv"
	"testing"

	"cspsat/internal/closure"
	"cspsat/internal/gen"
	"cspsat/internal/op"
	"cspsat/internal/runtime"
	"cspsat/internal/sem"
	"cspsat/internal/syntax"
)

const (
	diffDepth = 3 // trace-length window for the engine comparison
	runSeeds  = 3 // scheduled runs per generated process
)

// denoteBoth computes the denotational and operational sets at diffDepth,
// failing the test on evaluation errors (generated terms are closed and
// guarded, so every engine must terminate on them).
func denoteBoth(t *testing.T, label string, m *syntax.Module, main syntax.Proc) (*closure.Set, *closure.Set, sem.Env) {
	t.Helper()
	env := sem.NewEnv(m, 2)
	den, err := sem.Denote(main, env, diffDepth)
	if err != nil {
		t.Fatalf("%s: denote: %v\nmodule:\n%s", label, err, m)
	}
	ops, err := op.Traces(main, env, diffDepth)
	if err != nil {
		t.Fatalf("%s: op: %v\nmodule:\n%s", label, err, m)
	}
	return den, ops, env
}

// checkRuntimeContained executes the process under the scheduler with a
// few seeds and asserts the visible trace of every run is in the
// denotation. MaxEvents counts hidden events too, so the total chatter of
// a run is bounded by the window and stays inside the denoter's hide
// slack — the containment is exact, not best-effort.
func checkRuntimeContained(t *testing.T, label string, den *closure.Set, main syntax.Proc, env sem.Env, m *syntax.Module) {
	t.Helper()
	for seed := int64(0); seed < runSeeds; seed++ {
		res, err := runtime.Run(context.Background(), main, runtime.Config{Env: env, Seed: seed, MaxEvents: diffDepth})
		if err != nil {
			t.Fatalf("%s seed %d: run: %v\nmodule:\n%s", label, seed, err, m)
		}
		if !den.Contains(res.Trace) {
			t.Errorf("%s seed %d: scheduled run produced %v, not in the denotation %v\nmodule:\n%s",
				label, seed, res.Trace, den, m)
		}
	}
}

// TestDifferentialSequential: 200+ random sequential hide-free terms; the
// denotational and operational sets must be identical, and scheduled runs
// must land inside them.
func TestDifferentialSequential(t *testing.T) {
	r := rand.New(rand.NewSource(201))
	for i := 0; i < 220; i++ {
		m, main := gen.Module(r, gen.Config{MaxDepth: 4, Defs: 2})
		label := "seq/" + strconv.Itoa(i)
		den, ops, env := denoteBoth(t, label, m, main)
		if !den.Equal(ops) {
			t.Fatalf("%s: engines disagree\n den-only: %v\n op-only:  %v\nmodule:\n%s",
				label, den.FirstNotIn(ops), ops.FirstNotIn(den), m)
		}
		checkRuntimeContained(t, label, den, main, env, m)
	}
}

// TestDifferentialParallel: random terms with parallel composition but no
// hiding. Both engines are exact here (no chatter, and the value sample
// covers every literal the generator can emit), so equality is still the
// required outcome.
func TestDifferentialParallel(t *testing.T) {
	r := rand.New(rand.NewSource(202))
	for i := 0; i < 100; i++ {
		m, main := gen.Module(r, gen.Config{MaxDepth: 4, AllowPar: true})
		label := "par/" + strconv.Itoa(i)
		den, ops, env := denoteBoth(t, label, m, main)
		if !den.Equal(ops) {
			t.Fatalf("%s: engines disagree\n den-only: %v\n op-only:  %v\nmodule:\n%s",
				label, den.FirstNotIn(ops), ops.FirstNotIn(den), m)
		}
		checkRuntimeContained(t, label, den, main, env, m)
	}
}

// TestDifferentialHiding: random terms with hiding (and parallelism). The
// denoter's hide slack makes it potentially incomplete for chatter-heavy
// paths, so the unconditional direction is soundness: everything the
// denotational engine claims must be operationally realisable. Scheduled
// runs bound their chatter by MaxEvents ≤ slack, so their containment in
// the denotation is also unconditional.
func TestDifferentialHiding(t *testing.T) {
	r := rand.New(rand.NewSource(203))
	exact := 0
	for i := 0; i < 100; i++ {
		m, main := gen.Module(r, gen.Config{MaxDepth: 4, AllowPar: true, AllowHide: true})
		label := "hide/" + strconv.Itoa(i)
		den, ops, env := denoteBoth(t, label, m, main)
		if w := den.FirstNotIn(ops); w != nil {
			t.Fatalf("%s: denotational trace %v is not operationally realisable\nmodule:\n%s", label, w, m)
		}
		if den.Equal(ops) {
			exact++
		}
		checkRuntimeContained(t, label, den, main, env, m)
	}
	// The slack default covers ordinary terms; if almost none compare
	// exactly equal the slack (or the denoter) has regressed.
	if exact < 80 {
		t.Errorf("only %d/100 hiding terms denoted exactly; hide slack regressed?", exact)
	}
}

// TestDifferentialRuntimeDeterminism: equal seeds must reproduce equal
// traces — the property that makes the runtime usable as a differential
// witness at all.
func TestDifferentialRuntimeDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(204))
	for i := 0; i < 40; i++ {
		m, main := gen.Module(r, gen.Config{MaxDepth: 4, AllowPar: true})
		env := sem.NewEnv(m, 2)
		a, err := runtime.Run(context.Background(), main, runtime.Config{Env: env, Seed: 7, MaxEvents: 6})
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		b, err := runtime.Run(context.Background(), main, runtime.Config{Env: env, Seed: 7, MaxEvents: 6})
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		if !a.Trace.Equal(b.Trace) {
			t.Fatalf("iter %d: equal seeds diverged: %v vs %v\nmodule:\n%s", i, a.Trace, b.Trace, m)
		}
	}
}
