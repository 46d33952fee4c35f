// Nondeterminism: the paper's §4 self-criticism, made executable — and the
// conclusion's hoped-for fix, implemented.
//
// The paper admits two defects of its model:
//
//  1. partial correctness cannot see deadlock (STOP satisfies everything);
//  2. the prefix-closure model identifies STOP | P with P, so genuine
//     (internal, time-dependent) non-determinism is unrepresentable.
//
// This example shows both defects live in the trace model, then switches to
// the stable-failures model — the "more realistic model of non-determinism"
// the conclusion calls for — where internal choice (written |~|) becomes
// observable through refusals and deadlock potential is a checkable
// property.
package main

import (
	"context"
	"fmt"
	"log"

	"cspsat/internal/trace"
	"cspsat/internal/value"
	"cspsat/pkg/csp"
)

const spec = `
copier = input?x:NAT -> wire!x -> copier

-- The paper's §4 example: "a process Q which may non-deterministically
-- decide on a path that leads to deadlock, or may decide to behave like
-- the process P". In the paper's model, Q = STOP | P "is identically
-- equal to P". With internal choice the distinction is expressible:
flaky  = STOP |~| copier
merged = STOP | copier
`

func main() {
	ctx := context.Background()
	mod, err := csp.Load(ctx, spec, csp.Options{NatWidth: 2})
	if err != nil {
		log.Fatal(err)
	}
	copier, _ := mod.Proc("copier")
	flaky, _ := mod.Proc("flaky")
	merged, _ := mod.Proc("merged")
	const depth = 4

	// --- defect 1+2 in the trace model ---
	ck := mod.Checker(ctx, csp.CheckOptions{Depth: depth})
	eq1, err := ck.Equivalent(merged, copier)
	if err != nil {
		log.Fatal(err)
	}
	eq2, err := ck.Equivalent(flaky, copier)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("trace model (the paper's §3):")
	fmt.Printf("  STOP |  copier = copier ?  %v\n", eq1.OK)
	fmt.Printf("  STOP |~| copier = copier ?  %v   <- the §4 defect: even internal\n", eq2.OK)
	fmt.Println("                                      choice of deadlock is invisible")

	// --- the failures model tells them apart ---
	fopts := csp.EngineOptions{Depth: depth}
	mc, err := mod.Failures(ctx, copier, fopts)
	if err != nil {
		log.Fatal(err)
	}
	mf, err := mod.Failures(ctx, flaky, fopts)
	if err != nil {
		log.Fatal(err)
	}
	mm, err := mod.Failures(ctx, merged, fopts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nstable-failures model (the conclusion's hoped-for extension):")
	cex, err := csp.FailuresEquivalent(mm, mc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  STOP |  copier ≡F copier ?  %v   (external choice: STOP adds nothing)\n", cex == nil)
	cex, err = csp.FailuresEquivalent(mf, mc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  STOP |~| copier ≡F copier ?  %v\n", cex == nil)
	if cex != nil {
		fmt.Printf("      distinguished: %s\n", cex)
	}

	allInputs := []trace.Event{
		{Chan: "input", Msg: value.Int(0)},
		{Chan: "input", Msg: value.Int(1)},
	}
	fmt.Printf("  flaky may refuse every input initially: %v\n", mf.Refuses(nil, allInputs))
	fmt.Printf("  copier may refuse every input initially: %v\n", mc.Refuses(nil, allInputs))
	if tr, can := mf.CanDeadlock(); can {
		fmt.Printf("  flaky can deadlock (after %s); ", tr)
	}
	if _, can := mc.CanDeadlock(); !can {
		fmt.Println("copier cannot — now the model can say so")
	}
}
