package runtime_test

import (
	"context"
	"sync"
	"testing"

	"cspsat/internal/assertion"
	"cspsat/internal/paper"
	"cspsat/internal/runtime"
	"cspsat/internal/sem"
	"cspsat/internal/syntax"
	"cspsat/internal/trace"
	"cspsat/internal/value"
)

// TestBufferedChannelsViolateSynchrony is the correctness ablation behind
// the runtime's coordinator design (DESIGN.md §5): implementing the
// copier's wire as a *buffered* Go channel — the "obvious" translation —
// produces observable event orders that the paper's synchronous semantics
// forbids, while the coordinator-based runtime never does.
//
// The copier satisfies #input ≤ #wire + 1 (§2, E2): it cannot accept a
// second input before relaying the first, because wire!x is a rendezvous.
// With a buffered wire the producer races ahead and the invariant breaks
// at the very first extra input.
func TestBufferedChannelsViolateSynchrony(t *testing.T) {
	// --- naive translation: buffered Go channel as the wire ---
	const bufSize = 4
	wire := make(chan int64, bufSize)
	var mu sync.Mutex
	hist := make(trace.History)
	var violation *string
	record := func(c trace.Chan, v int64) {
		mu.Lock()
		defer mu.Unlock()
		hist[c] = append(hist[c], value.Int(v))
		if len(hist["input"]) > len(hist["wire"])+1 && violation == nil {
			s := hist.String()
			violation = &s
		}
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // copier: input?x -> wire!x -> copier
		defer wg.Done()
		for i := int64(0); i < bufSize+1; i++ {
			record("input", i%3) // the input "communication"
			wire <- i % 3        // buffered: completes without a partner
		}
		close(wire)
	}()
	go func() { // recopier: wire?y -> output!y -> recopier
		defer wg.Done()
		for v := range wire {
			record("wire", v)
			record("output", v)
		}
	}()
	wg.Wait()

	if violation == nil {
		t.Fatal("buffered wire never violated #input <= #wire + 1; the ablation's premise is wrong")
	}
	t.Logf("buffered-channel violation observed: %s", *violation)

	// --- the coordinator-based runtime: same network, invariant holds ---
	env := sem.NewEnv(paper.CopySystem(), 3)
	lenInv := assertion.Cmp{
		Op: assertion.CLe,
		L:  assertion.Len{S: assertion.Chan("input")},
		R: assertion.Arith{
			Op: assertion.AAdd,
			L:  assertion.Len{S: assertion.Chan("wire")},
			R:  assertion.Int(1),
		},
	}
	for seed := int64(0); seed < 5; seed++ {
		res, err := runtime.Run(context.Background(), syntax.Ref{Name: paper.NameCopyNet}, runtime.Config{
			Env: env, Seed: seed, MaxEvents: 60,
			Monitor: runtime.MonitorSat(lenInv, env, nil),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.MonitorErr != nil {
			t.Fatalf("seed %d: rendezvous runtime violated the invariant: %v", seed, res.MonitorErr)
		}
	}
}
