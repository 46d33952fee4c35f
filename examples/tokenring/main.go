// Tokenring: a four-station mutual-exclusion ring, analysed with every tool
// in the box — model checking the round-robin invariant, deadlock and
// divergence search, the failures view (the ring is deterministic), a
// Graphviz picture of its state space, and a monitored concurrent run.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"cspsat/pkg/csp"
)

func main() {
	ctx := context.Background()
	path := filepath.Join("specs", "tokenring.csp")
	if _, err := os.Stat(path); err != nil {
		path = filepath.Join("..", "..", "specs", "tokenring.csp")
	}
	mod, err := csp.LoadFile(ctx, path, csp.Options{NatWidth: 2})
	if err != nil {
		log.Fatal(err)
	}

	// 1. Model-check the file's asserts (round-robin work counters).
	results, err := mod.CheckAll(ctx, csp.CheckOptions{Depth: 9})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(csp.FormatAssertResults(results))

	ring, err := mod.Proc("sys")
	if err != nil {
		log.Fatal(err)
	}

	// 2. Liveness-adjacent checks the sat-framework cannot express.
	dls, err := mod.Deadlocks(ctx, ring, csp.CheckOptions{Depth: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndeadlocks to depth 8: %d\n", len(dls))
	if _, div, err := mod.Diverges(ctx, ring, csp.EngineOptions{Depth: 4}); err != nil {
		log.Fatal(err)
	} else {
		fmt.Printf("can diverge: %v (token passes are finite chatter between works)\n", div)
	}

	// 3. Failures view: the ring is deterministic — the environment can
	//    rely on exactly one behaviour.
	m, err := mod.Failures(ctx, ring, csp.EngineOptions{Depth: 6})
	if err != nil {
		log.Fatal(err)
	}
	if w := m.Deterministic(); w == nil {
		fmt.Println("the ring is deterministic in the failures sense")
	} else {
		fmt.Printf("nondeterminism: %s\n", w)
	}

	// 4. A picture: the ring's visible state space is a single cycle.
	g, err := mod.DotLTS(ring, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nGraphviz of the state space (render with `dot -Tsvg`):\n%s", g)

	// 5. Run it on goroutines with the invariant monitored.
	run, err := mod.Run(ctx, ring, csp.EngineOptions{Seed: 3, MaxEvents: 24}, mod.MonitorSat(mod.Asserts()[0].A))
	if err != nil {
		log.Fatal(err)
	}
	if run.MonitorErr != nil {
		log.Fatal(run.MonitorErr)
	}
	order := make([]int64, 0, len(run.Trace))
	for _, ev := range run.Trace {
		if name, sub, ok := ev.Chan.ArrayName(); ok && name == "work" {
			order = append(order, sub)
		}
	}
	fmt.Printf("\nconcurrent run (%d goroutines): work order %v — strict round robin\n",
		run.LeafCount, order)
}
