// Runtime: what online monitoring buys you — and what partial correctness
// cannot see. Three versions of a tiny credit-based flow-control network
// run as goroutine networks with the invariant #sent <= #credit monitored:
//
//   - a correct one, where the invariant holds throughout;
//   - a violating one, caught by the monitor at the exact communication
//     that breaks the invariant (the operational reading of the paper's
//     "true before and after every communication");
//   - a deadlocking one, which the invariant does NOT flag: it stops
//     having done nothing wrong — the paper's §4 limitation that partial
//     correctness "cannot prove that P will actually behave in the desired
//     way", since STOP satisfies every satisfiable assertion.
package main

import (
	"context"
	"fmt"
	"log"

	"cspsat/pkg/csp"
)

const okSpec = `
-- Producer waits for one credit per message.
producer = credit?c:{1} -> sent!1 -> producer
consumer = credit!1 -> sent?x:{1} -> consumer
net = producer || consumer

assert net sat #sent <= #credit
`

const violatingSpec = `
-- Bug: the producer transmits before collecting a credit, and the
-- consumer is always willing to listen.
producer = sent!1 -> credit?c:{1} -> producer
consumer = sent?x:{1} -> consumer | credit!1 -> consumer
net = producer || consumer

assert net sat #sent <= #credit
`

const deadlockSpec = `
-- Bug: producer and consumer each insist on their own first step;
-- nothing can ever happen. The invariant holds vacuously.
producer = sent!1 -> credit?c:{1} -> producer
consumer = credit!1 -> sent?x:{1} -> consumer
net = producer || consumer

assert net sat #sent <= #credit
`

func run(title, spec string) {
	ctx := context.Background()
	mod, err := csp.Load(ctx, spec, csp.Options{})
	if err != nil {
		log.Fatal(err)
	}
	net, err := mod.Proc("net")
	if err != nil {
		log.Fatal(err)
	}
	decl := mod.Asserts()[0]
	res, err := mod.Run(ctx, net, csp.EngineOptions{Seed: 1, MaxEvents: 40}, mod.MonitorSat(decl.A))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: ran %d events\n", title, len(res.Events))
	switch {
	case res.MonitorErr != nil:
		fmt.Printf("  monitor caught it: %v\n", res.MonitorErr)
	case res.Quiescent:
		fmt.Printf("  network deadlocked after %s — and the invariant %q still holds,\n", res.Trace, decl.A)
		fmt.Printf("  which is exactly the paper's partial-correctness blind spot (§4)\n")
	default:
		fmt.Printf("  invariant %s held throughout %d events\n", decl.A, len(res.Events))
	}

	// The model checker sees the same stories at its bounded depth.
	check, err := mod.CheckAll(ctx, csp.CheckOptions{Depth: 6})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  model check: %s\n\n", check[0].Result)
}

func main() {
	run("correct flow control", okSpec)
	run("violating flow control", violatingSpec)
	run("deadlocking flow control", deadlockSpec)
}
