// Command cspeq compares two processes from a .csp file under both
// semantic models this repository implements:
//
//   - the paper's trace (prefix-closure) model — partial correctness,
//     where STOP | P = P and deadlock is invisible; and
//   - the stable-failures model (the §4 "more realistic model of
//     non-determinism"), where refusals distinguish internal choice and
//     deadlock potential is observable.
//
// Usage:
//
//	cspeq [-depth N] [-nat W] [-workers N] [-timeout D] [-stats] file.csp P Q
//
// Exit status is 0 regardless of the verdicts (the comparison itself is
// the output); 2 on usage or load errors.
package main

import (
	"flag"
	"fmt"

	"cspsat/internal/cli"
	"cspsat/pkg/csp"
)

func main() {
	app := cli.New("cspeq", "cspeq [-depth N] [-nat W] [-workers N] [-timeout D] [-stats] file.csp P Q")
	app.NatFlag(3)
	depth := flag.Int("depth", 6, "trace-length bound for both models")
	args := app.Parse(3)
	ctx, cancel := app.Context()
	defer cancel()

	mod := app.Load(ctx, args[0])
	p := app.Proc(mod, args[1])
	q := app.Proc(mod, args[2])
	pName, qName := args[1], args[2]
	copts := csp.CheckOptions{Depth: *depth, Workers: app.Workers}
	eopts := csp.EngineOptions{Depth: *depth}
	exitOn := func(err error) {
		if err != nil {
			app.Fatal(err)
		}
	}

	// --- trace model ---
	fmt.Printf("== trace model (the paper's §3 prefix closures, depth %d) ==\n", *depth)
	pq, err := mod.Refines(ctx, p, q, copts)
	exitOn(err)
	qp, err := mod.Refines(ctx, q, p, copts)
	exitOn(err)
	printRefine(pName, qName, pq.OK, traceWitness(pq.Witness))
	printRefine(qName, pName, qp.OK, traceWitness(qp.Witness))
	if pq.OK && qp.OK {
		fmt.Printf("   %s and %s are trace-equivalent\n", pName, qName)
	}

	// --- failures model ---
	fmt.Printf("\n== stable-failures model (the §4 extension, depth %d) ==\n", *depth)
	mp, err := mod.Failures(ctx, p, eopts)
	exitOn(err)
	mq, err := mod.Failures(ctx, q, eopts)
	exitOn(err)
	fpq, err := csp.FailuresRefines(mp, mq)
	exitOn(err)
	fqp, err := csp.FailuresRefines(mq, mp)
	exitOn(err)
	printRefine(pName, qName, fpq == nil, cexString(fpq))
	printRefine(qName, pName, fqp == nil, cexString(fqp))
	if fpq == nil && fqp == nil {
		fmt.Printf("   %s and %s are failures-equivalent\n", pName, qName)
	}
	for _, pr := range []struct {
		name string
		proc csp.Proc
		m    *csp.FailuresModel
	}{{pName, p, mp}, {qName, q, mq}} {
		if tr, can := pr.m.CanDeadlock(); can {
			fmt.Printf("   %s can deadlock (after %s)\n", pr.name, tr)
		} else {
			fmt.Printf("   %s is deadlock-free to this depth\n", pr.name)
		}
		dtr, div, err := mod.Diverges(ctx, pr.proc, eopts)
		exitOn(err)
		if div {
			fmt.Printf("   %s can diverge (internal chatter forever, after %s)\n", pr.name, dtr)
		} else {
			fmt.Printf("   %s is divergence-free to this depth\n", pr.name)
		}
	}
	app.Finish()
}

func printRefine(a, b string, ok bool, why string) {
	if ok {
		fmt.Printf("   %s ⊑ %s holds\n", a, b)
		return
	}
	fmt.Printf("   %s ⊑ %s FAILS: %s\n", a, b, why)
}

func traceWitness(w csp.Trace) string {
	if w == nil {
		return ""
	}
	return "witness " + w.String()
}

func cexString(c *csp.FailuresCounterexample) string {
	if c == nil {
		return ""
	}
	return c.String()
}
