// Command csptrace enumerates the visible behaviours of a process defined
// in a .csp file, up to a depth bound. Under the default traces model that
// is the paper's prefix-closed trace set; with -model failures it is the
// §4 stable-failures model instead — one line per trace listing the
// acceptance sets of the stable states reachable on it, where an empty
// acceptance is a deadlock.
//
// The -engine flag picks how trace sets are computed: op (the operational
// explorer, default), denote (the literal §3.3 approximation chain, which
// also reports its iteration count), or runtime (the prefix closure of one
// random goroutine walk).
//
// With -store DIR the run shares cspserved's artifact store: a trace set
// already persisted for this exact source, engine, depth, and process is
// served from disk without parsing or running an engine, and a freshly
// computed one is persisted for the next reader.
//
// Usage:
//
//	csptrace [-depth N] [-nat W] [-model M] [-engine E] [-max] [-dot] [-store DIR] [-workers N] [-timeout D] [-stats] file.csp process
package main

import (
	"flag"
	"fmt"

	"cspsat/internal/cli"
	"cspsat/pkg/csp"
)

func main() {
	app := cli.New("csptrace", "csptrace [-depth N] [-nat W] [-model M] [-engine E] [-max] [-dot] [-store DIR] [-workers N] [-timeout D] [-stats] file.csp process")
	app.NatFlag(3)
	app.StoreFlag()
	app.ModelFlag()
	app.EngineFlag("op")
	depth := flag.Int("depth", 6, "trace-length bound")
	maxOnly := flag.Bool("max", false, "print only maximal traces")
	dot := flag.Bool("dot", false, "emit the bounded LTS as a Graphviz digraph instead of traces")
	args := app.Parse(2)
	mdl := app.Model()
	engine := app.Engine()
	ctx, cancel := app.Context()
	defer cancel()

	mod := app.Load(ctx, args[0])
	if *dot {
		g, err := mod.DotLTS(app.Proc(mod, args[1]), *depth)
		if err != nil {
			app.Fail(err)
		}
		fmt.Print(g)
		return
	}
	if mdl == csp.ModelFailures {
		fm, err := mod.Failures(ctx, app.Proc(mod, args[1]), csp.EngineOptions{Depth: *depth})
		if err != nil {
			app.Fail(err)
		}
		fmt.Print(fm)
		fmt.Printf("-- %d traces with acceptance families (failures model, depth %d)\n", fm.Size(), *depth)
		app.Finish()
		return
	}
	// A persisted trace set for this engine/depth/process serves the run
	// without resolving the process — i.e. without parsing the module at
	// all when the whole load came from the store.
	res, hit := mod.CachedTraces(engine, *depth, args[1])
	if !hit {
		var err error
		res, err = mod.Traces(ctx, app.Proc(mod, args[1]), csp.EngineOptions{Engine: engine, Depth: *depth})
		if err != nil {
			app.Fail(err)
		}
		mod.StoreTraces(engine, *depth, args[1], res)
	}
	if engine == csp.EngineDenote {
		fmt.Printf("-- approximation chain stabilised after %d iterations\n", res.Iterations)
	}
	// View, not Set: a store-served result lists straight off the frozen
	// arena image without rebuilding the trie.
	view := res.View()
	traces := view.Traces()
	if *maxOnly {
		traces = view.TracesMax()
	}
	for _, t := range traces {
		fmt.Println(t)
	}
	fmt.Printf("-- %d traces (of %d total, max length %d)\n", len(traces), view.Size(), view.MaxLen())
	app.Finish()
}
