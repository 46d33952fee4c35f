// Command cspexperiments regenerates the reproduction table of
// EXPERIMENTS.md: every checkable claim of the paper (E1–E14) and the
// implemented extensions (E15–E18), each verified live and reported on one
// line. Exit status 1 if any experiment fails.
//
// Usage:
//
//	cspexperiments [-depth N] [-only E7] [-workers N] [-timeout D] [-stats]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"cspsat/internal/assertion"
	"cspsat/internal/auto"
	"cspsat/internal/cli"
	"cspsat/internal/closure"
	"cspsat/internal/paper"
	"cspsat/internal/proof"
	"cspsat/internal/proofs"
	"cspsat/internal/syntax"
	"cspsat/internal/trace"
	"cspsat/internal/value"
	"cspsat/pkg/csp"
)

type experiment struct {
	id    string
	claim string
	run   func(depth int) (string, error)
}

// runCtx and workers are set once from the uniform flags in main; the
// experiment closures read them so each row honours -timeout and -workers.
var (
	runCtx  context.Context = context.Background()
	workers                 = 1
)

func main() {
	app := cli.New("cspexperiments", "cspexperiments [-depth N] [-only E7] [-workers N] [-timeout D] [-stats]")
	depth := flag.Int("depth", 7, "trace-length bound for the model checks")
	only := flag.String("only", "", "run a single experiment, e.g. E7")
	app.Parse(0)
	ctx, cancel := app.Context()
	defer cancel()
	runCtx = ctx
	workers = app.Workers

	failed := false
	for _, e := range experiments() {
		if *only != "" && !strings.EqualFold(*only, e.id) {
			continue
		}
		outcome, err := e.run(*depth)
		if err != nil {
			failed = true
			fmt.Printf("%-4s FAIL  %-52s %v\n", e.id, e.claim, err)
			continue
		}
		fmt.Printf("%-4s ok    %-52s %s\n", e.id, e.claim, outcome)
	}
	if app.Stats {
		// The table's statistics report goes to stdout — it is part of the
		// regenerated record, not diagnostics.
		cli.WriteStats(os.Stdout)
	}
	if failed {
		os.Exit(1)
	}
}

// helpers shared by the experiment closures

func copyMod() *csp.Module  { return csp.FromModule(paper.CopySystem(), csp.Options{NatWidth: 2}) }
func protoMod() *csp.Module { return csp.FromModule(paper.ProtocolSystem(2), csp.Options{NatWidth: 2}) }

func copyValidity() *assertion.ValidityConfig {
	return &assertion.ValidityConfig{MaxLen: 3}
}

func protoValidity() *assertion.ValidityConfig {
	msgs := value.Domain(value.IntRange{Lo: 0, Hi: 1})
	return &assertion.ValidityConfig{
		MaxLen: 3,
		ChanDom: map[string]value.Domain{
			"wire":   value.Union{A: msgs, B: value.NewEnum(value.Sym("ACK"), value.Sym("NACK"))},
			"input":  msgs,
			"output": msgs,
		},
		DefaultDom: msgs,
	}
}

func satLine(mod *csp.Module, name string, a assertion.A, depth int) (string, error) {
	res, err := mod.Sat(runCtx, syntax.Ref{Name: name}, a, csp.CheckOptions{Depth: depth, Workers: workers})
	if err != nil {
		return "", err
	}
	if !res.OK {
		return "", fmt.Errorf("%s", res)
	}
	return fmt.Sprintf("model check: %d traces, depth %d", res.TracesChecked, res.Depth), nil
}

func proveAndCheck(mod *csp.Module, validity *assertion.ValidityConfig, pr proof.Proof, name string, a assertion.A, depth int) (string, error) {
	if _, err := mod.Check(runCtx, pr, csp.CheckOptions{Validity: validity}); err != nil {
		return "", fmt.Errorf("proof: %w", err)
	}
	line, err := satLine(mod, name, a, depth)
	if err != nil {
		return "", err
	}
	return "proof checked; " + line, nil
}

func traces(mod *csp.Module, p csp.Proc, engine csp.Engine, depth int) (*csp.TraceSet, error) {
	res, err := mod.Traces(runCtx, p, csp.EngineOptions{Engine: engine, Depth: depth})
	if err != nil {
		return nil, err
	}
	return res.Set, nil
}

func experiments() []experiment {
	return []experiment{
		{"E1", "copier sat wire <= input (§2, §2.1(6))", func(d int) (string, error) {
			return proveAndCheck(copyMod(), copyValidity(), proofs.CopierProof(), paper.NameCopier, paper.CopierSat(), d)
		}},
		{"E2", "copier sat #input <= #wire+1 (§2)", func(d int) (string, error) {
			return satLine(copyMod(), paper.NameCopier, paper.CopierLenSat(), d)
		}},
		{"E3", "recopier sat output <= wire (§2)", func(d int) (string, error) {
			return proveAndCheck(copyMod(), copyValidity(), proofs.RecopierProof(), paper.NameRecopier, paper.RecopierSat(), d)
		}},
		{"E4", "copysys sat output <= input (§2.1(8),(9))", func(d int) (string, error) {
			return proveAndCheck(copyMod(), copyValidity(), proofs.CopyNetworkProof(), paper.NameCopySys, paper.CopyNetSat(), d)
		}},
		{"E5", "sender sat f(wire) <= input (Table 1)", func(d int) (string, error) {
			return proveAndCheck(protoMod(), protoValidity(), proofs.SenderTable1Proof(), paper.NameSender, paper.SenderSat(), d)
		}},
		{"E6", "receiver sat output <= f(wire) (§2.2(2))", func(d int) (string, error) {
			return proveAndCheck(protoMod(), protoValidity(), proofs.ReceiverProof(), paper.NameReceiver, paper.ReceiverSat(), d)
		}},
		{"E7", "protocol sat output <= input (§2.2(3))", func(d int) (string, error) {
			return proveAndCheck(protoMod(), protoValidity(), proofs.ProtocolProof(), paper.NameProtocol, paper.ProtocolSat(), d)
		}},
		{"E8", "multiplier scalar-product invariant (§2, §1.3(5))", func(d int) (string, error) {
			mod := csp.FromModule(paper.MultiplierSystem([]int64{5, 3, 2}), csp.Options{NatWidth: 2})
			return satLine(mod, paper.NameMultiplier, paper.MultiplierSat(), d)
		}},
		{"E9", "STOP sat any satisfiable R (§2.1(4), §4)", func(d int) (string, error) {
			mod := copyMod()
			if _, err := mod.Check(runCtx, proofs.StopSatExample(), csp.CheckOptions{Validity: copyValidity()}); err != nil {
				return "", err
			}
			res, err := mod.Sat(runCtx, syntax.Stop{}, paper.CopierSat(), csp.CheckOptions{Depth: d, Workers: workers})
			if err != nil || !res.OK {
				return "", fmt.Errorf("%v %v", res, err)
			}
			return "emptiness proof + model check of STOP", nil
		}},
		{"E10", "STOP | P = P in the trace model (§4)", func(d int) (string, error) {
			ck := copyMod().Checker(runCtx, csp.CheckOptions{Depth: d, Workers: workers})
			copier := syntax.Ref{Name: paper.NameCopier}
			res, err := ck.Equivalent(syntax.Alt{L: syntax.Stop{}, R: copier}, copier)
			if err != nil {
				return "", err
			}
			if !res.OK {
				return "", fmt.Errorf("not equivalent: %s", res)
			}
			return fmt.Sprintf("trace-equivalent to depth %d", d), nil
		}},
		{"E11", "§3.1 closure laws (parallel = ignore∩ignore …)", func(d int) (string, error) {
			// Spot-verify the headline identity on the copier operands.
			mod := copyMod()
			left, err := traces(mod, syntax.Ref{Name: paper.NameCopier}, csp.EngineOp, 4)
			if err != nil {
				return "", err
			}
			right, err := traces(mod, syntax.Ref{Name: paper.NameRecopier}, csp.EngineOp, 4)
			if err != nil {
				return "", err
			}
			x := trace.NewSet("input", "wire")
			y := trace.NewSet("wire", "output")
			chatterR := []trace.Event{{Chan: "output", Msg: value.Int(0)}, {Chan: "output", Msg: value.Int(1)}}
			chatterL := []trace.Event{{Chan: "input", Msg: value.Int(0)}, {Chan: "input", Msg: value.Int(1)}}
			budget := left.MaxLen() + right.MaxLen()
			lhs := closure.Parallel(left, right, x, y)
			rhs := closure.Intersect(
				closure.Ignore(left, chatterR, budget),
				closure.Ignore(right, chatterL, budget),
			)
			if !lhs.Equal(rhs) {
				return "", fmt.Errorf("product walk differs from the paper's ⇑/∩ definition")
			}
			return "parallel = (P⇑(Y−X)) ∩ (Q⇑(X−Y)) verified; full law set in tests", nil
		}},
		{"E12", "denotational chain = operational traces (§3.3)", func(d int) (string, error) {
			mod := protoMod()
			p := syntax.Ref{Name: paper.NameProtocol}
			w := d
			if w > 5 {
				w = 5 // the literal chain materialises pre-hiding sets
			}
			den, err := traces(mod, p, csp.EngineDenote, w)
			if err != nil {
				return "", err
			}
			ops, err := traces(mod, p, csp.EngineOp, w)
			if err != nil {
				return "", err
			}
			if !den.Equal(ops) {
				return "", fmt.Errorf("engines disagree at depth %d", w)
			}
			return fmt.Sprintf("identical trace sets at depth %d", w), nil
		}},
		{"E13", "§3.4 lemmas about ch(s) and substitution", func(d int) (string, error) {
			// The worked ch(s) example of §3.3.
			s := trace.T{
				{Chan: "input", Msg: value.Int(27)}, {Chan: "wire", Msg: value.Int(27)},
				{Chan: "input", Msg: value.Int(0)}, {Chan: "wire", Msg: value.Int(0)},
				{Chan: "input", Msg: value.Int(3)},
			}
			h := trace.Ch(s)
			if h.String() != "input=<27,0,3>, wire=<27,0>" {
				return "", fmt.Errorf("ch(s) differs from the paper's example: %s", h)
			}
			return "ch(s) worked example exact; lemmas (a)-(d) in property tests", nil
		}},
		{"E14", "rule soundness: proofs vs model checker", func(d int) (string, error) {
			for _, pc := range []struct {
				mod      *csp.Module
				validity *assertion.ValidityConfig
				pr       proof.Proof
			}{
				{copyMod(), copyValidity(), proofs.CopierProof()},
				{copyMod(), copyValidity(), proofs.CopyNetworkProof()},
				{protoMod(), protoValidity(), proofs.SenderTable1Proof()},
				{protoMod(), protoValidity(), proofs.ProtocolProof()},
			} {
				if _, err := pc.mod.Check(runCtx, pc.pr, csp.CheckOptions{Validity: pc.validity}); err != nil {
					return "", err
				}
			}
			if _, err := satLine(protoMod(), paper.NameProtocol, paper.ProtocolSat(), d); err != nil {
				return "", err
			}
			return "all machine proofs check and their conclusions model-check", nil
		}},
		{"E15", "failures model resolves the §4 defect", func(d int) (string, error) {
			mod := copyMod()
			copier := syntax.Ref{Name: paper.NameCopier}
			flaky := syntax.IChoice{L: syntax.Stop{}, R: copier}
			w := min(d, 4)
			mc, err := mod.Failures(runCtx, copier, csp.EngineOptions{Depth: w})
			if err != nil {
				return "", err
			}
			mf, err := mod.Failures(runCtx, flaky, csp.EngineOptions{Depth: w})
			if err != nil {
				return "", err
			}
			cex, err := csp.FailuresEquivalent(mf, mc)
			if err != nil {
				return "", err
			}
			if cex == nil {
				return "", fmt.Errorf("STOP |~| P not distinguished from P")
			}
			return fmt.Sprintf("STOP |~| P ≠F P (%s)", cex), nil
		}},
		{"E16", "Table 1 synthesised automatically", func(d int) (string, error) {
			mod := protoMod()
			pr, err := auto.Recursive(mod.Env(), []auto.Goal{
				{Name: paper.NameSender, A: paper.SenderSat()},
				{Name: paper.NameQ, A: paper.QSat()},
			})
			if err != nil {
				return "", err
			}
			var steps []proof.Step
			prover := mod.Prover(runCtx, csp.CheckOptions{Validity: protoValidity()})
			prover.Steps = &steps
			if _, err := prover.Check(pr); err != nil {
				return "", err
			}
			return fmt.Sprintf("synthesised and checked in %d rule applications", len(steps)), nil
		}},
		{"E17", "philosophers: deadlock invisible to sat", func(d int) (string, error) {
			data, err := os.ReadFile(findSpec("philosophers.csp"))
			if err != nil {
				return "", err
			}
			return philosophers(string(data), min(d, 6))
		}},
		{"E18", "the protocol diverges (fairness evasion)", func(d int) (string, error) {
			tr, div, err := protoMod().Diverges(runCtx, syntax.Ref{Name: paper.NameProtocol}, csp.EngineOptions{Depth: min(d, 3)})
			if err != nil {
				return "", err
			}
			if !div {
				return "", fmt.Errorf("NACK livelock not found")
			}
			return fmt.Sprintf("diverges after %s (retransmission livelock)", tr), nil
		}},
	}
}

func philosophers(src string, depth int) (string, error) {
	mod, err := csp.Load(runCtx, src, csp.Options{NatWidth: 2})
	if err != nil {
		return "", err
	}
	opts := csp.CheckOptions{Depth: depth, Workers: workers}
	bad, err := mod.Deadlocks(runCtx, syntax.Ref{Name: "deadlocking"}, opts)
	if err != nil {
		return "", err
	}
	if len(bad) == 0 {
		return "", fmt.Errorf("naive table's deadlock not found")
	}
	good, err := mod.Deadlocks(runCtx, syntax.Ref{Name: "safe"}, opts)
	if err != nil {
		return "", err
	}
	if len(good) != 0 {
		return "", fmt.Errorf("left-handed table deadlocks")
	}
	return "naive table deadlocks, left-handed table certified free", nil
}

func findSpec(name string) string {
	for _, dir := range []string{"specs", "../specs", "../../specs"} {
		p := dir + "/" + name
		if _, err := os.Stat(p); err == nil {
			return p
		}
	}
	return "specs/" + name
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
