// Benchmark harness: one benchmark per experiment E1–E14 of DESIGN.md §4
// (the paper's checkable claims), plus engine-scaling and ablation
// benchmarks. Run with:
//
//	go test -bench=. -benchmem
//
// EXPERIMENTS.md records the outcomes next to the paper's statements.
package cspsat_test

import (
	"context"
	"fmt"
	"testing"

	"cspsat/internal/assertion"
	"cspsat/internal/auto"
	"cspsat/internal/check"
	"cspsat/internal/closure"
	"cspsat/internal/failures"
	"cspsat/internal/laws"
	"cspsat/internal/model"
	"cspsat/internal/op"
	"cspsat/internal/paper"
	"cspsat/internal/parser"
	"cspsat/internal/proof"
	"cspsat/internal/proofs"
	"cspsat/internal/runtime"
	"cspsat/internal/sem"
	"cspsat/internal/syntax"
	"cspsat/internal/trace"
	"cspsat/internal/value"
)

func copyChecker(depth int) *check.Checker {
	return check.New(sem.NewEnv(paper.CopySystem(), 2), nil, depth)
}

func protoChecker(depth int) *check.Checker {
	return check.New(sem.NewEnv(paper.ProtocolSystem(2), 2), nil, depth)
}

func mustSat(b *testing.B, ck *check.Checker, name string, a assertion.A) {
	b.Helper()
	res, err := ck.Sat(syntax.Ref{Name: name}, a)
	if err != nil {
		b.Fatal(err)
	}
	if !res.OK {
		b.Fatalf("violated: %s", res)
	}
}

// --- E1–E4: the copier system's §2 claims ---

func BenchmarkE01CopierSat(b *testing.B) {
	ck := copyChecker(7)
	for i := 0; i < b.N; i++ {
		mustSat(b, ck, paper.NameCopier, paper.CopierSat())
	}
}

func BenchmarkE02CopierLenSat(b *testing.B) {
	ck := copyChecker(7)
	for i := 0; i < b.N; i++ {
		mustSat(b, ck, paper.NameCopier, paper.CopierLenSat())
	}
}

func BenchmarkE03RecopierSat(b *testing.B) {
	ck := copyChecker(7)
	for i := 0; i < b.N; i++ {
		mustSat(b, ck, paper.NameRecopier, paper.RecopierSat())
	}
}

func BenchmarkE04CopyNetworkSat(b *testing.B) {
	ck := copyChecker(7)
	for i := 0; i < b.N; i++ {
		mustSat(b, ck, paper.NameCopySys, paper.CopyNetSat())
	}
}

// --- E5–E7: the protocol, by proof and by model check ---

func BenchmarkE05SenderTable1Proof(b *testing.B) {
	prover := protocolProver()
	for i := 0; i < b.N; i++ {
		if _, err := prover.Check(proofs.SenderTable1Proof()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE05SenderSatCheck(b *testing.B) {
	ck := protoChecker(7)
	for i := 0; i < b.N; i++ {
		mustSat(b, ck, paper.NameSender, paper.SenderSat())
	}
}

func BenchmarkE06ReceiverProof(b *testing.B) {
	prover := protocolProver()
	for i := 0; i < b.N; i++ {
		if _, err := prover.Check(proofs.ReceiverProof()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE07ProtocolProofAndCheck(b *testing.B) {
	prover := protocolProver()
	ck := protoChecker(7)
	for i := 0; i < b.N; i++ {
		if _, err := prover.Check(proofs.ProtocolProof()); err != nil {
			b.Fatal(err)
		}
		mustSat(b, ck, paper.NameProtocol, paper.ProtocolSat())
	}
}

func protocolProver() *proof.Checker {
	env := sem.NewEnv(paper.ProtocolSystem(2), 2)
	c := proof.NewChecker(env, nil)
	msgs := value.Domain(value.IntRange{Lo: 0, Hi: 1})
	c.Validity = assertion.ValidityConfig{
		MaxLen: 3,
		ChanDom: map[string]value.Domain{
			"wire":   value.Union{A: msgs, B: value.NewEnum(value.Sym("ACK"), value.Sym("NACK"))},
			"input":  msgs,
			"output": msgs,
		},
		DefaultDom: msgs,
	}
	return c
}

// --- E8: the multiplier invariant ---

func BenchmarkE08MultiplierSat(b *testing.B) {
	env := sem.NewEnv(paper.MultiplierSystem([]int64{5, 3, 2}), 2)
	ck := check.New(env, nil, 7)
	for i := 0; i < b.N; i++ {
		res, err := ck.Sat(syntax.Ref{Name: paper.NameMultiplier}, paper.MultiplierSat())
		if err != nil || !res.OK {
			b.Fatalf("%v %v", res, err)
		}
	}
}

// --- E9: STOP satisfies any satisfiable assertion (emptiness rule) ---

func BenchmarkE09StopSatisfiesEverything(b *testing.B) {
	env := sem.NewEnv(paper.CopySystem(), 2)
	prover := proof.NewChecker(env, nil)
	prover.Validity = assertion.ValidityConfig{MaxLen: 3}
	ck := check.New(env, nil, 7)
	for i := 0; i < b.N; i++ {
		if _, err := prover.Check(proofs.StopSatExample()); err != nil {
			b.Fatal(err)
		}
		res, err := ck.Sat(syntax.Stop{}, paper.CopierSat())
		if err != nil || !res.OK {
			b.Fatalf("%v %v", res, err)
		}
	}
}

// --- E10: STOP | P = P in the trace model (§4 defect) ---

func BenchmarkE10StopChoiceIdentity(b *testing.B) {
	ck := copyChecker(6)
	copier := syntax.Ref{Name: paper.NameCopier}
	for i := 0; i < b.N; i++ {
		res, err := ck.Equivalent(syntax.Alt{L: syntax.Stop{}, R: copier}, copier)
		if err != nil || !res.OK {
			b.Fatalf("%v %v", res, err)
		}
	}
}

// --- E11: §3.1 closure-operator laws on concrete sets ---

func BenchmarkE11ClosureOps(b *testing.B) {
	env := sem.NewEnv(paper.CopySystem(), 2)
	left, err := op.Traces(syntax.Ref{Name: paper.NameCopier}, env, 8)
	if err != nil {
		b.Fatal(err)
	}
	right, err := op.Traces(syntax.Ref{Name: paper.NameRecopier}, env, 8)
	if err != nil {
		b.Fatal(err)
	}
	x := trace.NewSet("input", "wire")
	y := trace.NewSet("wire", "output")
	hidden := trace.NewSet("wire")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		par := closure.Parallel(left, right, x, y)
		hid := closure.Hide(par, hidden)
		uni := closure.Union(left, right)
		if hid.Size() == 0 || uni.Size() == 0 {
			b.Fatal("degenerate closure result")
		}
	}
}

// --- E12: the §3.3 approximation chain vs the operational engine ---

func BenchmarkE12FixpointDenotation(b *testing.B) {
	env := sem.NewEnv(paper.CopySystem(), 2)
	p := syntax.Ref{Name: paper.NameCopySys}
	for i := 0; i < b.N; i++ {
		d := sem.NewDenoter(5)
		s, err := d.Denote(p, env)
		if err != nil || s.Size() == 0 {
			b.Fatalf("%v %v", s, err)
		}
	}
}

// --- E11/E12 cold-cache ablation: the same workloads with the closure
// interning and memo tables emptied every iteration, isolating how much of
// the steady-state numbers above the caches contribute. Custom metrics
// report the memo hit rate of the warm runs.

func BenchmarkE11ClosureOpsCold(b *testing.B) {
	env := sem.NewEnv(paper.CopySystem(), 2)
	x := trace.NewSet("input", "wire")
	y := trace.NewSet("wire", "output")
	hidden := trace.NewSet("wire")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		closure.ResetCaches()
		// Rebuild the operands too: their interned nodes died with the
		// caches, so reusing them would measure a half-warm hybrid.
		left, err := op.Traces(syntax.Ref{Name: paper.NameCopier}, env, 8)
		if err != nil {
			b.Fatal(err)
		}
		right, err := op.Traces(syntax.Ref{Name: paper.NameRecopier}, env, 8)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		par := closure.Parallel(left, right, x, y)
		hid := closure.Hide(par, hidden)
		uni := closure.Union(left, right)
		if hid.Size() == 0 || uni.Size() == 0 {
			b.Fatal("degenerate closure result")
		}
	}
	reportCacheStats(b)
}

func BenchmarkE12FixpointDenotationCold(b *testing.B) {
	env := sem.NewEnv(paper.CopySystem(), 2)
	p := syntax.Ref{Name: paper.NameCopySys}
	for i := 0; i < b.N; i++ {
		closure.ResetCaches()
		d := sem.NewDenoter(5)
		s, err := d.Denote(p, env)
		if err != nil || s.Size() == 0 {
			b.Fatalf("%v %v", s, err)
		}
	}
	reportCacheStats(b)
}

// reportCacheStats attaches the closure-cache state as custom benchmark
// metrics (benchstat-friendly).
func reportCacheStats(b *testing.B) {
	s := closure.Stats()
	if total := s.MemoHits + s.MemoMisses; total > 0 {
		b.ReportMetric(float64(s.MemoHits)/float64(total), "memo-hit-rate")
	}
	b.ReportMetric(float64(s.InternedNodes), "interned-nodes")
}

// --- E13: ch(s) and the substitution lemmas' engine ---

func BenchmarkE13ChExtraction(b *testing.B) {
	env := sem.NewEnv(paper.ProtocolSystem(2), 2)
	set, err := op.Traces(syntax.Ref{Name: paper.NameProtoNet}, env, 8)
	if err != nil {
		b.Fatal(err)
	}
	traces := set.Traces()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range traces {
			h := trace.Ch(t)
			if h == nil {
				b.Fatal("nil history")
			}
		}
	}
}

// --- E14: rule soundness — every machine proof's conclusion model-checks ---

func BenchmarkE14ProofsSoundness(b *testing.B) {
	copyProver := proof.NewChecker(sem.NewEnv(paper.CopySystem(), 2), nil)
	copyProver.Validity = assertion.ValidityConfig{MaxLen: 3}
	protoProver := protocolProver()
	copyCk := copyChecker(6)
	protoCk := protoChecker(6)
	for i := 0; i < b.N; i++ {
		for _, p := range []proof.Proof{proofs.CopierProof(), proofs.RecopierProof(), proofs.CopyNetworkProof()} {
			if _, err := copyProver.Check(p); err != nil {
				b.Fatal(err)
			}
		}
		for _, p := range []proof.Proof{proofs.SenderTable1Proof(), proofs.ReceiverProof(), proofs.ProtocolProof()} {
			if _, err := protoProver.Check(p); err != nil {
				b.Fatal(err)
			}
		}
		mustSat(b, copyCk, paper.NameCopySys, paper.CopyNetSat())
		mustSat(b, protoCk, paper.NameProtocol, paper.ProtocolSat())
	}
}

// --- Engine scaling ---

func BenchmarkTraceEnumDepth(b *testing.B) {
	env := sem.NewEnv(paper.ProtocolSystem(2), 2)
	for _, depth := range []int{4, 6, 8, 10} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := op.Traces(syntax.Ref{Name: paper.NameProtocol}, env, depth)
				if err != nil || s.Size() == 0 {
					b.Fatalf("%v %v", s, err)
				}
			}
		})
	}
}

func BenchmarkBufferChain(b *testing.B) {
	for _, n := range []int{1, 2, 3, 4} {
		m := paper.BufferChain(n)
		env := sem.NewEnv(m, 2)
		a := assertion.PrefixLE(assertion.Chan("output"), assertion.Chan("input"))
		ck := check.New(env, nil, 6)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := ck.Sat(syntax.Ref{Name: paper.NameChainSys}, a)
				if err != nil || !res.OK {
					b.Fatalf("%v %v", res, err)
				}
			}
		})
	}
}

func BenchmarkRuntimeThroughput(b *testing.B) {
	env := sem.NewEnv(paper.ProtocolSystem(2), 2)
	b.Run("protocol", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := runtime.Run(syntax.Ref{Name: paper.NameProtocol}, runtime.Config{
				Env: env, Seed: int64(i), MaxEvents: 200,
			})
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Events) == 0 {
				b.Fatal("no events")
			}
		}
		b.ReportMetric(200, "events/op")
	})
	menv := sem.NewEnv(paper.MultiplierSystem([]int64{5, 3, 2}), 2)
	b.Run("multiplier", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := runtime.Run(syntax.Ref{Name: paper.NameMultiplier}, runtime.Config{
				Env: menv, Seed: int64(i), MaxEvents: 200,
			})
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Events) == 0 {
				b.Fatal("no events")
			}
		}
		b.ReportMetric(200, "events/op")
	})
}

func BenchmarkParserThroughput(b *testing.B) {
	srcs := []string{paper.CopierSpec, paper.ProtocolSpec, paper.MultiplierSpec}
	var bytes int
	for _, s := range srcs {
		bytes += len(s)
	}
	b.SetBytes(int64(bytes))
	for i := 0; i < b.N; i++ {
		for _, s := range srcs {
			if _, err := parser.Parse(s); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkBoundedValidity(b *testing.B) {
	env := sem.NewEnv(syntax.NewModule(), 2)
	trans := assertion.Implies{
		L: assertion.And{
			L: assertion.PrefixLE(assertion.Chan("a"), assertion.Chan("b")),
			R: assertion.PrefixLE(assertion.Chan("b"), assertion.Chan("c")),
		},
		R: assertion.PrefixLE(assertion.Chan("a"), assertion.Chan("c")),
	}
	cfg := assertion.ValidityConfig{Env: env, MaxLen: 3}
	for i := 0; i < b.N; i++ {
		cex, err := assertion.Valid(trans, cfg)
		if err != nil || cex != nil {
			b.Fatalf("%v %v", cex, err)
		}
	}
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationOpVsDen compares the two trace engines at equal depth.
func BenchmarkAblationOpVsDen(b *testing.B) {
	env := sem.NewEnv(paper.ProtocolSystem(2), 2)
	p := syntax.Ref{Name: paper.NameProtoNet}
	b.Run("operational", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := op.Traces(p, env, 6); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("denotational", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sem.Denote(p, env, 6); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationNatWidth measures checking cost against the NAT sample
// width (the paper's infinite-domain substitution knob).
func BenchmarkAblationNatWidth(b *testing.B) {
	for _, w := range []int{1, 2, 3, 4} {
		env := sem.NewEnv(paper.CopySystem(), w)
		ck := check.New(env, nil, 7)
		b.Run(fmt.Sprintf("width=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := ck.Sat(syntax.Ref{Name: paper.NameCopySys}, paper.CopyNetSat())
				if err != nil || !res.OK {
					b.Fatalf("%v %v", res, err)
				}
			}
		})
	}
}

// BenchmarkAblationValidityMaxLen measures obligation-discharge cost
// against the bounded-validity history length.
func BenchmarkAblationValidityMaxLen(b *testing.B) {
	env := sem.NewEnv(paper.ProtocolSystem(2), 2)
	msgs := value.Domain(value.IntRange{Lo: 0, Hi: 1})
	for _, maxLen := range []int{2, 3, 4} {
		prover := proof.NewChecker(env, nil)
		prover.Validity = assertion.ValidityConfig{
			MaxLen: maxLen,
			ChanDom: map[string]value.Domain{
				"wire":   value.Union{A: msgs, B: value.NewEnum(value.Sym("ACK"), value.Sym("NACK"))},
				"input":  msgs,
				"output": msgs,
			},
			DefaultDom: msgs,
		}
		b.Run(fmt.Sprintf("maxlen=%d", maxLen), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := prover.Check(proofs.SenderTable1Proof()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationWalkVsTraces compares the incremental WalkDFS checking
// path against materialising and sorting all traces first.
func BenchmarkAblationWalkVsTraces(b *testing.B) {
	env := sem.NewEnv(paper.CopySystem(), 2)
	set, err := op.Traces(syntax.Ref{Name: paper.NameCopyNet}, env, 9)
	if err != nil {
		b.Fatal(err)
	}
	a := paper.CopyNetSat()
	funcs := assertion.NewRegistry()
	b.Run("walkdfs-incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hist := make(trace.History)
			ctx := assertion.NewCtx(env, hist, funcs)
			bad := false
			set.WalkDFS(func(path trace.T) bool {
				ok, err := assertion.Eval(a, ctx)
				if err != nil || !ok {
					bad = true
					return false
				}
				return true
			},
				func(ev trace.Event) { hist[ev.Chan] = append(hist[ev.Chan], ev.Msg) },
				func(ev trace.Event) { hist[ev.Chan] = hist[ev.Chan][:len(hist[ev.Chan])-1] })
			if bad {
				b.Fatal("violation")
			}
		}
	})
	b.Run("materialise-and-ch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, t := range set.Traces() {
				ctx := assertion.NewCtx(env, trace.Ch(t), funcs)
				ok, err := assertion.Eval(a, ctx)
				if err != nil || !ok {
					b.Fatal("violation")
				}
			}
		}
	})
}

// --- E15 (extension): the §4 defect and its resolution in failures ---

func BenchmarkE15FailuresModel(b *testing.B) {
	env := sem.NewEnv(paper.CopySystem(), 2)
	copier := syntax.Ref{Name: paper.NameCopier}
	flaky := syntax.IChoice{L: syntax.Stop{}, R: copier}
	for i := 0; i < b.N; i++ {
		mc, err := failures.Compute(copier, env, 4)
		if err != nil {
			b.Fatal(err)
		}
		mf, err := failures.Compute(flaky, env, 4)
		if err != nil {
			b.Fatal(err)
		}
		cex, err := failures.Equivalent(mf, mc)
		if err != nil {
			b.Fatal(err)
		}
		if cex == nil {
			b.Fatal("failures model must distinguish STOP |~| P from P")
		}
	}
}

// E20: the failures-refinement backend end-to-end — both acceptance-family
// models plus the refinement scan, through the same Checker path cspcheck
// -model failures and /v1/refine use. The negative direction (flaky
// against copier) is the expensive one: the scan cannot stop at trace
// inclusion, it must compare acceptance families.
func BenchmarkE20FailuresRefine(b *testing.B) {
	env := sem.NewEnv(paper.CopySystem(), 2)
	ck := check.New(env, nil, 4)
	ck.Model = model.Failures
	copier := syntax.Ref{Name: paper.NameCopier}
	flaky := syntax.IChoice{L: syntax.Stop{}, R: copier}
	b.Run("holds", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := ck.Refines(copier, flaky)
			if err != nil {
				b.Fatal(err)
			}
			if !res.OK {
				b.Fatalf("copier ⊑F STOP |~| copier must hold: %s", res)
			}
		}
	})
	b.Run("refuted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := ck.Refines(flaky, copier)
			if err != nil {
				b.Fatal(err)
			}
			if res.OK || res.Failure == nil {
				b.Fatal("STOP |~| copier ⊑F copier must fail with a counterexample failure")
			}
		}
	})
}

func BenchmarkFailuresProtocolVsBuffer(b *testing.B) {
	env := sem.NewEnv(paper.ProtocolSystem(2), 2)
	for i := 0; i < b.N; i++ {
		m, err := failures.Compute(syntax.Ref{Name: paper.NameProtocol}, env, 4)
		if err != nil {
			b.Fatal(err)
		}
		if _, can := m.CanDeadlock(); can {
			b.Fatal("protocol deadlocked")
		}
	}
}

// --- Automatic proof synthesis (internal/auto) ---

func BenchmarkAutoProveTable1(b *testing.B) {
	env := sem.NewEnv(paper.ProtocolSystem(2), 2)
	prover := protocolProver()
	goals := []auto.Goal{
		{Name: paper.NameSender, A: paper.SenderSat()},
		{Name: paper.NameQ, A: paper.QSat()},
	}
	for i := 0; i < b.N; i++ {
		pr, err := auto.Recursive(env, goals)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := prover.Check(pr); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Deadlock search (the §4 complement) ---

func BenchmarkDeadlockSearch(b *testing.B) {
	env := sem.NewEnv(paper.ProtocolSystem(2), 2)
	st := op.NewState(syntax.Ref{Name: paper.NameProtocol}, env)
	for i := 0; i < b.N; i++ {
		dls, err := op.FindDeadlocks(context.Background(), st, 6)
		if err != nil {
			b.Fatal(err)
		}
		if len(dls) != 0 {
			b.Fatal("protocol deadlocked")
		}
	}
}

// --- The trace-algebra law catalogue ---

func BenchmarkLawsCatalogue(b *testing.B) {
	env := sem.NewEnv(paper.CopySystem(), 2)
	pool := []syntax.Proc{
		syntax.Stop{},
		syntax.Ref{Name: paper.NameCopier},
		syntax.Ref{Name: paper.NameRecopier},
	}
	for i := 0; i < b.N; i++ {
		if err := laws.CheckAll(env, pool, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Symbol layer: the interning and bitset hot paths the closure engine
// is built on. SymbolInternWarm is the per-edge cost every trie operation
// pays; BitsetAlphabetOps is the per-node cost of Hide/Parallel membership
// probes; UnionAllWide is the k-way merge against its pairwise fold.

func BenchmarkSymbolInternWarm(b *testing.B) {
	e := trace.Event{Chan: "bench_sym", Msg: value.Int(1)}
	e.ID() // intern once; the loop measures the steady state
	c := trace.Chan("bench_sym")
	c.ID()
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += uint64(e.ID()) + uint64(c.ID())
	}
	benchSink = sink
}

// benchSink defeats dead-code elimination of pure id lookups.
var benchSink uint64

func BenchmarkBitsetAlphabetOps(b *testing.B) {
	x := trace.NewSet("input", "wire", "ack")
	y := trace.NewSet("wire", "output")
	cid := trace.Chan("wire").ID()
	x.ID()
	y.ID()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := x.Union(y)
		if !x.ContainsID(cid) || !u.ContainsID(cid) || x.Intersect(y).Len() != 1 {
			b.Fatal("bitset algebra broken")
		}
		if x.ID() == y.ID() {
			b.Fatal("distinct alphabets share an id")
		}
	}
}

func BenchmarkUnionAllWide(b *testing.B) {
	env := sem.NewEnv(paper.CopySystem(), 2)
	var sets []*closure.Set
	for _, name := range []string{paper.NameCopier, paper.NameRecopier, paper.NameCopySys} {
		for depth := 3; depth <= 8; depth++ {
			s, err := op.Traces(syntax.Ref{Name: name}, env, depth)
			if err != nil {
				b.Fatal(err)
			}
			sets = append(sets, s)
		}
	}
	b.Run("kway", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if closure.UnionAll(sets...).Size() == 0 {
				b.Fatal("empty union")
			}
		}
	})
	b.Run("fold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			acc := closure.Stop()
			for _, s := range sets {
				acc = closure.Union(acc, s)
			}
			if acc.Size() == 0 {
				b.Fatal("empty union")
			}
		}
	})
}
