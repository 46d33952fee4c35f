package check_test

import (
	"testing"

	"cspsat/internal/assertion"
	"cspsat/internal/check"
	"cspsat/internal/paper"
	"cspsat/internal/sem"
	"cspsat/internal/syntax"
	"cspsat/internal/value"
)

func TestCopierSatisfiesPaperClaims(t *testing.T) {
	m := paper.CopySystem()
	env := sem.NewEnv(m, 3)
	c := check.New(env, nil, 8)

	tests := []struct {
		name string
		proc string
		a    assertion.A
	}{
		{"E1 copier sat wire<=input", paper.NameCopier, paper.CopierSat()},
		{"E2 copier sat #input<=#wire+1", paper.NameCopier, paper.CopierLenSat()},
		{"E3 recopier sat output<=wire", paper.NameRecopier, paper.RecopierSat()},
		{"E4 copynet sat output<=input", paper.NameCopyNet, paper.CopyNetSat()},
		{"E4 copysys sat output<=input", paper.NameCopySys, paper.CopyNetSat()},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			res, err := c.Sat(syntax.Ref{Name: tc.proc}, tc.a)
			if err != nil {
				t.Fatalf("Sat: %v", err)
			}
			if !res.OK {
				t.Fatalf("violated: %s", res)
			}
			if res.TracesChecked < 10 {
				t.Fatalf("suspiciously few traces checked: %d", res.TracesChecked)
			}
		})
	}
}

func TestCopierViolationDetected(t *testing.T) {
	m := paper.CopySystem()
	env := sem.NewEnv(m, 3)
	c := check.New(env, nil, 6)
	// The converse claim input ≤ wire is false once input runs ahead.
	bad := assertion.PrefixLE(assertion.Chan("input"), assertion.Chan("wire"))
	res, err := c.Sat(syntax.Ref{Name: paper.NameCopier}, bad)
	if err != nil {
		t.Fatalf("Sat: %v", err)
	}
	if res.OK {
		t.Fatal("expected a counterexample for input <= wire on copier")
	}
	if res.Counter == nil || len(res.Counter.Trace) == 0 {
		t.Fatalf("counterexample missing trace: %+v", res)
	}
}

func TestProtocolSatisfiesPaperClaims(t *testing.T) {
	m := paper.ProtocolSystem(2)
	env := sem.NewEnv(m, 2)
	c := check.New(env, nil, 8)

	t.Run("E5 sender sat f(wire)<=input", func(t *testing.T) {
		res, err := c.Sat(syntax.Ref{Name: paper.NameSender}, paper.SenderSat())
		if err != nil {
			t.Fatalf("Sat: %v", err)
		}
		if !res.OK {
			t.Fatalf("violated: %s", res)
		}
	})
	t.Run("E5 lemma forall x. q[x] sat f(wire)<=x^input", func(t *testing.T) {
		// The shared variable x ranges over the sampled messages {0, 1};
		// each instance q[v] sat R[v/x] is checked on its own.
		for v := int64(0); v <= 1; v++ {
			q := syntax.Ref{Name: paper.NameQ, Sub: syntax.IntLit{Val: v}}
			res, err := c.Sat(q, assertion.SubstVar(paper.QSat(), "x", assertion.Lit{Val: value.Int(v)}))
			if err != nil {
				t.Fatalf("Sat x=%d: %v", v, err)
			}
			if !res.OK {
				t.Fatalf("violated for x=%d: %s", v, res)
			}
		}
	})
	t.Run("E6 receiver sat output<=f(wire)", func(t *testing.T) {
		res, err := c.Sat(syntax.Ref{Name: paper.NameReceiver}, paper.ReceiverSat())
		if err != nil {
			t.Fatalf("Sat: %v", err)
		}
		if !res.OK {
			t.Fatalf("violated: %s", res)
		}
	})
	t.Run("E7 protocol sat output<=input", func(t *testing.T) {
		res, err := c.Sat(syntax.Ref{Name: paper.NameProtocol}, paper.ProtocolSat())
		if err != nil {
			t.Fatalf("Sat: %v", err)
		}
		if !res.OK {
			t.Fatalf("violated: %s", res)
		}
		if res.TracesChecked < 10 {
			t.Fatalf("suspiciously few traces: %d", res.TracesChecked)
		}
	})
}

func TestMultiplierScalarProduct(t *testing.T) {
	m := paper.MultiplierSystem([]int64{5, 3, 2})
	env := sem.NewEnv(m, 2)
	// Depth 9 covers one full pipeline round (3 row inputs + 1 output plus
	// slack for interleavings of the second round's inputs).
	c := check.New(env, nil, 9)
	res, err := c.Sat(syntax.Ref{Name: paper.NameMultiplier}, paper.MultiplierSat())
	if err != nil {
		t.Fatalf("Sat: %v", err)
	}
	if !res.OK {
		t.Fatalf("violated: %s", res)
	}
	if res.TracesChecked < 10 {
		t.Fatalf("suspiciously few traces: %d", res.TracesChecked)
	}
}

func TestRefinementAndEquivalence(t *testing.T) {
	m := paper.CopySystem()
	env := sem.NewEnv(m, 2)
	c := check.New(env, nil, 6)

	copier := syntax.Ref{Name: paper.NameCopier}
	// E10: STOP | P is trace-equivalent to P (the §4 defect).
	r, err := c.Equivalent(syntax.Alt{L: syntax.Stop{}, R: copier}, copier)
	if err != nil {
		t.Fatalf("Equivalent: %v", err)
	}
	if !r.OK {
		t.Fatalf("STOP|copier should equal copier in the trace model: %s", r)
	}
	// STOP refines everything; copier does not refine STOP.
	r, err = c.Refines(syntax.Stop{}, copier)
	if err != nil || !r.OK {
		t.Fatalf("STOP should refine copier: %v %s", err, r)
	}
	r, err = c.Refines(copier, syntax.Stop{})
	if err != nil {
		t.Fatalf("Refines: %v", err)
	}
	if r.OK {
		t.Fatal("copier must not refine STOP")
	}
}
