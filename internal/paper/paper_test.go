package paper_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cspsat/internal/op"
	"cspsat/internal/paper"
	"cspsat/internal/sem"
	"cspsat/internal/syntax"
	"cspsat/internal/trace"
	"cspsat/internal/value"
)

func TestCopySystemShape(t *testing.T) {
	m := paper.CopySystem()
	for _, name := range []string{paper.NameCopier, paper.NameRecopier, paper.NameCopyNet, paper.NameCopySys} {
		if _, ok := m.Lookup(name); !ok {
			t.Errorf("missing definition %q", name)
		}
	}
	d, _ := m.Lookup(paper.NameCopier)
	if got := d.Body.String(); got != "input?x:NAT -> wire!x -> copier" {
		t.Errorf("copier body = %q", got)
	}
}

func TestProtocolSystemShape(t *testing.T) {
	m := paper.ProtocolSystem(2)
	q, ok := m.Lookup(paper.NameQ)
	if !ok || !q.IsArray() || q.Param != "x" {
		t.Fatalf("q definition wrong: %+v", q)
	}
	if got := q.Body.String(); !strings.Contains(got, "wire?y:{ACK}") || !strings.Contains(got, "wire?y:{NACK}") {
		t.Errorf("q body = %q", got)
	}
	if _, ok := m.Sets["M"]; !ok {
		t.Error("message set M not declared")
	}
}

func TestMultiplierSystemShape(t *testing.T) {
	m := paper.MultiplierSystem([]int64{5, 3, 2})
	arr, ok := m.Arrays["v"]
	if !ok || arr.Lo != 1 || len(arr.Elems) != 3 {
		t.Fatalf("vector v wrong: %+v", arr)
	}
	mult, ok := m.Lookup(paper.NameMult)
	if !ok || !mult.IsArray() {
		t.Fatal("mult not an array definition")
	}
	defer func() {
		if recover() == nil {
			t.Error("wrong-length vector accepted")
		}
	}()
	paper.MultiplierSystem([]int64{1, 2})
}

func TestBufferChain(t *testing.T) {
	// n=1 degenerates to a single buffer with no hiding.
	m1 := paper.BufferChain(1)
	d, _ := m1.Lookup(paper.NameChainSys)
	if _, isHide := d.Body.(syntax.Hiding); isHide {
		t.Error("n=1 chain should not hide anything")
	}
	// n=3: three buffers, hidden internals, behaves like a 3-place buffer.
	m3 := paper.BufferChain(3)
	env := sem.NewEnv(m3, 2)
	set, err := op.Traces(syntax.Ref{Name: paper.NameChainSys}, env, 4)
	if err != nil {
		t.Fatal(err)
	}
	// It can absorb three inputs before any output...
	three := trace.T{}
	for i := 0; i < 3; i++ {
		three = three.Append(trace.Event{Chan: "input", Msg: value.Int(0)})
	}
	if !set.Contains(three) {
		t.Errorf("3-chain cannot absorb 3 inputs: %s", set)
	}
	// ...and every output copies an input.
	for _, tr := range set.Traces() {
		h := trace.Ch(tr)
		if !trace.IsPrefixSeq(h.Get("output"), h.Get("input")) {
			t.Fatalf("chain violates output <= input on %s", tr)
		}
	}
	// No internal channels leak.
	for _, tr := range set.Traces() {
		for _, e := range tr {
			if e.Chan != "input" && e.Chan != "output" {
				t.Fatalf("internal channel %s visible", e.Chan)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("BufferChain(0) accepted")
		}
	}()
	paper.BufferChain(0)
}

func TestSpecConstantsParseIdentically(t *testing.T) {
	// Exercised in depth by internal/parser tests; here just pin that the
	// constants are non-empty and mention their systems.
	if !strings.Contains(paper.CopierSpec, "copier =") ||
		!strings.Contains(paper.ProtocolSpec, "protocol =") ||
		!strings.Contains(paper.MultiplierSpec, "multiplier =") {
		t.Error("spec constants drifted")
	}
}

// TestSpecFilesMatchCanonicalText pins the on-disk spec files to the
// canonical constants in this package.
func TestSpecFilesMatchCanonicalText(t *testing.T) {
	cases := []struct {
		file string
		want string
	}{
		{"copier.csp", paper.CopierSpec},
		{"protocol.csp", paper.ProtocolSpec},
		{"multiplier.csp", paper.MultiplierSpec},
	}
	for _, tc := range cases {
		data, err := os.ReadFile(filepath.Join("..", "..", "specs", tc.file))
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		if string(data) != tc.want {
			t.Errorf("specs/%s has drifted from paper.%s constant", tc.file, tc.file)
		}
	}
}
