// Package value defines the message values that flow along CSP channels and
// the (possibly bounded) domains that input commands draw from.
//
// The paper's language is untyped: a message is "a value" and input commands
// name a set M of acceptable values (e.g. NAT, {0..3}, {ACK, NACK}). We model
// values as a small closed sum — integers, symbols, and booleans — which is
// everything the paper's examples use, and domains as finite enumerable sets.
// The paper's infinite NAT is represented by a *sampled* domain: membership is
// unbounded (any non-negative integer belongs) but enumeration is cut off at a
// configurable width so that the finite-branching engines (operational
// semantics, model checker, denotational approximation) stay finite. See
// DESIGN.md §3 for why this preserves the paper's partial-correctness claims.
package value

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Kind discriminates the closed sum of value shapes.
type Kind int

const (
	// KindInt is an integer message such as 3 or 27.
	KindInt Kind = iota + 1
	// KindSym is a symbolic message such as ACK or NACK.
	KindSym
	// KindBool is a boolean message (used by assertions, not the paper's examples).
	KindBool
	// KindSeq is a finite sequence of values. Sequences never travel on
	// channels in the paper's examples, but assertion evaluation needs them
	// as first-class values (channel histories are sequence-valued).
	KindSeq
)

func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindSym:
		return "sym"
	case KindBool:
		return "bool"
	case KindSeq:
		return "seq"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// V is a message value. The zero V is invalid; construct values with Int,
// Sym, Bool or Seq. V is comparable by Equal and totally ordered by Compare
// (ordering is by kind, then by payload) so that trace sets can be kept
// sorted and deduplicated deterministically.
type V struct {
	kind Kind
	i    int64
	s    string
	b    bool
	seq  []V
}

// Int returns an integer value.
func Int(i int64) V { return V{kind: KindInt, i: i} }

// Sym returns a symbolic value such as Sym("ACK").
func Sym(s string) V { return V{kind: KindSym, s: s} }

// Bool returns a boolean value.
func Bool(b bool) V { return V{kind: KindBool, b: b} }

// Seq returns a sequence value holding the given elements. The slice is
// copied so callers may reuse their backing array.
func Seq(elems ...V) V {
	cp := make([]V, len(elems))
	copy(cp, elems)
	return V{kind: KindSeq, seq: cp}
}

// SeqOf wraps an existing slice as a sequence value without copying.
// The caller must not mutate the slice afterwards.
func SeqOf(elems []V) V { return V{kind: KindSeq, seq: elems} }

// Kind reports the shape of the value.
func (v V) Kind() Kind { return v.kind }

// IsZero reports whether v is the invalid zero value.
func (v V) IsZero() bool { return v.kind == 0 }

// AsInt returns the integer payload; it panics if the value is not an int.
func (v V) AsInt() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("value: AsInt on %v", v))
	}
	return v.i
}

// AsSym returns the symbol payload; it panics if the value is not a symbol.
func (v V) AsSym() string {
	if v.kind != KindSym {
		panic(fmt.Sprintf("value: AsSym on %v", v))
	}
	return v.s
}

// AsBool returns the boolean payload; it panics if the value is not a bool.
func (v V) AsBool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("value: AsBool on %v", v))
	}
	return v.b
}

// AsSeq returns the sequence payload; it panics if the value is not a
// sequence. The returned slice must not be mutated.
func (v V) AsSeq() []V {
	if v.kind != KindSeq {
		panic(fmt.Sprintf("value: AsSeq on %v", v))
	}
	return v.seq
}

// Equal reports deep equality of two values.
func (v V) Equal(w V) bool { return v.Compare(w) == 0 }

// Compare totally orders values: first by kind, then by payload
// (lexicographically for sequences). It returns -1, 0, or +1.
func (v V) Compare(w V) int {
	if v.kind != w.kind {
		if v.kind < w.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindInt:
		switch {
		case v.i < w.i:
			return -1
		case v.i > w.i:
			return 1
		}
		return 0
	case KindSym:
		return strings.Compare(v.s, w.s)
	case KindBool:
		switch {
		case !v.b && w.b:
			return -1
		case v.b && !w.b:
			return 1
		}
		return 0
	case KindSeq:
		for i := 0; i < len(v.seq) && i < len(w.seq); i++ {
			if c := v.seq[i].Compare(w.seq[i]); c != 0 {
				return c
			}
		}
		switch {
		case len(v.seq) < len(w.seq):
			return -1
		case len(v.seq) > len(w.seq):
			return 1
		}
		return 0
	default:
		return 0
	}
}

// String renders the value in the paper's concrete syntax: integers and
// symbols bare, sequences in angle brackets.
func (v V) String() string {
	if v.kind == KindSym {
		return v.s
	}
	var buf [32]byte
	return string(v.AppendTo(buf[:0]))
}

// AppendTo appends the String rendering of v to b and returns the
// extended buffer.
func (v V) AppendTo(b []byte) []byte {
	switch v.kind {
	case KindInt:
		return strconv.AppendInt(b, v.i, 10)
	case KindSym:
		return append(b, v.s...)
	case KindBool:
		return strconv.AppendBool(b, v.b)
	case KindSeq:
		b = append(b, '<')
		for i, e := range v.seq {
			if i > 0 {
				b = append(b, ',')
			}
			b = e.AppendTo(b)
		}
		return append(b, '>')
	default:
		return append(b, "<?invalid value?>"...)
	}
}

// Key returns a compact string usable as a map key. Unlike String it is
// unambiguous across kinds (e.g. Sym("3") vs Int(3)).
func (v V) Key() string {
	switch v.kind {
	case KindInt:
		return fmt.Sprintf("i%d", v.i)
	case KindSym:
		return "s" + v.s
	case KindBool:
		if v.b {
			return "bT"
		}
		return "bF"
	case KindSeq:
		var sb strings.Builder
		sb.WriteByte('q')
		for _, e := range v.seq {
			sb.WriteByte('[')
			sb.WriteString(e.Key())
			sb.WriteByte(']')
		}
		return sb.String()
	default:
		return "?"
	}
}

// Domain is a set of message values that an input command may accept.
// Domains support membership tests over their full (possibly infinite)
// extent and enumeration of a finite sample for the bounded engines.
type Domain interface {
	// Contains reports whether v belongs to the domain in its full,
	// mathematical extent (e.g. NAT contains every non-negative integer).
	Contains(v V) bool
	// Enumerate returns the finite sample of the domain used by
	// finite-branching engines, in a deterministic order.
	Enumerate() []V
	// IsFinite reports whether Enumerate covers the whole domain.
	IsFinite() bool
	// String renders the domain in the paper's notation, e.g. "NAT",
	// "{0..3}", "{ACK,NACK}".
	String() string
}

// IntRange is the finite integer domain {Lo..Hi} (inclusive).
type IntRange struct {
	Lo, Hi int64
}

// Contains implements Domain.
func (r IntRange) Contains(v V) bool {
	return v.kind == KindInt && v.i >= r.Lo && v.i <= r.Hi
}

// Enumerate implements Domain.
func (r IntRange) Enumerate() []V {
	if r.Hi < r.Lo {
		return nil
	}
	out := make([]V, 0, r.Hi-r.Lo+1)
	for i := r.Lo; i <= r.Hi; i++ {
		out = append(out, Int(i))
	}
	return out
}

// IsFinite implements Domain.
func (r IntRange) IsFinite() bool { return true }

func (r IntRange) String() string { return fmt.Sprintf("{%d..%d}", r.Lo, r.Hi) }

// Enum is a finite enumerated domain such as {ACK, NACK}.
type Enum struct {
	elems []V
}

// NewEnum builds an enumerated domain from the given values, deduplicated
// and sorted for deterministic enumeration.
func NewEnum(elems ...V) Enum {
	cp := make([]V, len(elems))
	copy(cp, elems)
	sort.Slice(cp, func(i, j int) bool { return cp[i].Compare(cp[j]) < 0 })
	out := cp[:0]
	for i, e := range cp {
		if i == 0 || !e.Equal(cp[i-1]) {
			out = append(out, e)
		}
	}
	return Enum{elems: out}
}

// Contains implements Domain.
func (e Enum) Contains(v V) bool {
	for _, x := range e.elems {
		if x.Equal(v) {
			return true
		}
	}
	return false
}

// Enumerate implements Domain.
func (e Enum) Enumerate() []V {
	out := make([]V, len(e.elems))
	copy(out, e.elems)
	return out
}

// IsFinite implements Domain.
func (e Enum) IsFinite() bool { return true }

func (e Enum) String() string {
	parts := make([]string, len(e.elems))
	for i, x := range e.elems {
		parts[i] = x.String()
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Nat is the paper's NAT: the infinite domain of natural numbers.
// Membership is genuinely unbounded; enumeration yields the sample
// {0..SampleWidth-1}. A zero SampleWidth enumerates the default width.
type Nat struct {
	// SampleWidth is how many naturals Enumerate yields. Zero means
	// DefaultNatSample.
	SampleWidth int
}

// DefaultNatSample is the enumeration width used by Nat when SampleWidth is
// zero. Small by design: partial-correctness assertions are value-uniform,
// so a narrow sample exercises the same control paths as the full domain
// while keeping state spaces tractable.
const DefaultNatSample = 3

// Contains implements Domain: every non-negative integer is a natural.
func (n Nat) Contains(v V) bool { return v.kind == KindInt && v.i >= 0 }

// Enumerate implements Domain, yielding the finite sample 0..width-1.
func (n Nat) Enumerate() []V {
	w := n.SampleWidth
	if w <= 0 {
		w = DefaultNatSample
	}
	out := make([]V, w)
	for i := 0; i < w; i++ {
		out[i] = Int(int64(i))
	}
	return out
}

// IsFinite implements Domain: NAT is infinite, its sample is not the whole set.
func (n Nat) IsFinite() bool { return false }

func (n Nat) String() string { return "NAT" }

// Union is the domain-theoretic union of two domains, needed for channels
// that carry messages from several sets (the protocol's wire carries
// M ∪ {ACK, NACK}).
type Union struct {
	A, B Domain
}

// Contains implements Domain.
func (u Union) Contains(v V) bool { return u.A.Contains(v) || u.B.Contains(v) }

// Enumerate implements Domain, concatenating the two samples with
// duplicates removed, preserving deterministic order.
func (u Union) Enumerate() []V {
	seen := map[string]bool{}
	var out []V
	for _, v := range append(u.A.Enumerate(), u.B.Enumerate()...) {
		k := v.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, v)
		}
	}
	return out
}

// IsFinite implements Domain.
func (u Union) IsFinite() bool { return u.A.IsFinite() && u.B.IsFinite() }

func (u Union) String() string { return u.A.String() + "∪" + u.B.String() }
