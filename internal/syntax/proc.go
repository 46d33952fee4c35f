package syntax

import (
	"strconv"
	"sync"
)

// Proc is a process expression (§1.2). The constructors correspond one-for-
// one with the paper's forms:
//
//	STOP               Stop
//	p, q[e]            Ref
//	(c!e → P)          Output
//	(c?x:M → P)        Input
//	(P | Q)            Alt
//	(P X‖Y Q)          Par
//	(chan L; P)        Hiding
type Proc interface {
	procNode()
	String() string
}

// Stop is the process that never does anything; its only trace is <>.
type Stop struct{}

// Ref is a (possibly subscripted) process-name reference: "copier" or
// "q[y]". References are resolved against the enclosing Module's
// definitions, recursively in the usual sense (§1.1(7)-(8)).
type Ref struct {
	Name string
	Sub  Expr // nil for a plain process name
}

// Output is (c!e → P): first communicate the value of e on channel c, then
// behave like Cont.
type Output struct {
	Ch   ChanRef
	Val  Expr
	Cont Proc
}

// Input is (c?x:M → P): communicate on channel c any value of the set M,
// bind it to Var, then behave like Cont.
type Input struct {
	Ch   ChanRef
	Var  string
	Dom  SetExpr
	Cont Proc
}

// Alt is (P | Q): behave like P or like Q, the choice non-deterministic.
// In the paper's trace model this denotes the union of behaviours; the
// operational semantics offers both sides' communications from one state,
// so at stable states it behaves like external choice.
type Alt struct {
	L, R Proc
}

// IChoice is (P |~| Q): *internal* (non-deterministic) choice, the
// extension the paper's conclusion calls for. In the trace model it is
// indistinguishable from Alt — that is exactly the §4 defect — but the
// operational semantics resolves it by a silent τ-step to one side, so the
// stable-failures model (internal/failures) tells them apart:
// STOP |~| P may refuse everything, STOP | P may not.
type IChoice struct {
	L, R Proc
}

// Par is (P X‖Y Q): parallel composition with alphabets X and Y. When
// AlphaL/AlphaR are nil the alphabets are inferred from the channel names
// occurring in each side (the paper's default reading); explicit lists
// override the inference for the cases the paper glosses over ("when the
// content of the sets X and Y are clear from the context").
type Par struct {
	L, R           Proc
	AlphaL, AlphaR []ChanItem
}

// Hiding is (chan L; P): communications on the channels of L become
// internal, removed from externally recordable traces.
type Hiding struct {
	Channels []ChanItem
	Body     Proc
}

func (Stop) procNode()    {}
func (Ref) procNode()     {}
func (Output) procNode()  {}
func (Input) procNode()   {}
func (Alt) procNode()     {}
func (IChoice) procNode() {}
func (Par) procNode()     {}
func (Hiding) procNode()  {}

// The String methods render through one shared pooled buffer rather than
// by concatenation: per-level concatenation is quadratic in term depth —
// dominated by parallel networks whose every composition node carries its
// full alphabet annotation — and successor terms are rendered to break
// ties in the op engine's transition order. The only per-render
// allocation is the final string copy.

func (p Stop) String() string    { return render(p) }
func (p Ref) String() string     { return render(p) }
func (p Output) String() string  { return render(p) }
func (p Input) String() string   { return render(p) }
func (p Alt) String() string     { return render(p) }
func (p IChoice) String() string { return render(p) }
func (p Par) String() string     { return render(p) }
func (p Hiding) String() string  { return render(p) }

// pbuf is the append-only byte sink the renderer writes through; pooled so
// the scratch buffer is reused across renders.
type pbuf struct{ b []byte }

func (w *pbuf) WriteString(s string) { w.b = append(w.b, s...) }
func (w *pbuf) writeByte(c byte)     { w.b = append(w.b, c) }

var renderPool = sync.Pool{New: func() any { return &pbuf{b: make([]byte, 0, 512)} }}

func render(p Proc) string {
	w := renderPool.Get().(*pbuf)
	writeProc(w, p)
	out := string(w.b)
	w.b = w.b[:0]
	renderPool.Put(w)
	return out
}

func writeProc(b *pbuf, p Proc) {
	switch t := p.(type) {
	case Stop:
		b.WriteString("STOP")
	case Ref:
		b.WriteString(t.Name)
		if t.Sub != nil {
			b.writeByte('[')
			writeExpr(b, t.Sub)
			b.writeByte(']')
		}
	case Output:
		writeChanRef(b, t.Ch)
		b.writeByte('!')
		writeExpr(b, t.Val)
		b.WriteString(" -> ")
		writeCont(b, t.Cont)
	case Input:
		writeChanRef(b, t.Ch)
		b.writeByte('?')
		b.WriteString(t.Var)
		b.writeByte(':')
		b.WriteString(t.Dom.String())
		b.WriteString(" -> ")
		writeCont(b, t.Cont)
	case Alt:
		b.writeByte('(')
		writeProc(b, t.L)
		b.WriteString(" | ")
		writeProc(b, t.R)
		b.writeByte(')')
	case IChoice:
		b.writeByte('(')
		writeProc(b, t.L)
		b.WriteString(" |~| ")
		writeProc(b, t.R)
		b.writeByte(')')
	case Par:
		b.writeByte('(')
		writeProc(b, t.L)
		if t.AlphaL == nil && t.AlphaR == nil {
			b.WriteString(" || ")
		} else {
			b.WriteString(" [")
			writeChanItems(b, t.AlphaL)
			b.WriteString(" || ")
			writeChanItems(b, t.AlphaR)
			b.WriteString("] ")
		}
		writeProc(b, t.R)
		b.writeByte(')')
	case Hiding:
		b.WriteString("(chan ")
		writeChanItems(b, t.Channels)
		b.WriteString("; ")
		writeProc(b, t.Body)
		b.writeByte(')')
	default:
		b.WriteString(p.String())
	}
}

// writeCont renders a prefix continuation without extra parentheses,
// matching the paper's right-associative arrow convention.
func writeCont(b *pbuf, p Proc) {
	switch p.(type) {
	case Output, Input, Stop, Ref:
		writeProc(b, p)
	default:
		b.writeByte('(')
		writeProc(b, p)
		b.writeByte(')')
	}
}

// writeExpr appends an expression, formatting integer literals — the
// overwhelmingly common case in substituted terms and alphabet
// annotations — without going through the fmt machinery.
func writeExpr(b *pbuf, e Expr) {
	if n, ok := e.(IntLit); ok {
		b.b = strconv.AppendInt(b.b, n.Val, 10)
		return
	}
	b.WriteString(e.String())
}

func writeChanRef(b *pbuf, c ChanRef) {
	b.WriteString(c.Name)
	if c.Sub != nil {
		b.writeByte('[')
		writeExpr(b, c.Sub)
		b.writeByte(']')
	}
}

func writeChanItems(b *pbuf, items []ChanItem) {
	for i, it := range items {
		if i > 0 {
			b.writeByte(',')
		}
		b.WriteString(it.Name)
		switch {
		case it.Lo != nil:
			b.writeByte('[')
			writeExpr(b, it.Lo)
			b.WriteString("..")
			writeExpr(b, it.Hi)
			b.writeByte(']')
		case it.Sub != nil:
			b.writeByte('[')
			writeExpr(b, it.Sub)
			b.writeByte(']')
		}
	}
}

// ParAll folds a list of processes into a left-nested chain of inferred-
// alphabet parallel compositions, as in the paper's multi-process network
// (zeroes ‖ mult[1] ‖ mult[2] ‖ mult[3] ‖ last).
func ParAll(ps ...Proc) Proc {
	if len(ps) == 0 {
		return Stop{}
	}
	out := ps[0]
	for _, p := range ps[1:] {
		out = Par{L: out, R: p}
	}
	return out
}
