// Package trace implements the paper's §3 vocabulary of observations: a
// communication is a pair c.m of a channel name and a message value, a trace
// is a finite sequence of communications, and ch(s) maps a trace to the
// per-channel histories that the assertion language reads.
//
// Channels are identified by their rendered name: a plain channel is "wire",
// an element of a channel array is "col[2]". Subscripted channels are fully
// evaluated before they reach this package, so identity is plain string
// equality, exactly as in the paper where col[0..3] denotes four distinct
// channels.
package trace

import (
	"sort"
	"strconv"
	"strings"

	"cspsat/internal/value"
)

// Chan is the identity of a single channel. Use Sub to render an element of
// a channel array.
type Chan string

// TauChan is the pseudo-channel labelling the silent steps of internal
// choice (P |~| Q) in the operational semantics. Events on it are always
// hidden; it is not a communicable channel and never appears in visible
// traces or histories.
const TauChan Chan = "τ"

// Sub renders the subscripted channel name c[i], e.g. Sub("col", 2) = "col[2]".
func Sub(name string, i int64) Chan {
	return Chan(name + "[" + strconv.FormatInt(i, 10) + "]")
}

// ArrayName splits a channel identity into its array name and subscript.
// For a plain channel it returns (name, 0, false).
func (c Chan) ArrayName() (name string, sub int64, ok bool) {
	s := string(c)
	open := strings.IndexByte(s, '[')
	if open < 0 || !strings.HasSuffix(s, "]") {
		return s, 0, false
	}
	n, err := strconv.ParseInt(s[open+1:len(s)-1], 10, 64)
	if err != nil {
		return s, 0, false
	}
	return s[:open], n, true
}

// Event is one communication c.m: message m passing on channel c. The paper
// does not distinguish direction — transmission and receipt are the same
// event — and neither do we.
type Event struct {
	Chan Chan
	Msg  value.V
}

// String renders the event in the paper's "c.m" notation.
func (e Event) String() string { return string(e.Chan) + "." + e.Msg.String() }

// Compare totally orders events by channel then message.
func (e Event) Compare(f Event) int {
	if c := strings.Compare(string(e.Chan), string(f.Chan)); c != 0 {
		return c
	}
	return e.Msg.Compare(f.Msg)
}

// T is a trace: a finite sequence of communications, oldest first.
// The nil trace is the empty trace <>.
type T []Event

// String renders the trace in the paper's angle-bracket notation,
// e.g. <input.27, wire.27, input.0>.
func (t T) String() string {
	parts := make([]string, len(t))
	for i, e := range t {
		parts[i] = e.String()
	}
	return "<" + strings.Join(parts, ", ") + ">"
}

// Append returns a new trace extending t by e; t is not modified and the
// result never aliases t's backing array (so traces can be shared freely
// across a breadth-first exploration frontier).
func (t T) Append(e Event) T {
	out := make(T, len(t)+1)
	copy(out, t)
	out[len(t)] = e
	return out
}

// Equal reports whether two traces are identical event sequences.
func (t T) Equal(u T) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i].Chan != u[i].Chan || !t[i].Msg.Equal(u[i].Msg) {
			return false
		}
	}
	return true
}

// Compare orders traces lexicographically (with shorter prefixes first),
// giving trace sets a canonical order.
func (t T) Compare(u T) int {
	for i := 0; i < len(t) && i < len(u); i++ {
		if c := t[i].Compare(u[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(u):
		return -1
	case len(t) > len(u):
		return 1
	default:
		return 0
	}
}

// IsPrefixOf reports the paper's s ≤ t on traces: t begins with s.
func (t T) IsPrefixOf(u T) bool {
	if len(t) > len(u) {
		return false
	}
	for i := range t {
		if t[i].Chan != u[i].Chan || !t[i].Msg.Equal(u[i].Msg) {
			return false
		}
	}
	return true
}

// Prefixes returns all prefixes of t including <> and t itself, shortest
// first. Each returned trace shares t's backing array.
func (t T) Prefixes() []T {
	out := make([]T, len(t)+1)
	for i := 0; i <= len(t); i++ {
		out[i] = t[:i]
	}
	return out
}

// Hide implements the paper's s\C: the trace formed from t by omitting every
// communication on a channel in C.
func (t T) Hide(c Set) T {
	var out T
	for _, e := range t {
		if !c.Contains(e.Chan) {
			out = append(out, e)
		}
	}
	return out
}

// ProjectOnto restricts t to the communications on channels in X. It equals
// t.Hide(complement of X); the paper writes it s\(A−X) and uses it to define
// alphabetized parallel composition.
func (t T) ProjectOnto(x Set) T {
	var out T
	for _, e := range t {
		if x.Contains(e.Chan) {
			out = append(out, e)
		}
	}
	return out
}

// Key returns a canonical string identity for the trace, for use as a map key.
func (t T) Key() string {
	var sb strings.Builder
	for _, e := range t {
		sb.WriteString(string(e.Chan))
		sb.WriteByte(':')
		sb.WriteString(e.Msg.Key())
		sb.WriteByte(';')
	}
	return sb.String()
}

// IDKey returns a compact canonical identity for the trace: the packed
// interned event ids, 4 bytes per event. Equal traces have equal IDKeys
// (and vice versa) for the process lifetime, since event ids are stable.
// Prefer this over Key for map keys on hot paths — it is one small
// allocation and never re-renders channel names or message payloads.
func (t T) IDKey() string {
	b := make([]byte, 0, 4*len(t))
	for _, e := range t {
		id := e.ID()
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return string(b)
}

// History is ch(s): a finite map from channel to the sequence of messages
// communicated on that channel, in order. Channels absent from the map have
// the empty history, matching the paper's ch(s)(c) = <> for unused c.
type History map[Chan][]value.V

// Ch computes the paper's ch(s) for a trace. All per-channel sequences
// share one backing array sized up front (traces are short, so the extra
// scan per distinct channel is cheaper than regrowing per-channel slices);
// the three-index subslices keep them from stepping on each other if a
// caller appends.
func Ch(t T) History {
	h := make(History, 4)
	if len(t) == 0 {
		return h
	}
	buf := make([]value.V, 0, len(t))
	for i, e := range t {
		if _, done := h[e.Chan]; done {
			continue
		}
		start := len(buf)
		buf = append(buf, e.Msg)
		for _, f := range t[i+1:] {
			if f.Chan == e.Chan {
				buf = append(buf, f.Msg)
			}
		}
		h[e.Chan] = buf[start:len(buf):len(buf)]
	}
	return h
}

// Get returns the message sequence for channel c (empty if none).
func (h History) Get(c Chan) []value.V { return h[c] }

// Len returns the paper's #c for channel c.
func (h History) Len(c Chan) int { return len(h[c]) }

// At returns the paper's c_i, the i-th message on channel c with 1-based
// indexing as in the paper; ok is false when i is out of range.
func (h History) At(c Chan, i int) (value.V, bool) {
	seq := h[c]
	if i < 1 || i > len(seq) {
		return value.V{}, false
	}
	return seq[i-1], true
}

// Channels returns the channels with a non-empty history, sorted.
func (h History) Channels() []Chan {
	out := make([]Chan, 0, len(h))
	for c := range h {
		if len(h[c]) > 0 {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the history deterministically, e.g. "input=<27,0>, wire=<27>".
func (h History) String() string {
	cs := h.Channels()
	parts := make([]string, 0, len(cs))
	for _, c := range cs {
		parts = append(parts, string(c)+"="+value.SeqOf(h[c]).String())
	}
	if len(parts) == 0 {
		return "(all channels empty)"
	}
	return strings.Join(parts, ", ")
}

// Clone returns a deep copy of the history.
func (h History) Clone() History {
	out := make(History, len(h))
	for c, seq := range h {
		cp := make([]value.V, len(seq))
		copy(cp, seq)
		out[c] = cp
	}
	return out
}

// IsPrefixSeq reports the paper's s ≤ t on value sequences: t begins with s.
func IsPrefixSeq(s, t []value.V) bool {
	if len(s) > len(t) {
		return false
	}
	for i := range s {
		if !s[i].Equal(t[i]) {
			return false
		}
	}
	return true
}
