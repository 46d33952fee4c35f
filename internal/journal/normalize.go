package journal

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// Normalize renders a response body into its canonical comparable form:
// the bytes encoding/json produces when it decodes the body into an `any`
// (numbers as json.Number) and marshals it again, with the VolatileKeys
// stripped at every depth. That is compact JSON with every object's
// members sorted by decoded key, the last of duplicate keys kept, numbers
// exactly as written, and strings escaped as json.Marshal escapes them.
// A body encoding/json would reject — not one JSON value, trailing bytes
// other than whitespace, or nesting deeper than 10,000 — is returned
// as-is: such a body has no volatile fields to forgive, so raw equality is
// the right comparison.
//
// The rendering is one validating pass over the bytes; FuzzNormalize pins
// it, byte for byte, to the decode-and-marshal reference it replaced, so
// every digest recorded before keeps verifying.
func Normalize(body []byte) []byte {
	n := normalizers.Get().(*normalizer)
	defer n.release()
	out, ok := n.normalize(body)
	if !ok {
		return body
	}
	return bytes.Clone(out)
}

// Digest returns the hex SHA-256 of the normalized body — the value
// recorded in Record.RespDigest and recomputed by replay.
func Digest(body []byte) string {
	n := normalizers.Get().(*normalizer)
	defer n.release()
	out, ok := n.normalize(body)
	if !ok {
		out = body
	}
	sum := sha256.Sum256(out)
	var hexSum [2 * sha256.Size]byte
	hex.Encode(hexSum[:], sum[:])
	return string(hexSum[:])
}

// maxDepth is encoding/json's nesting limit: its scanner rejects the
// 10,001st open bracket.
const maxDepth = 10000

var normalizers = sync.Pool{New: func() any { return new(normalizer) }}

// normalizer renders one body into normal form. Its buffers are reused
// through normalizers, so a warm Digest allocates only its result.
type normalizer struct {
	in  []byte
	pos int
	out []byte
	// members holds one entry per member of every object still open,
	// innermost object's last; keys holds their decoded keys in the same
	// stack order.
	members []member
	keys    []byte
	// scratch holds an object's rendered members while they are copied
	// back in key order.
	scratch []byte
}

// member is one rendered `"key":value` of an open object: its decoded key
// is keys[keyStart:keyEnd] and its rendering out[start:end].
type member struct {
	keyStart, keyEnd int
	start, end       int
}

func (n *normalizer) release() {
	n.in = nil
	normalizers.Put(n)
}

// normalize renders body into n.out, reporting false where encoding/json
// would fail.
func (n *normalizer) normalize(body []byte) ([]byte, bool) {
	n.in, n.pos = body, 0
	n.out, n.members, n.keys = n.out[:0], n.members[:0], n.keys[:0]
	if !n.value(0) {
		return nil, false
	}
	n.skipSpace()
	return n.out, n.pos == len(n.in)
}

// skipSpace skips the four bytes JSON counts as whitespace.
func (n *normalizer) skipSpace() {
	i := n.pos
	for i < len(n.in) && (n.in[i] == ' ' || n.in[i] == '\t' || n.in[i] == '\n' || n.in[i] == '\r') {
		i++
	}
	n.pos = i
}

// next skips whitespace and returns the byte at the cursor, or 0 at the
// end of the input (a 0 byte is never valid there either).
func (n *normalizer) next() byte {
	n.skipSpace()
	if n.pos == len(n.in) {
		return 0
	}
	return n.in[n.pos]
}

// value renders one value found inside depth open containers.
func (n *normalizer) value(depth int) bool {
	switch c := n.next(); {
	case c == '{':
		return n.object(depth + 1)
	case c == '[':
		return n.array(depth + 1)
	case c == '"':
		return n.str(false)
	case c == '-' || '0' <= c && c <= '9':
		return n.number()
	case c == 't':
		return n.literal("true")
	case c == 'f':
		return n.literal("false")
	case c == 'n':
		return n.literal("null")
	}
	return false
}

func (n *normalizer) literal(lit string) bool {
	if len(n.in)-n.pos < len(lit) || string(n.in[n.pos:n.pos+len(lit)]) != lit {
		return false
	}
	n.pos += len(lit)
	n.out = append(n.out, lit...)
	return true
}

// number validates a number against the JSON grammar and copies it as
// written, as a json.Number round-trips it.
func (n *normalizer) number() bool {
	start := n.pos
	if n.in[n.pos] == '-' {
		n.pos++
	}
	switch {
	case n.pos < len(n.in) && n.in[n.pos] == '0':
		n.pos++
	case !n.digits():
		return false
	}
	if n.pos < len(n.in) && n.in[n.pos] == '.' {
		n.pos++
		if !n.digits() {
			return false
		}
	}
	if n.pos < len(n.in) && (n.in[n.pos] == 'e' || n.in[n.pos] == 'E') {
		n.pos++
		if n.pos < len(n.in) && (n.in[n.pos] == '+' || n.in[n.pos] == '-') {
			n.pos++
		}
		if !n.digits() {
			return false
		}
	}
	n.out = append(n.out, n.in[start:n.pos]...)
	return true
}

// digits skips a run of decimal digits, reporting whether it was non-empty.
func (n *normalizer) digits() bool {
	start := n.pos
	for n.pos < len(n.in) && '0' <= n.in[n.pos] && n.in[n.pos] <= '9' {
		n.pos++
	}
	return n.pos > start
}

func (n *normalizer) array(depth int) bool {
	if depth > maxDepth {
		return false
	}
	n.pos++
	n.out = append(n.out, '[')
	if n.next() == ']' {
		n.pos++
		n.out = append(n.out, ']')
		return true
	}
	for {
		if !n.value(depth) {
			return false
		}
		switch n.next() {
		case ',':
			n.pos++
			n.out = append(n.out, ',')
		case ']':
			n.pos++
			n.out = append(n.out, ']')
			return true
		default:
			return false
		}
	}
}

// object renders the members as they come, then puts them in key order
// unless they already are.
func (n *normalizer) object(depth int) bool {
	if depth > maxDepth {
		return false
	}
	n.pos++
	n.out = append(n.out, '{')
	first, keyBase := len(n.members), len(n.keys)
	if n.next() == '}' {
		n.pos++
		n.out = append(n.out, '}')
		return true
	}
	for {
		if n.next() != '"' {
			return false
		}
		if len(n.members) > first {
			n.out = append(n.out, ',')
		}
		m := member{keyStart: len(n.keys), start: len(n.out)}
		if !n.str(true) {
			return false
		}
		m.keyEnd = len(n.keys)
		if n.next() != ':' {
			return false
		}
		n.pos++
		n.out = append(n.out, ':')
		if !n.value(depth) {
			return false
		}
		m.end = len(n.out)
		n.members = append(n.members, m)
		switch n.next() {
		case ',':
			n.pos++
		case '}':
			n.pos++
			n.sortMembers(first)
			n.members, n.keys = n.members[:first], n.keys[:keyBase]
			n.out = append(n.out, '}')
			return true
		default:
			return false
		}
	}
}

func (n *normalizer) key(m member) []byte { return n.keys[m.keyStart:m.keyEnd] }

// sortMembers rewrites the members of the innermost object, members[first:],
// as a map[string]any marshals: sorted by decoded key, the last of equal
// keys kept, volatile keys dropped. Members already in strictly increasing
// key order with none volatile are left where they were rendered.
func (n *normalizer) sortMembers(first int) {
	ms := n.members[first:]
	inOrder := true
	for i, m := range ms {
		if VolatileKeys[string(n.key(m))] || i > 0 && bytes.Compare(n.key(ms[i-1]), n.key(m)) >= 0 {
			inOrder = false
			break
		}
	}
	if inOrder {
		return
	}
	open := ms[0].start
	slices.SortStableFunc(ms, func(a, b member) int { return bytes.Compare(n.key(a), n.key(b)) })
	n.scratch = append(n.scratch[:0], n.out[open:]...)
	n.out = n.out[:open]
	for i, m := range ms {
		k := n.key(m)
		if i+1 < len(ms) && bytes.Equal(k, n.key(ms[i+1])) || VolatileKeys[string(k)] {
			continue
		}
		if len(n.out) > open {
			n.out = append(n.out, ',')
		}
		n.out = append(n.out, n.scratch[m.start-open:m.end-open]...)
	}
}

// str renders a string as json.Marshal renders its decoded value; with
// key, it also appends the decoded value to n.keys. Bytes that decode to
// themselves and that Marshal writes as they are (most of any real body)
// are copied in runs.
func (n *normalizer) str(key bool) bool {
	in, i := n.in, n.pos+1
	n.out = append(n.out, '"')
	run := i
	for i < len(in) {
		c := in[i]
		if c < utf8.RuneSelf {
			if plain[c] {
				i++
				continue
			}
		} else if r, size := utf8.DecodeRune(in[i:]); r != '\u2028' && r != '\u2029' && (r != utf8.RuneError || size > 1) {
			i += size
			continue
		}
		n.out = append(n.out, in[run:i]...)
		if key {
			n.keys = append(n.keys, in[run:i]...)
		}
		n.pos = i
		switch {
		case c == '"':
			n.pos++
			n.out = append(n.out, '"')
			return true
		case c == '\\':
			r, ok := n.escape()
			if !ok {
				return false
			}
			n.decoded(r, key)
		case c < ' ':
			return false
		case c < utf8.RuneSelf: // <, > or &
			n.pos++
			n.decoded(rune(c), key)
		default: // U+2028, U+2029, or an invalid byte, which decodes to U+FFFD
			r, size := utf8.DecodeRune(in[i:])
			n.pos += size
			n.decoded(r, key)
		}
		i, run = n.pos, n.pos
	}
	return false
}

// escape decodes the escape sequence at the cursor as encoding/json
// does: a surrogate pair becomes its code point, and a surrogate not part
// of a pair becomes U+FFFD.
func (n *normalizer) escape() (rune, bool) {
	if n.pos+1 >= len(n.in) {
		return 0, false
	}
	c := n.in[n.pos+1]
	n.pos += 2
	switch c {
	case '"', '\\', '/':
		return rune(c), true
	case 'b':
		return '\b', true
	case 'f':
		return '\f', true
	case 'n':
		return '\n', true
	case 'r':
		return '\r', true
	case 't':
		return '\t', true
	case 'u':
		r := hex4(n.in[n.pos:])
		if r < 0 {
			return 0, false
		}
		n.pos += 4
		if !utf16.IsSurrogate(r) {
			return r, true
		}
		if len(n.in) >= n.pos+6 && n.in[n.pos] == '\\' && n.in[n.pos+1] == 'u' {
			if pair := utf16.DecodeRune(r, hex4(n.in[n.pos+2:])); pair != utf8.RuneError {
				n.pos += 6
				return pair, true
			}
		}
		return utf8.RuneError, true
	}
	return 0, false
}

// hex4 decodes four hex digits, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// decoded renders one decoded code point as json.Marshal does.
func (n *normalizer) decoded(r rune, key bool) {
	if key {
		n.keys = utf8.AppendRune(n.keys, r)
	}
	switch {
	case r == '"' || r == '\\':
		n.out = append(n.out, '\\', byte(r))
	case r == '\b':
		n.out = append(n.out, '\\', 'b')
	case r == '\f':
		n.out = append(n.out, '\\', 'f')
	case r == '\n':
		n.out = append(n.out, '\\', 'n')
	case r == '\r':
		n.out = append(n.out, '\\', 'r')
	case r == '\t':
		n.out = append(n.out, '\\', 't')
	case r < ' ' || r == '<' || r == '>' || r == '&' || r == ' ' || r == ' ':
		const hexDigits = "0123456789abcdef"
		n.out = append(n.out, '\\', 'u', hexDigits[r>>12&0xF], hexDigits[r>>8&0xF], hexDigits[r>>4&0xF], hexDigits[r&0xF])
	default:
		n.out = utf8.AppendRune(n.out, r)
	}
}

// plain marks the ASCII bytes that decode to themselves inside a string
// and that json.Marshal writes unescaped.
var plain = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()
