package journal

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// servedBodies are response bodies as cspserved writes them (no HTML
// escaping, struct fields in declaration order, a trailing newline): a
// listing, a check whose decls hold a raw "<=", and an error.
var servedBodies = []string{
	`{"schema":1,"kind":"traces","spec_hash":"7a73427e0204f4562f28ba08cb9a92fb7ff3b85c2548aa03e71a1c60ee96b8cf","cache_hit":false,"ok":true,"traces":{"engine":"op","traces":[[],["input.0"],["input.0","wire.0"],["input.1"],["input.1","wire.1"],["input.2"],["input.2","wire.2"]],"count":7,"max_len":2},"progress":[{"stage":"explore","states_expanded":4,"depth":2,"elapsed_ms":0,"done":true}],"elapsed_ms":0}` + "\n",
	`{"schema":1,"kind":"check","spec_hash":"7a73427e0204f4562f28ba08cb9a92fb7ff3b85c2548aa03e71a1c60ee96b8cf","cache_hit":true,"ok":true,"asserts":[{"decl":"assert copier sat wire <= input","kind":"sat","ok":true,"sat":{"ok":true,"model":"traces","traces_checked":16,"depth":3}},{"decl":"assert copier sat #input <= (#wire + 1)","kind":"sat","ok":true,"sat":{"ok":true,"model":"traces","traces_checked":16,"depth":3}}],"progress":[{"stage":"check","items":5,"total":5,"elapsed_ms":0,"done":true}],"elapsed_ms":0}` + "\n",
	`{"schema":1,"kind":"traces","spec_hash":"7a73427e0204f4562f28ba08cb9a92fb7ff3b85c2548aa03e71a1c60ee96b8cf","cache_hit":true,"ok":false,"error":"unknown process: core: process \"nosuch\" not defined","elapsed_ms":0}` + "\n",
}

// FuzzNormalize pins the one-pass Normalize to the decode-and-marshal
// reference, byte for byte, on every input, and Digest to its hash.
func FuzzNormalize(f *testing.F) {
	for _, body := range servedBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want := normalizeRef(body)
		if got := Normalize(body); !bytes.Equal(got, want) {
			t.Fatalf("Normalize(%q)\n = %q\nwant %q", body, got, want)
		}
		sum := sha256.Sum256(want)
		if got := Digest(body); got != hex.EncodeToString(sum[:]) {
			t.Fatalf("Digest(%q) = %s, want the hash of %q", body, got, want)
		}
	})
}

// TestNormalizeRules lists the byte rules of the normal form one by one.
// Each row holds for the reference as well, so a row that fails names a
// rule of encoding/json, not a choice of Normalize.
func TestNormalizeRules(t *testing.T) {
	deep := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	for _, tc := range []struct {
		name, in, want string
	}{
		{"served listing", servedBodies[0], `{"kind":"traces","ok":true,"schema":1,"spec_hash":"7a73427e0204f4562f28ba08cb9a92fb7ff3b85c2548aa03e71a1c60ee96b8cf","traces":{"count":7,"engine":"op","max_len":2,"traces":[[],["input.0"],["input.0","wire.0"],["input.1"],["input.1","wire.1"],["input.2"],["input.2","wire.2"]]}}`},
		{"html characters", `["a<=b>c&d"]`, `["a\u003c=b\u003ec\u0026d"]`},
		{"short escapes", `["\b\f\n\r\t\"\\"]`, `["\b\f\n\r\t\"\\"]`},
		{"short escapes from \\u", `["\u0008\u000C\u000a\u000D\u0009\u0022\u005C"]`, `["\b\f\n\r\t\"\\"]`},
		{"other control bytes", `["\u0000\u001B\u001f"]`, `["\u0000\u001b\u001f"]`},
		{"printable \\u", `["\u0041\u007e\u00e9"]`, "[\"A~\u00e9\"]"},
		{"solidus", `["a\/b"]`, `["a/b"]`},
		{"delete is plain", "[\"\x7f\"]", "[\"\x7f\"]"},
		{"line and paragraph separators", "[\"\u2028\u2029\",\"\\u2028\"]", `["\u2028\u2029","\u2028"]`},
		{"invalid UTF-8", "[\"a\xffb\xc3\xed\xa0\x80\"]", "[\"a\ufffdb\ufffd\ufffd\ufffd\ufffd\"]"},
		{"raw U+FFFD", "[\"\ufffd\"]", "[\"\ufffd\"]"},
		{"surrogate pair", `["\ud83d\ude00"]`, "[\"\U0001f600\"]"},
		{"unpaired surrogates", `["\ud800x","\udc00\ud800","\ud800\ud800\udc00"]`, "[\"\ufffdx\",\"\ufffd\ufffd\",\"\ufffd\U00010000\"]"},
		{"sorted members", `{"b":1,"a":{"d":2,"c":3},"B":4}`, `{"B":4,"a":{"c":3,"d":2},"b":1}`},
		{"last duplicate wins", `{"b":1,"a":2,"b":3}`, `{"a":2,"b":3}`},
		{"duplicates by decoded key", `{"a":1,"\u0061":2}`, `{"a":2}`},
		{"keys escaped like strings", `{"<":1,"\u2028":2}`, `{"\u003c":1,"\u2028":2}`},
		{"volatile keys at every depth", `{"x":[{"elapsed_ms":1,"y":2}],"progress":[],"cache_hit":true}`, `{"x":[{"y":2}]}`},
		{"volatile key escaped", `{"cache\u005fhit":true,"ok":1}`, `{"ok":1}`},
		{"numbers as written", `[1.50,-0,1E+2,0.0e-0,12345678901234567890]`, `[1.50,-0,1E+2,0.0e-0,12345678901234567890]`},
		{"literals", `[true,false,null,{},[]]`, `[true,false,null,{},[]]`},
		{"top-level scalar", ` "x<" `, `"x\u003c"`},
		{"whitespace", " \t\r\n{ \"a\" : [ 1 , 2 ] }\n", `{"a":[1,2]}`},
		{"depth 10000", deep(10000), deep(10000)},
		// Rejected by encoding/json, so returned as they are.
		{"depth 10001", deep(10001), deep(10001)},
		{"leading zero", `[01]`, `[01]`},
		{"bare point", `[1.]`, `[1.]`},
		{"bare minus", `[-]`, `[-]`},
		{"plus sign", `[+1]`, `[+1]`},
		{"empty exponent", `[1e]`, `[1e]`},
		{"trailing value", `{"a":1} 2`, `{"a":1} 2`},
		{"trailing form feed", "{\"a\":1}\f", "{\"a\":1}\f"},
		{"empty", "", ""},
		{"only whitespace", " \n", " \n"},
		{"quote escape", `["\'"]`, `["\'"]`},
		{"short \\u", `["\u12"]`, `["\u12"]`},
		{"raw control byte", "[\"a\x01\"]", "[\"a\x01\"]"},
		{"unterminated string", `["a`, `["a`},
		{"truncated literal", `[tru]`, `[tru]`},
		{"trailing comma", `{"a":1,}`, `{"a":1,}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := normalizeRef([]byte(tc.in)); string(got) != tc.want {
				t.Fatalf("reference: %q, row wants %q", got, tc.want)
			}
			if got := Normalize([]byte(tc.in)); string(got) != tc.want {
				t.Fatalf("Normalize(%q) = %q, want %q", tc.in, got, tc.want)
			}
		})
	}
}
