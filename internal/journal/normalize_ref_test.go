package journal

import (
	"bytes"
	"encoding/json"
	"io"
	"sort"
)

// normalizeRef is the decode-and-marshal normalization that every
// committed digest was computed with. Normalize must equal it byte for
// byte on every input (FuzzNormalize).
func normalizeRef(body []byte) []byte {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return body
	}
	// Trailing garbage after the JSON document: not a wire body we ever
	// produce; compare raw.
	if _, err := dec.Token(); err != io.EOF {
		return body
	}
	out, err := json.Marshal(stripVolatile(v))
	if err != nil {
		return body
	}
	return out
}

func stripVolatile(v any) any {
	switch t := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(t))
		for k := range t {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out := make(map[string]any, len(t))
		for _, k := range keys {
			if VolatileKeys[k] {
				continue
			}
			out[k] = stripVolatile(t[k])
		}
		return out
	case []any:
		for i := range t {
			t[i] = stripVolatile(t[i])
		}
		return t
	default:
		return v
	}
}
