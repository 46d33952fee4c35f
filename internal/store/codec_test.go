package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"math/rand"
	"reflect"
	"testing"

	"cspsat/internal/closure"
	"cspsat/internal/trace"
	"cspsat/internal/value"
)

// sampleArtifact exercises every codec shape: all value kinds (including
// nested sequences), shared trie nodes, multiple roots, and verdict blobs.
func sampleArtifact(t testing.TB) *Artifact {
	t.Helper()
	a := trace.Event{Chan: "a", Msg: value.Int(-3)}
	b := trace.Event{Chan: "b[2]", Msg: value.Sym("ACK")}
	c := trace.Event{Chan: "c", Msg: value.Bool(true)}
	d := trace.Event{Chan: "d", Msg: value.Seq(value.Int(1), value.Seq(value.Sym("x")), value.Bool(false))}

	shared := closure.Union(closure.Prefix(a, closure.Stop()), closure.Prefix(b, closure.Stop()))
	s1 := closure.Prefix(c, shared)
	s2 := closure.Union(closure.Prefix(d, shared), shared)

	bld := NewBuilder("0123456789abcdef0123456789abcdef", "P = a!3 -> STOP", 4, 1754000000)
	bld.Add(Result{Kind: 1, Bound: 6, P: "P", Iterations: 3}, s1)
	bld.Add(Result{Bound: 6, P: "Q"}, s2)
	bld.Add(Result{Bound: 2, P: "STOP"}, closure.Stop())
	bld.Add(Result{Kind: 3, Bound: 6, Blob: []byte(`[{"name":"A1","holds":true}]`)}, nil)
	bld.Add(Result{Kind: 4, Bound: 8, Blob: []byte(`[{"name":"T1","valid":true}]`)}, nil)
	bld.Add(Result{Kind: 4, Bound: -1}, nil)
	bld.Add(Result{Kind: 5, Model: 1, Bound: 6, P: "Q", Q: "P", Blob: []byte(`{"ok":false}`)}, nil)
	bld.Add(Result{Kind: 5, Bound: 4, P: "P", Q: "P", Blob: []byte(`{"ok":true}`)}, nil)
	art, err := bld.Artifact()
	if err != nil {
		t.Fatalf("Artifact: %v", err)
	}
	return art
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	art := sampleArtifact(t)
	data := Encode(art)
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	// The arena compares by image bytes (its in-memory struct carries lazy
	// binding state); everything else compares structurally.
	if !bytes.Equal(got.Arena.Bytes(), art.Arena.Bytes()) {
		t.Fatalf("round trip changed the arena image (%d vs %d bytes)",
			len(got.Arena.Bytes()), len(art.Arena.Bytes()))
	}
	got.Arena, art.Arena = nil, nil
	if !reflect.DeepEqual(got, art) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, art)
	}
	// Re-decode: the field comparison above nilled the arenas, and the
	// thaw below needs one.
	got, err = Decode(data)
	if err != nil {
		t.Fatalf("Decode (again): %v", err)
	}

	sets := got.Arena.Thaw()
	if sets[0] != closure.Stop() {
		t.Fatalf("sets[0] is not the canonical empty trie")
	}
}

// TestDecodeTruncatedPrefixes feeds Decode every proper prefix of a valid
// encoding: all must fail cleanly with ErrCorrupt (never panic) because
// the checksum can't match a truncated body.
func TestDecodeTruncatedPrefixes(t *testing.T) {
	data := Encode(sampleArtifact(t))
	for n := 0; n < len(data); n++ {
		if _, err := Decode(data[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("prefix %d/%d: got %v, want ErrCorrupt", n, len(data), err)
		}
	}
}

// TestDecodeFlippedBytes flips each byte (and a random sample of bits) and
// demands checksum-level rejection.
func TestDecodeFlippedBytes(t *testing.T) {
	data := Encode(sampleArtifact(t))
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < len(data); i++ {
		mut := make([]byte, len(data))
		copy(mut, data)
		mut[i] ^= 1 << uint(rng.Intn(8))
		a, err := Decode(mut)
		if err == nil {
			t.Fatalf("flipped byte %d decoded successfully: %+v", i, a)
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersionSkew) {
			t.Fatalf("flipped byte %d: unexpected error class %v", i, err)
		}
	}
}

func TestDecodeVersionSkew(t *testing.T) {
	data := Encode(sampleArtifact(t))
	// Patch the version field and re-stamp the checksum so only the
	// version disagrees. Versions 1 to 3 are the codec's own history
	// (such files in a live store must read as skew → recompute+overwrite,
	// not as corrupt).
	for _, v := range []byte{1, 2, 3, byte(Version + 1)} {
		mut := make([]byte, len(data))
		copy(mut, data)
		mut[len(magic)] = v
		body := mut[:len(mut)-8]
		sum := crc64.Checksum(body, crcTable)
		binary.LittleEndian.PutUint64(mut[len(mut)-8:], sum)
		if _, err := Decode(mut); !errors.Is(err, ErrVersionSkew) {
			t.Fatalf("version %d: got %v, want ErrVersionSkew", v, err)
		}
	}
}

// TestDecodeDoesNotIntern proves validation failure leaves the symbol
// tables untouched: a structurally corrupt payload (bad child index inside
// the arena image) with a valid checksum must be rejected before any event
// is interned.
func TestDecodeDoesNotIntern(t *testing.T) {
	bld := NewBuilder("0123456789abcdef0123456789abcdef", "src", 3, 0)
	bld.Add(Result{Bound: 1, P: "P"},
		closure.Prefix(trace.Event{Chan: "preinterned", Msg: value.Int(0)}, closure.Stop()))
	art, err := bld.Artifact()
	if err != nil {
		t.Fatalf("Artifact: %v", err)
	}
	data := Encode(art)

	// Corrupt the arena structure inside the encoded frame — point node
	// 1's single edge at a forward child — then re-stamp the CRC so
	// rejection must come from the arena's bounds checks, not the
	// checksum. The arena image starts at its own magic; its sole edge row
	// sits after the header (24 B), edgeStart ((N+1)×4), sizes (N×8), and
	// heights (N×4) sections, with the child in the row's second word.
	arenaOff := bytes.Index(data, []byte("CSPFRZN1"))
	if arenaOff < 0 {
		t.Fatalf("no arena image in encoded artifact")
	}
	n := int(binary.LittleEndian.Uint32(data[arenaOff+8:]))
	childOff := arenaOff + 24 + 4*(n+1) + 8*n + 4*n + 4
	mut := make([]byte, len(data))
	copy(mut, data)
	binary.LittleEndian.PutUint32(mut[childOff:], 9)
	sum := crc64.Checksum(mut[:len(mut)-8], crcTable)
	binary.LittleEndian.PutUint64(mut[len(mut)-8:], sum)

	before := trace.SymbolTableStats()
	if _, err := Decode(mut); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
	after := trace.SymbolTableStats()
	if before.Events != after.Events || before.Chans != after.Chans {
		t.Fatalf("rejected decode interned symbols: before %+v after %+v", before, after)
	}
}
