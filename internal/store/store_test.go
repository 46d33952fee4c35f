package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cspsat/internal/closure"
	"cspsat/internal/trace"
	"cspsat/internal/value"
)

const testKey = "fedcba9876543210fedcba9876543210"

func testArtifact(key string) *Artifact {
	b := NewBuilder(key, "Q = b?x:NAT -> STOP", 3, 1754000000)
	ev := trace.Event{Chan: "b", Msg: value.Int(1)}
	b.Add(Result{Bound: 4, P: "Q"}, closure.Prefix(ev, closure.Stop()))
	b.Add(Result{Kind: 3, Bound: 4, Blob: []byte(`[]`)}, nil)
	a, err := b.Artifact()
	if err != nil {
		panic(err)
	}
	return a
}

func TestStorePutGetDelete(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	art := testArtifact(testKey)
	n, err := s.Put(art)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if n <= 0 {
		t.Fatalf("Put wrote %d bytes", n)
	}
	got, rn, err := s.Get(testKey)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if rn != n {
		t.Fatalf("read %d bytes, wrote %d", rn, n)
	}
	if got.Source != art.Source || got.Key != art.Key {
		t.Fatalf("Get mismatch: %+v", got)
	}
	keys, err := s.Keys()
	if err != nil || len(keys) != 1 || keys[0] != testKey {
		t.Fatalf("Keys = %v, %v", keys, err)
	}
	if sz, err := s.Size(testKey); err != nil || sz != int64(n) {
		t.Fatalf("Size = %d, %v", sz, err)
	}
	if err := s.Delete(testKey); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, _, err := s.Get(testKey); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete: %v", err)
	}
	// Deleting again is fine.
	if err := s.Delete(testKey); err != nil {
		t.Fatalf("second Delete: %v", err)
	}
}

func TestStoreRejectsBadKeys(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"", "short", "../../../etc/passwd", "ABCDEF0123456789ABCDEF0123456789",
		"0123456789abcdef0123456789abcdeg", strings.Repeat("a", 200),
	} {
		if _, _, err := s.Get(key); err == nil || errors.Is(err, ErrNotFound) {
			t.Fatalf("Get(%q) accepted a bad key: %v", key, err)
		}
		if err := s.Delete(key); err == nil {
			t.Fatalf("Delete(%q) accepted a bad key", key)
		}
	}
}

func TestStoreCorruptAndQuarantine(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	art := testArtifact(testKey)
	if _, err := s.Put(art); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in place.
	p := s.Path(testKey)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(testKey); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get on flipped file: %v", err)
	}
	if err := s.Quarantine(testKey); err != nil {
		t.Fatalf("Quarantine: %v", err)
	}
	if _, _, err := s.Get(testKey); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after quarantine: %v", err)
	}
	if _, err := os.Stat(p + ".corrupt"); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	// Quarantined files do not show up in Keys.
	keys, err := s.Keys()
	if err != nil || len(keys) != 0 {
		t.Fatalf("Keys after quarantine = %v, %v", keys, err)
	}
}

func TestStoreWrongKeyFile(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Write an artifact whose payload key differs from its file name, as
	// if someone copied a file across addresses.
	other := "00000000000000000000000000000001"
	art := testArtifact(testKey)
	data := Encode(art)
	if err := os.WriteFile(filepath.Join(s.Dir(), other+Ext), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(other); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get with mismatched payload key: %v", err)
	}
}

func TestStorePutReplacesAtomically(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(testArtifact(testKey)); err != nil {
		t.Fatal(err)
	}
	bigger := testArtifact(testKey)
	bigger.Results = append(bigger.Results, Result{Kind: 4, Bound: 8, Blob: []byte(`[{"name":"T","valid":true}]`)})
	if _, err := s.Put(bigger); err != nil {
		t.Fatalf("replace Put: %v", err)
	}
	got, _, err := s.Get(testKey)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 3 {
		t.Fatalf("replacement not visible: %+v", got)
	}
	// No temp droppings left behind.
	entries, _ := os.ReadDir(s.Dir())
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

// TestStoreGetMapped exercises the zero-copy load path: the mapped
// artifact's arena must be byte-identical to the built one, serve reads
// and thaw to the same canonical tries, and survive Close (unmap) without
// the arena having been copied. A corrupt file must error (the mapping is
// released internally) and ErrNotFound must pass through.
func TestStoreGetMapped(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	art := testArtifact(testKey)
	n, err := s.Put(art)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}

	mapped, mn, err := s.Get(testKey)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if mn != n {
		t.Fatalf("mapped %d bytes, wrote %d", mn, n)
	}
	if mapped.Source != art.Source || mapped.Key != art.Key {
		t.Fatalf("Get mismatch: %+v", mapped)
	}
	if !bytes.Equal(mapped.Arena.Bytes(), art.Arena.Bytes()) {
		t.Fatalf("mapped arena image differs from built one")
	}
	// Frozen reads and the thaw both work off the mapping.
	root := mapped.Results[0].Root
	v, err := mapped.Arena.View(root)
	if err != nil {
		t.Fatalf("View: %v", err)
	}
	if v.Size() != 2 || v.MaxLen() != 1 {
		t.Fatalf("mapped view size=%d maxlen=%d", v.Size(), v.MaxLen())
	}
	want := mapped.Arena.Thaw()[root]
	if !want.Same(v.Thaw()) {
		t.Fatalf("view thaw is not canonical with the arena's thaw")
	}
	// Explicit Close releases the mapping exactly once; the thawed tries
	// remain valid because they live in the interner, not the mapping.
	mapped.Arena.Close()
	mapped.Arena.Close()
	if want.Size() != 2 {
		t.Fatalf("thawed set damaged by unmap")
	}

	if _, _, err := s.Get("0123456789abcdef0123456789abcdef"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing key: %v", err)
	}

	// Corrupt the stored file: Get must reject it and release the mapping.
	path := filepath.Join(s.Dir(), testKey+Ext)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(testKey); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get corrupt: %v", err)
	}
}
