package store

// Store is the on-disk half: one directory, one file per artifact, named
// <key>.cspa. Writes go through a temp file in the same directory and an
// atomic rename, so readers (including a concurrently warm-booting second
// server) only ever see absent or complete files. Corrupt files are
// quarantined by renaming to <key>.cspa.corrupt so the bad bytes stay
// available for debugging without being re-read on every miss.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"cspsat/internal/closure/frozen"
)

// Ext is the artifact file extension.
const Ext = ".cspa"

// ErrNotFound reports a key with no artifact on disk.
var ErrNotFound = errors.New("store: artifact not found")

// Store is a content-addressed artifact directory. Methods are safe for
// concurrent use: atomicity comes from the filesystem (rename), not locks.
type Store struct {
	dir string
}

// Open ensures dir exists and returns a store over it.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// validKey guards against path traversal and garbage keys: a key must look
// like a hex digest (csp.SourceHash emits 64 lowercase hex chars; accept a
// sensible range so the store does not hard-code one hash width).
func validKey(key string) error {
	if len(key) < 16 || len(key) > 128 {
		return fmt.Errorf("store: invalid key %q: length %d", key, len(key))
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("store: invalid key %q: non-hex byte at %d", key, i)
		}
	}
	return nil
}

// Path returns the on-disk path an artifact for key lives at.
func (s *Store) Path(key string) string {
	return filepath.Join(s.dir, key+Ext)
}

// Put encodes and atomically writes an artifact under its own key,
// returning the number of bytes written. An existing artifact for the key
// is replaced (the content address guarantees it encodes the same module,
// possibly with more precomputed results).
func (s *Store) Put(a *Artifact) (int, error) {
	if err := validKey(a.Key); err != nil {
		return 0, err
	}
	data := Encode(a)
	tmp, err := os.CreateTemp(s.dir, "."+a.Key+".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("store: put %s: %w", a.Key, err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return 0, fmt.Errorf("store: put %s: %w", a.Key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("store: put %s: %w", a.Key, err)
	}
	if err := os.Rename(tmpName, s.Path(a.Key)); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("store: put %s: %w", a.Key, err)
	}
	return len(data), nil
}

// Get reads, validates, and decodes the artifact for key, returning it and
// the number of bytes read. It returns ErrNotFound when absent, and wraps
// ErrCorrupt/ErrVersionSkew from the codec; an artifact whose payload key
// disagrees with the requested key (a renamed or cross-copied file) is
// reported as corrupt.
//
// The artifact's arena is served zero-copy from an mmap of the file (a
// plain read where mmap is unavailable): the decoded trie graph aliases
// the mapping, so a warm boot touches no heap proportional to the graph
// and the kernel shares the pages across processes. The mapping is
// released when the returned artifact's arena is garbage collected (a
// finalizer calls munmap), or eagerly via Artifact.Arena.Close. Decode
// failures unmap before returning, so corrupt files leak nothing.
func (s *Store) Get(key string) (*Artifact, int, error) {
	if err := validKey(key); err != nil {
		return nil, 0, err
	}
	data, unmap, err := mapFile(s.Path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		return nil, 0, fmt.Errorf("store: get %s: %w", key, err)
	}
	a, err := Decode(data)
	if err != nil {
		unmap()
		return nil, len(data), err
	}
	if a.Key != key {
		unmap()
		return nil, len(data), fmt.Errorf("%w: payload key %s under file key %s", ErrCorrupt, a.Key, key)
	}
	a.Arena.AttachCloser(unmap)
	runtime.SetFinalizer(a.Arena, (*frozen.Arena).Close)
	return a, len(data), nil
}

// Delete removes the artifact for key. Deleting an absent key is not an
// error.
func (s *Store) Delete(key string) error {
	if err := validKey(key); err != nil {
		return err
	}
	if err := os.Remove(s.Path(key)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: delete %s: %w", key, err)
	}
	return nil
}

// Quarantine renames key's artifact to <key>.cspa.corrupt so it stops
// being read but remains available for inspection. A prior quarantined
// file for the same key is overwritten.
func (s *Store) Quarantine(key string) error {
	if err := validKey(key); err != nil {
		return err
	}
	p := s.Path(key)
	if err := os.Rename(p, p+".corrupt"); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: quarantine %s: %w", key, err)
	}
	return nil
}

// Keys lists the keys of all artifacts in the store, sorted. Temp,
// quarantined, and foreign files are ignored.
func (s *Store) Keys() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: list %s: %w", s.dir, err)
	}
	var keys []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, Ext) {
			continue
		}
		key := strings.TrimSuffix(name, Ext)
		if validKey(key) != nil {
			continue
		}
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return keys, nil
}

// GC removes quarantined artifacts and temp-file droppings (left by a
// writer that died between CreateTemp and rename), returning how many
// files and bytes were reclaimed. Live artifacts are never touched.
func (s *Store) GC() (removed int, bytes int64, err error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, 0, fmt.Errorf("store: gc %s: %w", s.dir, err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !(strings.HasSuffix(name, ".corrupt") || strings.Contains(name, ".tmp-")) {
			continue
		}
		var size int64
		if fi, err := e.Info(); err == nil {
			size = fi.Size()
		}
		if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
			return removed, bytes, fmt.Errorf("store: gc %s: %w", name, err)
		}
		removed++
		bytes += size
	}
	return removed, bytes, nil
}

// Size returns the on-disk byte size of key's artifact.
func (s *Store) Size(key string) (int64, error) {
	if err := validKey(key); err != nil {
		return 0, err
	}
	fi, err := os.Stat(s.Path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		return 0, err
	}
	return fi.Size(), nil
}
