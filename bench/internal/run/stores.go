package run

import (
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// StoreRoot, when set, is where store-spill's stores are built, and where
// they stay after their process exits; only once they take storesKept
// bytes are the oldest deleted. cspbench takes it from $CSPBENCH_STORES,
// which bench/run.sh points into its build directory. Unset, each store
// is deleted with its repetition's temporary directory.
//
// A store-spill process builds a store of a few thousand artifacts, and
// the filesystem allocates each artifact's blocks as soon as it is renamed
// over its previous version. On the host the benchmark was sized on (ext4
// mounted with discard), deleting such a store made file writes several
// times slower for minutes after: store-spill runs that deleted their
// stores measured 3,900 to 8,000 req/s, depending on how recently the last
// deletion was, and 7,200 to 8,500 when nothing was deleted. A set of runs
// rarely reaches storesKept, so it rarely deletes a store at all.
var StoreRoot string

// storesKept bounds the kept stores' bytes; a store-spill repetition keeps
// about 11 MiB.
const storesKept = 1 << 30

// storeDir returns a fresh directory for a store: a kept one under
// StoreRoot, or one under dir, removed with it.
func storeDir(dir string) (string, error) {
	if StoreRoot == "" {
		return filepath.Join(dir, "store"), nil
	}
	if err := os.MkdirAll(StoreRoot, 0o755); err != nil {
		return "", err
	}
	pruneStores()
	return os.MkdirTemp(StoreRoot, "store-")
}

// pruneStores deletes the oldest kept stores, when they take more than
// storesKept bytes, until they take at most half of it: deleting rarely,
// in bulk. Errors are ignored; a concurrent pass may be pruning too.
func pruneStores() {
	entries, err := os.ReadDir(StoreRoot)
	if err != nil {
		return
	}
	type kept struct {
		path string
		mod  int64
		size int64
	}
	var stores []kept
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil || !e.IsDir() {
			continue
		}
		k := kept{path: filepath.Join(StoreRoot, e.Name()), mod: info.ModTime().UnixNano()}
		_ = filepath.WalkDir(k.path, func(_ string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				if fi, err := d.Info(); err == nil {
					k.size += fi.Size()
				}
			}
			return nil
		})
		stores = append(stores, k)
		total += k.size
	}
	if total <= storesKept {
		return
	}
	sort.Slice(stores, func(i, j int) bool { return stores[i].mod < stores[j].mod })
	for _, k := range stores {
		if total <= storesKept/2 {
			break
		}
		_ = os.RemoveAll(k.path)
		total -= k.size
	}
}
