// Module caching for resident hosts. A long-running verification service
// sees the same specs over and over; parsing is cheap, but a fresh Module
// re-derives every canonical trie from scratch, while a cached Module's
// engines hit the memo tables warmed by earlier requests on the very same
// *closure.Set pointers. The cache key is a hash of the source text and
// the load options, so "the same spec" means byte-identical source, not
// filename identity.
package csp

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"cspsat/internal/pool"
	"cspsat/internal/store"
)

// ModuleCache is a bounded LRU of loaded Modules keyed by source hash,
// optionally backed by an on-disk artifact store (SetStore) as a second
// tier: memory LRU → disk store → compile, with the singleflight covering
// both tiers (one leader per key probes the disk and, failing that,
// parses; everyone else waits on its result). Modules are immutable once
// loaded (their engines share the global intern tables), so one cached
// Module may serve many concurrent requests. The zero value is not usable;
// construct with NewModuleCache.
type ModuleCache struct {
	mu        sync.Mutex
	capacity  int
	order     *list.List // front = most recently used; values are *cacheEntry
	entries   map[string]*list.Element
	inflight  map[string]*flight
	hits      uint64
	misses    uint64
	evicted   uint64
	coalesced uint64

	// L2 tier. st and logf are set once by SetStore before the cache is
	// shared; the counters are guarded by mu. persistMu serializes artifact
	// writes so concurrent result notifications for one module cannot
	// interleave encodes.
	st                *store.Store
	logf              func(format string, args ...any)
	persistMu         sync.Mutex
	storeHits         uint64
	storeMisses       uint64
	storeCorrupt      uint64
	storePuts         uint64
	storeBytesRead    uint64
	storeBytesWritten uint64
}

type cacheEntry struct {
	key string
	mod *Module
}

// flight is one in-progress load that concurrent requests for the same key
// wait on instead of parsing redundantly. mod/err are written exactly once,
// before done is closed; waiters read them only after <-done.
type flight struct {
	done chan struct{}
	mod  *Module
	err  error
}

// DefaultModuleCacheCapacity is used when NewModuleCache is given a
// non-positive capacity.
const DefaultModuleCacheCapacity = 128

// NewModuleCache builds a cache holding at most capacity modules
// (DefaultModuleCacheCapacity when capacity <= 0).
func NewModuleCache(capacity int) *ModuleCache {
	if capacity <= 0 {
		capacity = DefaultModuleCacheCapacity
	}
	return &ModuleCache{
		capacity: capacity,
		order:    list.New(),
		entries:  map[string]*list.Element{},
		inflight: map[string]*flight{},
	}
}

// SourceHash returns the cache key for a source text under opts: a hex
// SHA-256 over the source and the load options that change a Module's
// meaning. Callers can use it to correlate requests with cache entries.
func SourceHash(src string, opts Options) string {
	h := sha256.New()
	fmt.Fprintf(h, "nat=%d\x00", opts.NatWidth)
	h.Write([]byte(src))
	return hex.EncodeToString(h.Sum(nil))
}

// Load returns the cached Module for src under opts, loading and caching
// it on a miss. It reports the cache key and whether the module was served
// from cache. Loads with a custom Funcs registry bypass the cache (the
// registry's contents cannot be hashed); they always load fresh and report
// hit=false with an empty key.
//
// Concurrent first requests for the same key are coalesced (singleflight):
// one leader parses while the rest wait on its result and report hit=true.
// A waiter whose own context expires gives up independently; if the leader
// fails, each waiter retries from the top (one of them becomes the new
// leader) rather than inheriting an error that may have been the leader's
// private cancellation.
func (c *ModuleCache) Load(ctx context.Context, src string, opts Options) (mod *Module, key string, hit bool, err error) {
	if err := pool.Canceled(ctx); err != nil {
		return nil, "", false, err
	}
	if opts.Funcs != nil {
		m, err := Load(ctx, src, opts)
		return m, "", false, err
	}
	key = SourceHash(src, opts)

	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.order.MoveToFront(el)
			c.hits++
			m := el.Value.(*cacheEntry).mod
			c.mu.Unlock()
			return m, key, true, nil
		}
		if f, ok := c.inflight[key]; ok {
			c.coalesced++
			c.mu.Unlock()
			select {
			case <-ctx.Done():
				return nil, key, false, pool.Canceled(ctx)
			case <-f.done:
			}
			if f.err == nil {
				c.mu.Lock()
				c.hits++
				c.mu.Unlock()
				return f.mod, key, true, nil
			}
			continue
		}
		c.misses++
		f := &flight{done: make(chan struct{})}
		c.inflight[key] = f
		c.mu.Unlock()

		// Load outside the lock: a slow load must not stall hits on other
		// keys. Later arrivals for this key park on f.done instead of
		// loading the same source again. The disk tier is probed first —
		// inside the flight, so a store read also happens once per key.
		m, fromStore := c.loadFromStore(key)
		var err error
		if m == nil {
			m, err = Load(ctx, src, opts)
		}
		f.mod, f.err = m, err
		if err == nil {
			// Cache the module before retiring the flight: a request
			// arriving in between must find it, not load it again.
			c.wirePersist(key, m)
			c.add(key, m)
		}
		c.mu.Lock()
		delete(c.inflight, key)
		c.mu.Unlock()
		close(f.done)
		if err != nil {
			return nil, key, false, err
		}
		if !fromStore {
			// Persist on first compile so a restart can at least skip the
			// parse; result persists (wirePersist) enrich the artifact as
			// requests compute trace sets and verdicts.
			c.persist(key, m)
		}
		return m, key, fromStore, nil
	}
}

// SetStore attaches an on-disk artifact store as the cache's second tier
// and must be called before the cache is shared across goroutines. logf
// receives operational messages (corrupt artifacts, persist failures);
// nil discards them.
func (c *ModuleCache) SetStore(st *store.Store, logf func(format string, args ...any)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	c.st, c.logf = st, logf
}

// loadFromStore probes the disk tier for key. A corrupt artifact is
// quarantined, logged, and reported as a miss — the caller recompiles; a
// version-skewed artifact is logged and left in place (the next persist
// overwrites it). Never fatal.
func (c *ModuleCache) loadFromStore(key string) (*Module, bool) {
	if c.st == nil {
		return nil, false
	}
	// The artifact's trie arena stays in the mmap'd file image and the
	// rehydrated module's results serve reads straight off it — boot cost
	// is the checksum pass, not a graph rebuild, and RSS is file-backed
	// pages the kernel can evict or share.
	art, n, err := c.st.Get(key)
	if err == nil {
		var m *Module
		if m, err = moduleFromArtifact(art); err == nil {
			c.mu.Lock()
			c.storeHits++
			c.storeBytesRead += uint64(n)
			c.mu.Unlock()
			return m, true
		}
		// A structurally valid file the facade cannot rehydrate (unknown
		// result kind, undecodable verdicts) is corrupt for our purposes.
		err = fmt.Errorf("%w: %v", store.ErrCorrupt, err)
	}
	switch {
	case errors.Is(err, store.ErrNotFound):
		c.mu.Lock()
		c.storeMisses++
		c.mu.Unlock()
	case errors.Is(err, store.ErrVersionSkew):
		c.mu.Lock()
		c.storeCorrupt++
		c.mu.Unlock()
		c.logf("store: stale artifact %s: %v (recomputing)", key, err)
	default:
		c.mu.Lock()
		c.storeCorrupt++
		c.mu.Unlock()
		if qerr := c.st.Quarantine(key); qerr != nil {
			c.logf("store: quarantining %s: %v", key, qerr)
		}
		c.logf("store: corrupt artifact %s quarantined: %v (recomputing)", key, err)
	}
	return nil, false
}

// wirePersist makes every newly recorded result on m re-persist its
// artifact. No-op without a store or for modules without source.
func (c *ModuleCache) wirePersist(key string, m *Module) {
	if c.st == nil || m.src == "" {
		return
	}
	m.res.setOnResult(func() { c.persist(key, m) })
}

// persist writes m's current artifact under key. Failures are logged and
// counted, never returned: persistence is an optimization, not a
// correctness requirement.
func (c *ModuleCache) persist(key string, m *Module) {
	if c.st == nil || m.src == "" {
		return
	}
	c.persistMu.Lock()
	defer c.persistMu.Unlock()
	created := m.createdUnix
	if created == 0 {
		created = time.Now().Unix()
		m.createdUnix = created
	}
	art, err := m.buildArtifact(key, created)
	if err != nil {
		c.logf("store: building artifact %s: %v", key, err)
		return
	}
	n, err := c.st.Put(art)
	if err != nil {
		c.logf("store: persisting %s: %v", key, err)
		return
	}
	c.mu.Lock()
	c.storePuts++
	c.storeBytesWritten += uint64(n)
	c.mu.Unlock()
}

// WarmBoot loads every artifact in the attached store into the memory
// tier, reporting how many modules were rehydrated and how many artifacts
// were skipped (corrupt, stale, or unreadable — logged, quarantined where
// appropriate, never fatal). Keys already resident are counted as loaded
// without touching the disk. Respects ctx between artifacts.
func (c *ModuleCache) WarmBoot(ctx context.Context) (loaded, skipped int, err error) {
	if c.st == nil {
		return 0, 0, nil
	}
	keys, err := c.st.Keys()
	if err != nil {
		return 0, 0, err
	}
	for _, key := range keys {
		if err := pool.Canceled(ctx); err != nil {
			return loaded, skipped, err
		}
		c.mu.Lock()
		_, resident := c.entries[key]
		c.mu.Unlock()
		if resident {
			loaded++
			continue
		}
		m, ok := c.loadFromStore(key)
		if !ok {
			skipped++
			continue
		}
		c.wirePersist(key, m)
		c.add(key, m)
		loaded++
	}
	return loaded, skipped, nil
}

func (c *ModuleCache) add(key string, m *Module) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, mod: m})
	for c.order.Len() > c.capacity {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).key)
		c.evicted++
	}
}

// ModuleCacheStats is a snapshot of a ModuleCache's effectiveness.
type ModuleCacheStats struct {
	Size     int    `json:"size"`
	Capacity int    `json:"capacity"`
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Evicted  uint64 `json:"evicted"`
	// Coalesced counts requests that joined an in-progress load of the
	// same key instead of parsing it themselves.
	Coalesced uint64 `json:"coalesced"`
	// The Store* counters cover the on-disk tier (zero without SetStore):
	// artifacts rehydrated (hits), keys with no artifact (misses), corrupt
	// or stale artifacts skipped (corrupt), artifacts written (puts), and
	// bytes moved in each direction.
	StoreHits         uint64 `json:"store_hits"`
	StoreMisses       uint64 `json:"store_misses"`
	StoreCorrupt      uint64 `json:"store_corrupt"`
	StorePuts         uint64 `json:"store_puts"`
	StoreBytesRead    uint64 `json:"store_bytes_read"`
	StoreBytesWritten uint64 `json:"store_bytes_written"`
}

// Stats returns a consistent snapshot of the cache counters.
func (c *ModuleCache) Stats() ModuleCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ModuleCacheStats{
		Size:              c.order.Len(),
		Capacity:          c.capacity,
		Hits:              c.hits,
		Misses:            c.misses,
		Evicted:           c.evicted,
		Coalesced:         c.coalesced,
		StoreHits:         c.storeHits,
		StoreMisses:       c.storeMisses,
		StoreCorrupt:      c.storeCorrupt,
		StorePuts:         c.storePuts,
		StoreBytesRead:    c.storeBytesRead,
		StoreBytesWritten: c.storeBytesWritten,
	}
}
