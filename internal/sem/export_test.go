package sem

// CacheEntries returns the number of entries in the cache e shares with
// every environment of its NewEnv.
func CacheEntries(e Env) int {
	n := 0
	count := func(any, any) bool { n++; return true }
	e.cache.chanItems.Range(count)
	e.cache.doms.Range(count)
	e.cache.items.Range(count)
	e.cache.insts.Range(count)
	return n
}
