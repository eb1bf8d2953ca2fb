// Package cachelimit replays the half-migrated form of the BDD cache
// limit race: SetCacheLimit once stored the limit with a plain write
// while the hot ite path was moved to an atomic load, so the setter
// could race every concurrent operation. The fixture keeps that mixed
// form as a realistic shape for the analyzer to catch; it tests the
// analyzer, not the engine.
package cachelimit

import "sync/atomic"

type engine struct {
	cacheLimit int64
	nvars      int
}

// ite models the hot path: the limit is consulted on every cache
// insert, concurrently with setters.
func (e *engine) ite() bool {
	return atomic.LoadInt64(&e.cacheLimit) > 0
}

// SetCacheLimit is the buggy half: a plain store racing the atomic
// loads above.
func (e *engine) SetCacheLimit(n int) {
	e.cacheLimit = int64(n) // want `plain write of cacheLimit, which is also accessed via sync/atomic`
}

// SetCacheLimitFixed keeps the protocol.
func (e *engine) SetCacheLimitFixed(n int) {
	atomic.StoreInt64(&e.cacheLimit, int64(n))
}

// evict reads the limit plainly while trimming — the same race from
// the consumer side.
func (e *engine) evict(size int) bool {
	return int64(size) >= e.cacheLimit // want `plain read of cacheLimit, which is also accessed via sync/atomic`
}
