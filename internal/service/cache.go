package service

import (
	"container/list"
	"sync"
)

// scheduleCache is a sharded, size-bounded LRU keyed by the hex
// content hash of a request. Values are the marshaled result documents
// the handlers memoize, so a hit is served byte-identically to the
// response that populated it. The cache keeps one entry per key: its
// value, and beside it the renderings of that value responses have
// needed (see form), in the same slot, so the bound counts keys, not
// bytes.
// Sharding by the first byte of the key (hashes are uniform, so shards
// balance) keeps lock hold times short under concurrent load. Hit/miss accounting lives on the Server, not
// here: only the caller knows whether a lookup was a real miss (a
// computation) or a single-flight follower probe, and warm-restart
// loads must not count at all.
type scheduleCache struct {
	shards [cacheShards]cacheShard
}

const cacheShards = 16

type cacheShard struct {
	mu    sync.Mutex
	max   int
	order *list.List // front = most recent; values are *cacheEntry
	items map[string]*list.Element
}

type cacheEntry struct {
	key   string
	value []byte
	// kept holds the renderings of value that responses have needed,
	// each kept from the first response that made it on; nil until then.
	// They live and die with value: a put over the key drops them all.
	kept [numForms][]byte
}

// form indexes an entry's kept renderings: form(enc) is the gzip body
// of the hit envelope in encoding enc, made from the payload in enc
// (see Server.hitGzip), and formBinary is the binary payload, made from
// the value (see Server.render).
type form int

const (
	formBinary = form(numEncodings) + iota
	numForms
)

// newScheduleCache bounds the cache to maxEntries total entries spread
// over the shards; maxEntries <= 0 disables caching (every lookup
// misses). The bound is global and exact: shard capacities sum to
// maxEntries, with the remainder of maxEntries/cacheShards spread one
// entry each over the leading shards. (Rounding every shard up
// instead would let a 1-entry cache hold 16.) Below cacheShards
// entries some shards get capacity zero and never store — an accepted
// cost of keeping the documented bound honest at sizes nobody should
// configure anyway.
func newScheduleCache(maxEntries int) *scheduleCache {
	c := &scheduleCache{}
	if maxEntries < 0 {
		maxEntries = 0
	}
	base, extra := maxEntries/cacheShards, maxEntries%cacheShards
	for i := range c.shards {
		max := base
		if i < extra {
			max++
		}
		c.shards[i] = cacheShard{
			max:   max,
			order: list.New(),
			items: make(map[string]*list.Element),
		}
	}
	return c
}

func (c *scheduleCache) shard(key string) *cacheShard {
	if key == "" {
		return &c.shards[0]
	}
	// Keys are hex hashes; the first character is uniform over 16
	// values, exactly one shard's worth.
	return &c.shards[hexVal(key[0])%cacheShards]
}

func hexVal(b byte) int {
	switch {
	case b >= '0' && b <= '9':
		return int(b - '0')
	case b >= 'a' && b <= 'f':
		return int(b-'a') + 10
	default:
		return 0
	}
}

// get returns the memoized value and marks it most recently used.
func (c *scheduleCache) get(key string) ([]byte, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return nil, false
	}
	s.order.MoveToFront(el)
	return el.Value.(*cacheEntry).value, true
}

// put memoizes value under key, evicting the least recently used
// entry of the shard when full. Storing an existing key refreshes it.
func (c *scheduleCache) put(key string, value []byte) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.put(key, value)
}

// put is scheduleCache.put with s.mu held.
func (s *cacheShard) put(key string, value []byte) {
	if s.max <= 0 {
		return
	}
	if el, ok := s.items[key]; ok {
		s.order.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		e.value, e.kept = value, [numForms][]byte{}
		return
	}
	for s.order.Len() >= s.max {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.items, oldest.Value.(*cacheEntry).key)
	}
	s.items[key] = s.order.PushFront(&cacheEntry{key: key, value: value})
}

// rendering returns rendering f kept beside key's entry, or nil when
// none is kept or the entry no longer holds from, the bytes f is made
// from.
func (c *scheduleCache) rendering(key string, from []byte, f form) []byte {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.holding(key, from); e != nil {
		return e.kept[f]
	}
	return nil
}

// keep keeps b, rendering f made from from, beside key's entry, if the
// entry still holds from. A put that replaced the value meanwhile wins:
// the rendering of the old value is dropped.
func (c *scheduleCache) keep(key string, from []byte, f form, b []byte) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.holding(key, from); e != nil {
		e.kept[f] = b
	}
}

// holding returns key's entry if it holds from, as its value or its
// binary payload: the same backing array, which costs one comparison
// where equal contents would cost a pass over the payload. Every put
// that replaces a value installs the caller's slice and drops the
// renderings, so identity tells an entry's bytes from those of a value
// it held before. The caller holds s.mu.
func (s *cacheShard) holding(key string, from []byte) *cacheEntry {
	el, ok := s.items[key]
	if !ok {
		return nil
	}
	if e := el.Value.(*cacheEntry); same(e.value, from) || same(e.kept[formBinary], from) {
		return e
	}
	return nil
}

// same reports whether a and b are one non-empty slice.
func same(a, b []byte) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// flightGroup deduplicates concurrent cache misses for one content
// key, whatever encodings they ask for: the first request becomes the
// leader and computes; followers wait for its JSON result instead of
// occupying workers recomputing the identical answer. Entries live only
// while a computation is in flight.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	raw  []byte
	err  error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[string]*flightCall)}
}

// join returns the in-flight call for key and whether the caller is
// its leader. The leader must call finish exactly once.
func (g *flightGroup) join(key string) (*flightCall, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		return c, false
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	return c, true
}

// finish publishes the leader's result and wakes the followers.
func (g *flightGroup) finish(key string, c *flightCall, raw []byte, err error) {
	c.raw, c.err = raw, err
	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
}

// keys snapshots the cached keys, for the fleet shard-balance gauge.
func (c *scheduleCache) keys() []string {
	var out []string
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.order.Front(); el != nil; el = el.Next() {
			out = append(out, el.Value.(*cacheEntry).key)
		}
		s.mu.Unlock()
	}
	return out
}

// len returns the total number of cached entries.
func (c *scheduleCache) len() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += s.order.Len()
		s.mu.Unlock()
	}
	return total
}
