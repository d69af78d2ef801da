// Package memo is a concurrency-safe LRU map whose misses are computed
// once. Concurrent lookups of a missing key wait for the first caller's
// computation instead of repeating it; errors are handed to every waiter
// but never kept. The service's per-matrix caches (plans, certificates,
// tunings, named matrices) and the gateway's routing-key maps all share
// this one policy.
package memo

import (
	"container/list"
	"sync"
)

// Outcome says how Get served a key.
type Outcome int

const (
	// Computed: this call ran compute.
	Computed Outcome = iota
	// Cached: the value was resident.
	Cached
	// Joined: this call waited for another caller's compute of the key.
	Joined
)

// Stats is a point-in-time snapshot of a Cache's counters.
type Stats struct {
	// Hits, Joins and Misses count Gets served Cached, Joined and
	// Computed.
	Hits, Joins, Misses uint64
	// Evictions counts entries dropped to respect the bounds.
	Evictions uint64
	// Entries and Bytes are the resident entries and their summed size.
	Entries int
	Bytes   int64
}

// Cache maps keys to values computed on first use, evicting the least
// recently used entry beyond its bounds.
type Cache[K comparable, V any] struct {
	maxEntries int
	maxBytes   int64
	size       func(V) int64

	mu       sync.Mutex
	ll       *list.List // of *entry[K, V]; front = most recently used
	items    map[K]*list.Element
	inflight map[K]*call[V]
	stats    Stats // Entries is read off ll
}

type entry[K comparable, V any] struct {
	key  K
	val  V
	size int64
}

// call is one in-flight compute; done closes once val and err are set.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New returns an empty cache of at most maxEntries entries and, when size
// is non-nil, at most maxBytes summed size(v); a bound <= 0 is no bound.
// The most recently used entry is never evicted, so a value larger than
// maxBytes still caches until the next insertion.
func New[K comparable, V any](maxEntries int, maxBytes int64, size func(V) int64) *Cache[K, V] {
	return &Cache[K, V]{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		size:       size,
		ll:         list.New(),
		items:      make(map[K]*list.Element),
		inflight:   make(map[K]*call[V]),
	}
}

// Get returns the value of key, running compute on a miss. Concurrent Gets
// of a missing key run compute once: the others wait for it and share its
// value and error. An error is not kept, so the next Get computes again.
func (c *Cache[K, V]) Get(key K, compute func() (V, error)) (V, Outcome, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.stats.Hits++
		v := el.Value.(*entry[K, V]).val
		c.mu.Unlock()
		return v, Cached, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.stats.Joins++
		c.mu.Unlock()
		<-f.done
		return f.val, Joined, f.err
	}
	c.stats.Misses++
	f := &call[V]{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	f.val, f.err = compute()
	e := &entry[K, V]{key: key, val: f.val}
	if f.err == nil && c.size != nil {
		e.size = c.size(f.val)
	}

	c.mu.Lock()
	delete(c.inflight, key)
	if f.err == nil {
		c.insertLocked(e)
	}
	c.mu.Unlock()
	close(f.done)
	return f.val, Computed, f.err
}

// insertLocked adds a computed entry at the front and evicts from the
// back while over a bound. The in-flight map keeps the key absent until
// now. Callers hold c.mu.
func (c *Cache[K, V]) insertLocked(e *entry[K, V]) {
	c.items[e.key] = c.ll.PushFront(e)
	c.stats.Bytes += e.size
	for c.ll.Len() > 1 && c.overLocked() {
		victim := c.ll.Remove(c.ll.Back()).(*entry[K, V])
		delete(c.items, victim.key)
		c.stats.Bytes -= victim.size
		c.stats.Evictions++
	}
}

func (c *Cache[K, V]) overLocked() bool {
	if c.maxEntries > 0 && c.ll.Len() > c.maxEntries {
		return true
	}
	return c.maxBytes > 0 && c.stats.Bytes > c.maxBytes
}

// Peek returns the resident value of key without computing it, counting
// the lookup or changing the LRU order.
func (c *Cache[K, V]) Peek(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		return el.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Stats snapshots the counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = c.ll.Len()
	return st
}
