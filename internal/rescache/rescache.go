// Package rescache is a content-addressed result cache for deterministic
// placement: values are stored under the SHA-256 of everything that
// determines the solver's output bits — the canonical netlist fingerprint
// (internal/netio) plus the method, seed, and result-affecting knobs
// (area weight, mu, portfolio width, SA chain count, and the refinement
// stage's on/off and window budget) — so a hit can be returned in place
// of a fresh solve with byte-identical results. Keys deliberately
// exclude inputs that do NOT affect output
// bits (thread count, deadlines, tenant, priority): requests differing
// only in those share one entry.
//
// The cache is a strict LRU bounded by total value bytes, safe for
// concurrent use. A nil *Cache is valid everywhere and behaves as an
// always-miss cache, so callers can thread an optional cache without
// branching — the same contract obs.Tracer and metrics.Registry
// established.
package rescache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"
)

// Key is a 32-byte content address. Build one with NewKey.
type Key [32]byte

// String returns the hex form (for logs and debugging).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// NewKey derives a cache key from a content fingerprint plus the ordered
// list of result-affecting fields (method name, seed, knob values, ...).
// Fields are length-prefixed before hashing so no two distinct field
// lists collide by concatenation ("ab","c" vs "a","bc").
func NewKey(fingerprint [32]byte, fields ...string) Key {
	h := sha256.New()
	h.Write(fingerprint[:])
	var n [8]byte
	for _, f := range fields {
		binary.BigEndian.PutUint64(n[:], uint64(len(f)))
		h.Write(n[:])
		h.Write([]byte(f))
	}
	var out Key
	h.Sum(out[:0])
	return out
}

// Cache is a byte-bounded LRU. Use New; the zero value is not usable
// (but a nil *Cache is: it always misses and drops every Put).
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used
	items    map[Key]*list.Element
}

// entry is one cached value; Element.Value holds *entry.
type entry struct {
	key Key
	val []byte
}

// New returns a cache bounded at maxBytes of stored values. maxBytes <= 0
// returns nil — the disabled cache — so wiring "-cache-bytes 0" through
// needs no special case.
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		return nil
	}
	return &Cache{
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    map[Key]*list.Element{},
	}
}

// Get returns the value stored under k and marks it most recently used.
// The returned slice is shared — callers must not modify it. A nil cache
// always misses.
func (c *Cache) Get(k Key) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// Put stores v under k, evicting least-recently-used entries until the
// byte bound holds. Storing an existing key refreshes its value and
// recency. A value larger than the whole cache is dropped (it would evict
// everything and then not fit). The cache keeps v without copying —
// callers hand over ownership. A nil cache drops the value.
func (c *Cache) Put(k Key, v []byte) {
	if c == nil || int64(len(v)) > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		e := el.Value.(*entry)
		c.bytes += int64(len(v)) - int64(len(e.val))
		e.val = v
		c.ll.MoveToFront(el)
	} else {
		c.items[k] = c.ll.PushFront(&entry{key: k, val: v})
		c.bytes += int64(len(v))
	}
	for c.bytes > c.maxBytes {
		back := c.ll.Back()
		if back == nil {
			break
		}
		e := back.Value.(*entry)
		c.ll.Remove(back)
		delete(c.items, e.key)
		c.bytes -= int64(len(e.val))
	}
}

// Stats is a point-in-time snapshot of cache occupancy.
type Stats struct {
	Entries int
	Bytes   int64
}

// Stats snapshots the cache. A nil cache reports all zeros.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Entries: len(c.items), Bytes: c.bytes}
}
