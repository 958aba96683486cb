package resultstore

import (
	"context"
	"sync"
	"sync/atomic"
)

// Memory is a bounded, concurrency-safe response store with SIEVE
// eviction (Zhang et al., "SIEVE is Simpler than LRU", NSDI '24) — the
// process-local hot tier.
//
// Entries stay in insertion order and carry a visited bit.  A Get or an
// overwriting Set only sets the bit; nothing moves.  When the store is
// full, a hand walks from the oldest entry toward the newest, clearing
// bits, and evicts the first unvisited entry, then rests there for the
// next eviction.  A key read since the hand last passed therefore
// outlives any number of one-time inserts, which an LRU would let push
// it out.
type Memory struct {
	mu      sync.Mutex
	cap     int
	closed  bool
	entries map[string]*memEntry
	newest  *memEntry
	oldest  *memEntry
	hand    *memEntry // next eviction candidate; nil starts at oldest

	hits   atomic.Uint64
	misses atomic.Uint64
	sets   atomic.Uint64
}

type memEntry struct {
	key     string
	val     []byte
	visited bool
	newer   *memEntry
	older   *memEntry
}

// NewMemory builds a store holding up to capacity responses;
// capacity < 1 disables storage (every Get misses, Set is a no-op).
func NewMemory(capacity int) *Memory {
	return &Memory{cap: capacity, entries: map[string]*memEntry{}}
}

// Get returns the stored response and marks it visited.
func (m *Memory) Get(_ context.Context, key string) ([]byte, bool, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, false, errClosed
	}
	e, ok := m.entries[key]
	if !ok {
		m.mu.Unlock()
		m.misses.Add(1)
		return nil, false, nil
	}
	e.visited = true
	val := e.val
	m.mu.Unlock()
	m.hits.Add(1)
	return val, true, nil
}

// Peek returns the stored response without touching the counters or the
// visited bit.
func (m *Memory) Peek(_ context.Context, key string) ([]byte, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, false, errClosed
	}
	e, ok := m.entries[key]
	if !ok {
		return nil, false, nil
	}
	return e.val, true, nil
}

// Set stores a response.  Overwriting a key marks it visited; a new key
// evicts one entry first when the store is full.
func (m *Memory) Set(_ context.Context, key string, val []byte) error {
	if m.cap < 1 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errClosed
	}
	m.sets.Add(1)
	if e, ok := m.entries[key]; ok {
		e.val = val
		e.visited = true
		return nil
	}
	if len(m.entries) >= m.cap {
		m.evict()
	}
	e := &memEntry{key: key, val: val, older: m.newest}
	if m.newest != nil {
		m.newest.newer = e
	} else {
		m.oldest = e
	}
	m.newest = e
	m.entries[key] = e
	return nil
}

// evict removes the first unvisited entry at or after the hand, clearing
// the visited bits it passes and wrapping from newest to oldest.
func (m *Memory) evict() {
	e := m.hand
	if e == nil {
		e = m.oldest
	}
	for e.visited {
		e.visited = false
		if e = e.newer; e == nil {
			e = m.oldest
		}
	}
	m.hand = e.newer
	if e.older != nil {
		e.older.newer = e.newer
	} else {
		m.oldest = e.newer
	}
	if e.newer != nil {
		e.newer.older = e.older
	} else {
		m.newest = e.older
	}
	delete(m.entries, e.key)
}

// Len returns the number of stored responses.
func (m *Memory) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// Stats returns the memory tier's counters.
func (m *Memory) Stats() []TierStats {
	return []TierStats{{
		Tier:    "memory",
		Entries: m.Len(),
		Hits:    m.hits.Load(),
		Misses:  m.misses.Load(),
		Sets:    m.sets.Load(),
	}}
}

// Close drops the stored responses; Get and Set fail afterwards (Peek,
// Len and Stats keep working, reporting the emptied store).
func (m *Memory) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.entries = map[string]*memEntry{}
	m.newest, m.oldest, m.hand = nil, nil, nil
	return nil
}
