package store

import (
	"container/list"
	"context"
	"sort"
	"sync"
)

// MemoryCapacity bounds the memory tier of a Replicated store that has a
// disk tier. Every result is durable on disk there, so memory only needs
// the recently used ones; without a bound, a long-running server that
// computes a new result per request would keep every result it ever
// served. Evicted results are still read from disk.
const MemoryCapacity = 64

// Memory is the in-process tier: a mutex-guarded map of canonical result
// bytes. It never fails and never verifies — upper tiers only populate
// it with bytes that already passed CRC or Merkle checks. A bounded tier
// keeps its limit most recently used entries and evicts the rest.
type Memory struct {
	mu    sync.Mutex
	m     map[string]*list.Element // value: *memEntry
	lru   list.List                // most recently used at the front
	limit int                      // ≤ 0: unbounded
}

type memEntry struct {
	key  string
	data []byte
}

// NewMemory returns an empty, unbounded in-memory tier.
func NewMemory() *Memory { return newMemory(0) }

func newMemory(limit int) *Memory {
	return &Memory{m: make(map[string]*list.Element), limit: limit}
}

// Get implements Store.
func (s *Memory) Get(ctx context.Context, key string) ([]byte, bool) {
	return s.get(key)
}

// Put implements Store.
func (s *Memory) Put(ctx context.Context, key string, data []byte) error {
	s.put(key, data)
	return nil
}

// Keys implements Store, sorted for deterministic sweeps.
func (s *Memory) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (s *Memory) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

func (s *Memory) get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[key]
	if !ok {
		return nil, false
	}
	s.lru.MoveToFront(e)
	return e.Value.(*memEntry).data, true
}

func (s *Memory) put(key string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.m[key]; ok {
		e.Value.(*memEntry).data = data
		s.lru.MoveToFront(e)
		return
	}
	s.m[key] = s.lru.PushFront(&memEntry{key: key, data: data})
	if s.limit > 0 && len(s.m) > s.limit {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.m, oldest.Value.(*memEntry).key)
	}
}

func (s *Memory) drop(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.m[key]; ok {
		s.lru.Remove(e)
		delete(s.m, key)
	}
}
