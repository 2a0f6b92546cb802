package lruow

import (
	"bytes"
	"sync"
)

// Store is the persistence service of the paper's fig. 3 that a UOW reads
// and writes: an in-memory versioned key-value store, safe for concurrent
// use. Every Put returns a monotonically increasing version, which the
// performance phase checks the rehearsal's predicates against.
type Store struct {
	mu      sync.RWMutex
	data    map[string]versioned
	version uint64
}

// versioned is a value with its version number.
type versioned struct {
	value   []byte
	version uint64
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{data: make(map[string]versioned)}
}

// Get returns a copy of the value and the version for key, and whether it
// exists.
func (s *Store) Get(key string) ([]byte, uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.data[key]
	if !ok {
		return nil, 0, false
	}
	return bytes.Clone(v.value), v.version, true
}

// Put stores a copy of value under key and returns the new version.
func (s *Store) Put(key string, value []byte) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.version++
	s.data[key] = versioned{value: bytes.Clone(value), version: s.version}
	return s.version
}

// Version returns the key's current version, 0 if absent.
func (s *Store) Version(key string) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.data[key].version
}
