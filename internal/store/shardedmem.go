package store

import (
	"encoding/binary"
	"sync"
)

// ShardedMemBackend is an in-memory Backend split into N shards, each
// guarded by its own RWMutex. Objects land in the shard addressed by the
// leading bytes of their content hash, which SHA-256 distributes
// uniformly, so concurrent checkouts touching different objects contend
// only per shard instead of on one store-wide mutex. This is the default
// backend of versioning.Repository.
type ShardedMemBackend struct {
	shards []memShard
}

type memShard struct {
	mu      sync.RWMutex
	objects map[Key][]byte
	bytes   int64
}

// DefaultShards is the shard count NewShardedMemBackend uses for n <= 0.
const DefaultShards = 16

// NewShardedMemBackend returns an empty backend with n shards
// (n <= 0 means DefaultShards).
func NewShardedMemBackend(n int) *ShardedMemBackend {
	if n <= 0 {
		n = DefaultShards
	}
	b := &ShardedMemBackend{shards: make([]memShard, n)}
	for i := range b.shards {
		b.shards[i].objects = make(map[Key][]byte)
	}
	return b
}

// NewMemBackend returns an empty single-mutex in-memory backend: one
// shard, the contention baseline the sharded default is benchmarked
// against.
func NewMemBackend() *ShardedMemBackend { return NewShardedMemBackend(1) }

// shard picks the shard owning k from the hash's leading bytes.
func (b *ShardedMemBackend) shard(k Key) *memShard {
	return &b.shards[binary.BigEndian.Uint32(k[:4])%uint32(len(b.shards))]
}

// Put stores data under k (idempotent).
func (b *ShardedMemBackend) Put(k Key, data []byte) error {
	s := b.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.objects[k]; ok {
		return nil
	}
	s.objects[k] = append([]byte(nil), data...)
	s.bytes += int64(len(data))
	return nil
}

// Get returns the object stored under k.
func (b *ShardedMemBackend) Get(k Key) ([]byte, error) {
	s := b.shard(k)
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.objects[k]
	if !ok {
		return nil, ErrNotFound
	}
	return data, nil
}

// Delete removes k if present.
func (b *ShardedMemBackend) Delete(k Key) error {
	s := b.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if data, ok := s.objects[k]; ok {
		s.bytes -= int64(len(data))
		delete(s.objects, k)
	}
	return nil
}

// Len reports the number of stored objects.
func (b *ShardedMemBackend) Len() int {
	n := 0
	for i := range b.shards {
		s := &b.shards[i]
		s.mu.RLock()
		n += len(s.objects)
		s.mu.RUnlock()
	}
	return n
}

// Keys calls fn for every stored key, shard by shard (each shard's key
// set is snapshotted under its lock, so fn may mutate the backend).
func (b *ShardedMemBackend) Keys(fn func(k Key) error) error {
	for i := range b.shards {
		s := &b.shards[i]
		s.mu.RLock()
		keys := make([]Key, 0, len(s.objects))
		for k := range s.objects {
			keys = append(keys, k)
		}
		s.mu.RUnlock()
		for _, k := range keys {
			if err := fn(k); err != nil {
				return err
			}
		}
	}
	return nil
}

// Stats reports object count and byte footprint across all shards.
func (b *ShardedMemBackend) Stats() BackendStats {
	var st BackendStats
	for i := range b.shards {
		s := &b.shards[i]
		s.mu.RLock()
		st.Objects += len(s.objects)
		st.Bytes += s.bytes
		s.mu.RUnlock()
	}
	return st
}
