package store

import "errors"

// ErrNotFound reports a missing object.
var ErrNotFound = errors.New("store: object not found")

// ErrUnknownVersion reports a read of a version id the store never held.
// Errors wrap it after their own package prefix, so it carries none.
var ErrUnknownVersion = errors.New("unknown version")

// BackendStats summarizes a backend's footprint.
type BackendStats struct {
	Objects int
	Bytes   int64
}

// Backend is a flat content-addressed object store. Keys are content
// hashes, so Put is idempotent: writing an existing key is a no-op (the
// bytes are by construction identical). Implementations must be safe for
// concurrent use, including Keys iteration racing mutations (the
// iteration then observes some mutations and not others, which is fine
// for the orphan sweeps it serves).
//
// An object is readable when Put returns; for when it is durable see
// Flusher.
//
// Two implementations exist: ShardedMemBackend (per-shard RWMutexes,
// the serving default; one shard is the contention baseline) and
// DiskBackend (durable: packfiles, survives restarts). The conformance
// suite in backendtest pins the shared contract.
type Backend interface {
	Put(k Key, data []byte) error
	Get(k Key) ([]byte, error)       // ErrNotFound when absent
	Delete(k Key) error              // deleting an absent key is a no-op
	Len() int                        // number of stored objects
	Keys(fn func(k Key) error) error // iterate keys; fn's error aborts
	Stats() BackendStats
}

// Flusher is implemented by backends that buffer what Put hands them
// (DiskBackend): every object Put before Flush is on stable storage when
// Flush returns. A caller that needs one to outlive the process sooner
// keeps its own durable copy, as versioning's journal does.
type Flusher interface {
	Flush() error
}

// Closer is implemented by backends holding OS resources.
type Closer interface {
	Close() error
}

// Object is one key and its payload, as a batch carries it.
type Object struct {
	Key     Key
	Payload []byte
}

// BatchPutter is implemented by backends that can publish many objects
// at the cost of one (DiskBackend: one pack, one fsync). PutBatch leaves
// the backend as Put of each object in turn would: keys already held and
// duplicates within the batch are no-ops. On error any subset of the
// batch may have landed.
type BatchPutter interface {
	PutBatch(objs []Object) error
}

// putBatch publishes objs through PutBatch where b has it, otherwise one
// Put at a time.
func putBatch(b Backend, objs []Object) error {
	if bp, ok := b.(BatchPutter); ok {
		return bp.PutBatch(objs)
	}
	for _, o := range objs {
		if err := b.Put(o.Key, o.Payload); err != nil {
			return err
		}
	}
	return nil
}
