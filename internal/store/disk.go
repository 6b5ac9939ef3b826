package store

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
)

// DiskBackend is a durable Backend with two tiers, and its unit of a
// durable write is a pack, never one object:
//
//   - Packfiles: append-only packs/pack-NNN.pack files, each mmap'd
//     while the backend is open. PutBatch publishes a batch as one pack
//     (what a migration adds costs one durable write, not one per
//     object). A Get of a packed object is a bounds-checked copy out of
//     the mapping, no open/read/close syscall triple.
//   - The staged tier: Put lands one object — a commit's delta, or a
//     chunk of a version a commit stores whole — in memory and returns.
//     The tier is written out as one pack when its payloads pass
//     stagedLimit, at Flush and at Close; an object is readable when Put
//     returns and durable when one of those does (see Flusher).
//     versioning keeps every acknowledged commit durable all the same:
//     its journal holds the same bytes, and replay Puts again whatever a
//     killed process took with it.
//
// Older builds also wrote loose objects/<hex key> files. The backend
// neither reads nor removes them: versioning.Open rebuilds every object
// such a data dir needs from its journal.
//
// Crash safety: a pack appears under its final name only after its fsync,
// so no name ever has torn content and Open verifies nothing. Torn *.tmp
// files are swept at open. The in-memory index is always rebuilt from a
// scan, so no index file can go stale. The scan also finds the records
// Delete left behind in packs that are still alive (a pack is only ever
// unlinked whole); nothing references them, and the store's orphan sweep
// (versioning.Open) drops them again.
//
// Get never returns memory that aliases a mapping, so a mapping lives
// exactly as long as it is useful: it is released when its pack's last
// live record dies and, for every pack, at Close. A closed backend still
// serves reads (a closed repository still serves checkouts): packed
// records then come from the pack file.
type DiskBackend struct {
	packDir string // the packs/ directory

	mu          sync.RWMutex
	index       map[Key]objRef
	bytes       int64
	packs       []*packFile    // refs index into it; a publish reuses a dead pack's slot
	staged      map[Key][]byte // the staged tier's payloads, immutable once in
	stagedBytes int            // payload bytes in staged

	compactMu sync.Mutex // serializes pack publishes: PutBatch, Compact and the staged tier's
	packSeq   uint64     // last pack sequence number issued; under compactMu

	packReads   atomic.Int64
	looseReads  atomic.Int64 // reads of the staged tier
	compactions atomic.Int64
}

// objRef locates an object: in pack b.packs[pack] at [off, off+size), or
// staged in b.staged[k].
type objRef struct {
	pack int32
	off  int64
	size int64
}

const stagedTier = int32(-1)

// stagedLimit caps the staged tier's payload bytes, and so what a reopen
// after a kill has to Put again: the Put that passes it publishes the tier.
const stagedLimit = 1 << 20

// OpenDiskBackend opens (creating if needed) a disk backend rooted at
// dir, whose packfiles live under dir/packs. Stale temporary files from a
// previous crash are removed and the in-memory index is rebuilt from the
// scan; the staged tier starts empty.
func OpenDiskBackend(dir string) (*DiskBackend, error) {
	packDir := filepath.Join(dir, "packs")
	if err := os.MkdirAll(packDir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating pack dir: %w", err)
	}
	b := &DiskBackend{
		packDir: packDir,
		index:   make(map[Key]objRef),
		staged:  make(map[Key][]byte),
	}

	// Later packs win on a duplicate key (a sparse-pack rewrite re-records
	// its survivors in a newer pack).
	packs, entries, maxSeq, err := scanPacks(packDir)
	if err != nil {
		return nil, fmt.Errorf("store: scanning pack dir: %w", err)
	}
	b.packs = packs
	b.packSeq = maxSeq
	for i, ents := range entries {
		for _, e := range ents {
			if old, dup := b.index[e.key]; dup {
				b.packs[old.pack].live--
				b.bytes -= old.size
			}
			b.index[e.key] = objRef{pack: int32(i), off: e.off, size: e.size}
			b.packs[i].live++
			b.bytes += e.size
		}
	}
	for _, p := range b.packs {
		if p.total > 0 && p.live == 0 {
			p.kill() // fully superseded; reclaim now
		}
	}
	return b, nil
}

// Put stages data under k (idempotent), and publishes the staged tier
// when that takes it past stagedLimit.
func (b *DiskBackend) Put(k Key, data []byte) error {
	b.mu.Lock()
	if _, ok := b.index[k]; ok {
		b.mu.Unlock()
		return nil
	}
	b.index[k] = objRef{pack: stagedTier, size: int64(len(data))}
	b.staged[k] = append([]byte(nil), data...)
	b.bytes += int64(len(data))
	b.stagedBytes += len(data)
	full := b.stagedBytes >= stagedLimit
	b.mu.Unlock()
	if full {
		return b.publishStaged()
	}
	return nil
}

// Get reads the object stored under k: a copy out of its pack when
// packed, the staged payload itself (nothing ever writes to one) when
// staged. The copy is taken under the read lock, which is what lets a
// dying pack be unmapped under the write lock.
func (b *DiskBackend) Get(k Key) ([]byte, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	ref, ok := b.index[k]
	switch {
	case !ok:
		return nil, ErrNotFound
	case ref.pack == stagedTier:
		b.looseReads.Add(1)
		return b.staged[k], nil
	}
	data, err := b.packs[ref.pack].read(ref.off, ref.size)
	if err != nil {
		return nil, fmt.Errorf("store: reading object %s: %w", k, err)
	}
	b.packReads.Add(1)
	return data, nil
}

// Delete removes k if present: a staged object is forgotten, a packed
// one's index entry dropped — its pack is unlinked and unmapped once the
// last live entry dies.
func (b *DiskBackend) Delete(k Key) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	ref, ok := b.index[k]
	if !ok {
		return nil
	}
	if ref.pack == stagedTier {
		delete(b.staged, k)
		b.stagedBytes -= int(ref.size)
	} else {
		b.packs[ref.pack].drop()
	}
	delete(b.index, k)
	b.bytes -= ref.size
	return nil
}

// Len reports the number of stored objects.
func (b *DiskBackend) Len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.index)
}

// Keys calls fn for every stored key (snapshot taken under the lock, so
// fn may mutate the backend).
func (b *DiskBackend) Keys(fn func(k Key) error) error {
	b.mu.RLock()
	keys := make([]Key, 0, len(b.index))
	for k := range b.index {
		keys = append(keys, k)
	}
	b.mu.RUnlock()
	for _, k := range keys {
		if err := fn(k); err != nil {
			return err
		}
	}
	return nil
}

// Stats reports object count and byte footprint.
func (b *DiskBackend) Stats() BackendStats {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return BackendStats{Objects: len(b.index), Bytes: b.bytes}
}

// PackStats reports the pack tier's state and read-path traffic.
func (b *DiskBackend) PackStats() PackStats {
	b.mu.RLock()
	st := PackStats{
		PackReads:   b.packReads.Load(),
		LooseReads:  b.looseReads.Load(),
		Compactions: b.compactions.Load(),
	}
	for _, p := range b.packs {
		if !p.dead {
			st.Packs++
			st.PackedObjects += p.live
		}
	}
	b.mu.RUnlock()
	return st
}

// PutBatch stores objs as one pack: a tmp file, one fsync, a rename and a
// directory fsync, however many objects there are. Keys already held and
// duplicates within the batch are skipped. A single new object goes
// through Put and waits in the staged tier for company.
func (b *DiskBackend) PutBatch(objs []Object) error {
	fresh := make([]Object, 0, len(objs))
	seen := make(map[Key]struct{}, len(objs))
	b.mu.RLock()
	for _, o := range objs {
		_, held := b.index[o.Key]
		if _, dup := seen[o.Key]; held || dup {
			continue
		}
		seen[o.Key] = struct{}{}
		fresh = append(fresh, o)
	}
	b.mu.RUnlock()
	switch len(fresh) {
	case 0:
		return nil
	case 1:
		return b.Put(fresh[0].Key, fresh[0].Payload)
	}
	b.compactMu.Lock()
	defer b.compactMu.Unlock()
	_, err := b.publishPack(fresh, true)
	return err
}

// Compact folds the staged tier and every sparse pack (under half its
// entries still live) into one new packfile, and unlinks the packs it
// drains. Concurrent Puts, Gets, and Deletes are safe throughout: the
// index is only retargeted after the new pack is durably published.
// Returns the number of objects migrated.
func (b *DiskBackend) Compact() (int, error) {
	b.compactMu.Lock()
	defer b.compactMu.Unlock()

	// Snapshot the victims: all staged keys plus live keys of sparse
	// packs. Deletes that race this snapshot are handled at publish.
	b.mu.RLock()
	sparse := make(map[int32]bool)
	for i, p := range b.packs {
		if !p.dead && p.live > 0 && p.live*2 < p.total {
			sparse[int32(i)] = true
		}
	}
	var victims []Key
	for k, ref := range b.index {
		if ref.pack == stagedTier || sparse[ref.pack] {
			victims = append(victims, k)
		}
	}
	b.mu.RUnlock()
	if len(victims) == 0 {
		return 0, nil
	}

	records := make([]Object, 0, len(victims))
	for _, k := range victims {
		payload, err := b.Get(k)
		if err == ErrNotFound {
			continue // deleted since the snapshot
		}
		if err != nil {
			return 0, err
		}
		records = append(records, Object{Key: k, Payload: payload})
	}
	if len(records) == 0 {
		return 0, nil
	}
	moved, err := b.publishPack(records, false)
	if err != nil {
		return 0, err
	}
	b.compactions.Add(1)
	return moved, nil
}

// publishStaged writes the staged tier out as one pack. A Put that lands
// meanwhile waits for the next; a Delete leaves its record dead on arrival.
func (b *DiskBackend) publishStaged() error {
	b.compactMu.Lock()
	defer b.compactMu.Unlock()
	b.mu.RLock()
	records := make([]Object, 0, len(b.staged))
	for k, payload := range b.staged {
		records = append(records, Object{Key: k, Payload: payload})
	}
	b.mu.RUnlock()
	if len(records) == 0 {
		return nil
	}
	_, err := b.publishPack(records, false)
	return err
}

// publishPack writes records as the next pack, maps it and points the
// index at it; compactMu must be held. The index changes only after the
// pack is durably published. A record whose key is staged or packed
// elsewhere moves to the new pack: content addressing makes any current
// copy byte-identical to the one packed. A key the index does not hold
// is inserted when add is set (PutBatch: a new object) and otherwise
// stays out, its record dead on arrival (Compact: deleted since the
// snapshot). Returns how many records the index now resolves
// to the new pack.
func (b *DiskBackend) publishPack(records []Object, add bool) (int, error) {
	b.packSeq++
	dst, entries, err := writePack(b.packDir, b.packSeq, records)
	if err != nil {
		return 0, err
	}
	pf, _, err := openPack(dst)
	if err != nil {
		os.Remove(dst)
		return 0, err
	}

	b.mu.Lock()
	idx := slices.IndexFunc(b.packs, func(p *packFile) bool { return p.dead })
	if idx < 0 {
		idx = len(b.packs)
		b.packs = append(b.packs, nil)
	}
	b.packs[idx] = pf
	for _, e := range entries {
		ref, ok := b.index[e.key]
		switch {
		case !ok && !add:
			continue
		case !ok:
			b.bytes += e.size
		case ref.pack == stagedTier:
			delete(b.staged, e.key)
			b.stagedBytes -= int(ref.size)
		default:
			b.packs[ref.pack].drop()
		}
		b.index[e.key] = objRef{pack: int32(idx), off: e.off, size: e.size}
		pf.live++
	}
	moved := pf.live
	if moved == 0 {
		pf.kill() // every victim was deleted mid-flight
	}
	b.mu.Unlock()
	return moved, nil
}

// Flush publishes the staged tier and syncs the pack directory:
// everything Put so far survives a machine crash.
func (b *DiskBackend) Flush() error {
	if err := b.publishStaged(); err != nil {
		return err
	}
	return syncDir(b.packDir)
}

// syncDir fsyncs a directory, which makes the renames in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Close flushes and then releases every pack mapping. A closed backend
// still serves reads (see the type comment).
func (b *DiskBackend) Close() error {
	err := b.Flush()
	b.compactMu.Lock() // no pack publish in flight past this point
	defer b.compactMu.Unlock()
	b.mu.Lock()
	for _, p := range b.packs {
		p.release()
	}
	b.mu.Unlock()
	return err
}
