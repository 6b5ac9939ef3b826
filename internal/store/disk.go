package store

import (
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// DiskBackend is a durable Backend whose unit of a durable write is a
// pack, never one object:
//
//   - Packfiles: append-only packs/pack-NNN.pack files, each mmap'd
//     while the backend is open. PutBatch publishes a batch as one pack
//     (what a migration adds costs one durable write, not one per
//     object). A Get of a packed object is a bounds-checked copy out of
//     the mapping, no open/read/close syscall triple.
//   - The staged tier: Put lands one object — a commit's delta, or a
//     chunk of a version a commit stores whole — in memory and returns. The tier is written out as one pack when its
//     payloads pass stagedLimit, at Flush and at Close; an object is
//     readable when Put returns and durable when one of those does (see
//     Flusher). versioning keeps every acknowledged commit durable all
//     the same: its journal holds the same bytes, and replay Puts again
//     whatever a killed process took with it.
//   - Loose objects, objects/<hex key>, which older builds wrote per Put.
//     Nothing writes them any more; Open indexes the ones it finds (moving
//     files of the still older objects/ab/cdef... fan-out up), Get reads
//     them and Compact folds them into a pack.
//
// Crash safety: a file appears under its final name only after its fsync,
// so no name ever has torn content and Open verifies nothing. Torn *.tmp
// files are swept at open. A crash after a pack is published but before
// the loose files it folded are unlinked leaves both copies; open removes
// the loose ones. The in-memory index is always rebuilt from a scan, so
// no index file can go stale. The scan also finds the records Delete left
// behind in packs that are still alive (a pack is only ever unlinked
// whole); nothing references them, and the store's orphan sweep
// (versioning.Open) drops them again.
//
// Get never returns memory that aliases a mapping, so a mapping lives
// exactly as long as it is useful: it is released when its pack's last
// live record dies and, for every pack, at Close. A closed backend still
// serves reads (a closed repository still serves checkouts): packed
// records then come from the pack file.
type DiskBackend struct {
	root    string // the objects/ directory (legacy loose tier)
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
	looseReads  atomic.Int64 // reads of objects not yet in a pack: staged or loose
	compactions atomic.Int64
}

// objRef locates an object: in pack b.packs[pack] at [off, off+size),
// loose at path(k), or staged in b.staged[k].
type objRef struct {
	pack int32
	off  int64
	size int64
}

const (
	looseTier  = int32(-1)
	stagedTier = int32(-2)
)

// stagedLimit caps the staged tier's payload bytes, and so what a reopen
// after a kill has to Put again: the Put that passes it publishes the tier.
const stagedLimit = 1 << 20

// OpenDiskBackend opens (creating if needed) a disk backend rooted at
// dir. Packfiles live under dir/packs, loose objects an older build left
// under dir/objects. Stale temporary files from a previous crash are
// removed, interrupted compactions are completed, and the in-memory
// index is rebuilt from the scan.
func OpenDiskBackend(dir string) (*DiskBackend, error) {
	root := filepath.Join(dir, "objects")
	packDir := filepath.Join(dir, "packs")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating object dir: %w", err)
	}
	if err := os.MkdirAll(packDir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating pack dir: %w", err)
	}
	b := &DiskBackend{
		root:    root,
		packDir: packDir,
		index:   make(map[Key]objRef),
		staged:  make(map[Key][]byte),
	}

	// Packs first: on a duplicate key the packed copy wins, so the
	// loose walk below can treat "already indexed" as an interrupted
	// compaction and finish it. Within the pack tier, later packs win
	// (a sparse-pack rewrite re-records its survivors in a newer pack).
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

	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if strings.Contains(d.Name(), ".tmp") {
			return os.Remove(path) // torn write from a previous crash
		}
		k, ok := keyFromPath(root, path)
		if !ok {
			return nil // foreign file; leave it alone
		}
		if _, packed := b.index[k]; packed {
			return os.Remove(path) // interrupted compaction: pack copy wins
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		if flat := b.path(k); path != flat {
			if err := os.Rename(path, flat); err != nil { // from a fan-out directory
				return err
			}
		}
		b.index[k] = objRef{pack: looseTier, size: info.Size()}
		b.bytes += info.Size()
		return nil
	})
	if err != nil {
		for _, p := range b.packs {
			p.release()
		}
		return nil, fmt.Errorf("store: scanning object dir: %w", err)
	}
	return b, nil
}

// path maps k to its loose file's location.
func (b *DiskBackend) path(k Key) string { return filepath.Join(b.root, k.String()) }

// keyFromPath reverses path for index rebuilding, and reads the fan-out
// layout (objects/ab/cdef...) as well.
func keyFromPath(root, path string) (Key, bool) {
	rel, err := filepath.Rel(root, path)
	if err != nil {
		return Key{}, false
	}
	h := strings.ReplaceAll(filepath.ToSlash(rel), "/", "")
	raw, err := hex.DecodeString(h)
	if err != nil || len(raw) != len(Key{}) {
		return Key{}, false
	}
	var k Key
	copy(k[:], raw)
	return k, true
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
// staged, an os.ReadFile when loose. The copy is taken under the read
// lock, which is what lets a dying pack be unmapped under the write lock.
func (b *DiskBackend) Get(k Key) ([]byte, error) {
	for {
		b.mu.RLock()
		ref, ok := b.index[k]
		if ok && ref.pack == stagedTier {
			data := b.staged[k]
			b.mu.RUnlock()
			b.looseReads.Add(1)
			return data, nil
		}
		if ok && ref.pack != looseTier {
			data, err := b.packs[ref.pack].read(ref.off, ref.size)
			b.mu.RUnlock()
			if err != nil {
				return nil, fmt.Errorf("store: reading object %s: %w", k, err)
			}
			b.packReads.Add(1)
			return data, nil
		}
		b.mu.RUnlock()
		if !ok {
			return nil, ErrNotFound
		}
		data, err := os.ReadFile(b.path(k))
		if err == nil {
			b.looseReads.Add(1)
			return data, nil
		}
		if !os.IsNotExist(err) {
			return nil, fmt.Errorf("store: reading object %s: %w", k, err)
		}
		// The loose file vanished between the index lookup and the
		// read: either a concurrent Delete (the index entry is gone —
		// report not-found) or a concurrent compaction moved it into a
		// pack (the index now points there — retry resolves it).
		b.mu.RLock()
		ref2, ok2 := b.index[k]
		b.mu.RUnlock()
		if !ok2 || ref2 == ref {
			return nil, ErrNotFound
		}
	}
}

// Delete removes k if present: a staged object is forgotten, a loose one's
// file removed, a packed one's index entry dropped — its pack is unlinked
// and unmapped once the last live entry dies.
func (b *DiskBackend) Delete(k Key) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	ref, ok := b.index[k]
	if !ok {
		return nil
	}
	switch ref.pack {
	case stagedTier:
		delete(b.staged, k)
		b.stagedBytes -= int(ref.size)
	case looseTier:
		if err := os.Remove(b.path(k)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("store: deleting object %s: %w", k, err)
		}
	default:
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

// Compact folds every staged object, every loose object and every sparse
// pack (under half its entries still live) into one new packfile, then
// removes the superseded loose files and unlinks fully-drained packs.
// Concurrent Puts, Gets, and Deletes are safe throughout: the index is
// only retargeted after the new pack is durably published, and Get
// retries cover the unlink window. Returns the number of objects migrated.
func (b *DiskBackend) Compact() (int, error) {
	b.compactMu.Lock()
	defer b.compactMu.Unlock()

	// Snapshot the victims: all staged and loose keys plus live keys of
	// sparse packs. Deletes that race this snapshot are handled at publish.
	b.mu.RLock()
	sparse := make(map[int32]bool)
	for i, p := range b.packs {
		if !p.dead && p.live > 0 && p.live*2 < p.total {
			sparse[int32(i)] = true
		}
	}
	var victims []Key
	for k, ref := range b.index {
		if ref.pack < 0 || sparse[ref.pack] {
			victims = append(victims, k)
		}
	}
	b.mu.RUnlock()
	if len(victims) == 0 {
		return 0, nil
	}

	// Read payloads outside any lock (Get handles concurrent moves).
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
// pack is durably published. A record whose key is indexed elsewhere
// moves to the new pack whatever its tier: content addressing makes any
// current copy byte-identical to the one packed. A key the index does
// not hold is inserted when add is set (PutBatch: a new object) and
// otherwise stays out, its record dead on arrival (Compact: deleted
// since the snapshot). Returns how many records the index now resolves
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

	var freedLoose []Key
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
		case ref.pack == looseTier:
			freedLoose = append(freedLoose, e.key)
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

	// Unlink superseded loose files outside the lock; Get's retry loop
	// covers readers that looked up the loose ref before the retarget.
	// A crash in this window leaves duplicates that the next open
	// resolves in the pack's favor.
	for _, k := range freedLoose {
		os.Remove(b.path(k))
	}
	return moved, nil
}

// Flush publishes the staged tier and syncs the object and pack
// directories: everything Put so far survives a machine crash.
func (b *DiskBackend) Flush() error {
	if err := b.publishStaged(); err != nil {
		return err
	}
	if err := syncDir(b.root); err != nil {
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
