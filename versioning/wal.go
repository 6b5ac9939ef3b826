package versioning

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/diff"
	"repro/internal/store"
	"repro/internal/trace"
)

// The write-ahead commit journal is the repository's durable history:
// one self-contained record per commit — ids, graph costs, and the
// content (a full blob for roots, the forward edit script otherwise) —
// so Open can rebuild the version graph and the incremental storage
// chain without any solver or diff work. It is also the durable home of
// every object the backend has not published: a commit's delta, or the
// blob of a version a commit stored whole, goes to store.DiskBackend's
// memory and to no second file, and replay Puts again, idempotently by
// key, whatever a killed process took with it (a whole version's blob
// from its parent's checkout plus the journaled delta).
// The installed *plan* is
// deliberately not journaled: it is derived state the engine re-solves
// after a restart, while the journal only ever grows by appends, which
// keeps every record independent of migrations and GC.
//
// Framing: an 8-byte magic header, then per record a uvarint payload
// length, a little-endian CRC32C of the payload, and the payload. A
// crash can only tear the final record; openWAL detects the damage via
// the checksum/length and truncates the tail, so a record is either
// fully durable or invisible — never half-applied.

// walMagic identifies journal files (and their format version).
var walMagic = []byte("DSVWAL1\n")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// walMergeFlag marks a record whose version has extra (merge) parents
// beyond the primary one. It is OR-ed into the parent+1 varint: node
// ids are int32, so parent+1 never reaches the flag bit and journals
// written before merge support decode unchanged.
const walMergeFlag = uint64(1) << 40

// walEdge is one extra parent of a merge commit: the candidate edge
// pair (parent -> v and back) with its Myers-diff costs. Extra edges
// are never the stored retrieval path at commit time — they enrich the
// version graph so re-plans can exploit the DAG structure.
type walEdge struct {
	parent     NodeID
	fwdStorage Cost // parent -> v
	fwdRetr    Cost
	revStorage Cost // v -> parent
	revRetr    Cost
}

// walRecord is one committed version.
type walRecord struct {
	v           NodeID
	parent      NodeID // NoParent for a root
	nodeStorage Cost
	fwdStorage  Cost // forward-edge costs (parent -> v); zero for roots
	fwdRetr     Cost
	revStorage  Cost // reverse-edge costs (v -> parent); zero for roots
	revRetr     Cost
	extra       []walEdge  // additional merge parents (never for roots)
	lines       []string   // root content (parent == NoParent)
	delta       diff.Delta // forward edit script otherwise
}

// encode serializes rec's payload (without framing).
func (rec walRecord) encode() []byte {
	buf := binary.AppendUvarint(nil, uint64(rec.v))
	ptag := uint64(rec.parent + 1) // NoParent (-1) -> 0
	if len(rec.extra) > 0 {
		ptag |= walMergeFlag
	}
	buf = binary.AppendUvarint(buf, ptag)
	buf = binary.AppendUvarint(buf, uint64(rec.nodeStorage))
	if rec.parent == NoParent {
		return append(buf, store.EncodeBlob(rec.lines)...)
	}
	if len(rec.extra) > 0 {
		buf = binary.AppendUvarint(buf, uint64(len(rec.extra)))
		for _, x := range rec.extra {
			buf = binary.AppendUvarint(buf, uint64(x.parent))
			buf = binary.AppendUvarint(buf, uint64(x.fwdStorage))
			buf = binary.AppendUvarint(buf, uint64(x.fwdRetr))
			buf = binary.AppendUvarint(buf, uint64(x.revStorage))
			buf = binary.AppendUvarint(buf, uint64(x.revRetr))
		}
	}
	buf = binary.AppendUvarint(buf, uint64(rec.fwdStorage))
	buf = binary.AppendUvarint(buf, uint64(rec.fwdRetr))
	buf = binary.AppendUvarint(buf, uint64(rec.revStorage))
	buf = binary.AppendUvarint(buf, uint64(rec.revRetr))
	return append(buf, store.EncodeDelta(rec.delta)...)
}

// decodeWALRecord reverses walRecord.encode.
func decodeWALRecord(b []byte) (walRecord, error) {
	var rec walRecord
	var v, ptag, nodeStorage uint64
	var err error
	if v, b, err = walUvarint(b); err != nil {
		return rec, err
	}
	if ptag, b, err = walUvarint(b); err != nil {
		return rec, err
	}
	if nodeStorage, b, err = walUvarint(b); err != nil {
		return rec, err
	}
	merged := ptag&walMergeFlag != 0
	rec.v, rec.parent, rec.nodeStorage = NodeID(v), NodeID(ptag&^walMergeFlag)-1, Cost(nodeStorage)
	if rec.parent == NoParent {
		if merged {
			return rec, errors.New("versioning: journal record: root with merge parents")
		}
		rec.lines, err = store.DecodeBlob(b)
		return rec, err
	}
	if merged {
		var count uint64
		if count, b, err = walUvarint(b); err != nil {
			return rec, err
		}
		if count == 0 {
			return rec, errors.New("versioning: journal record: merge flag without extra parents")
		}
		// No preallocation by count: it is attacker-controlled in a
		// corrupt journal, while append stays bounded by len(b).
		for i := uint64(0); i < count; i++ {
			var x walEdge
			var p uint64
			if p, b, err = walUvarint(b); err != nil {
				return rec, err
			}
			x.parent = NodeID(p)
			for _, f := range []*Cost{&x.fwdStorage, &x.fwdRetr, &x.revStorage, &x.revRetr} {
				var c uint64
				if c, b, err = walUvarint(b); err != nil {
					return rec, err
				}
				*f = Cost(c)
			}
			rec.extra = append(rec.extra, x)
		}
	}
	for _, f := range []*Cost{&rec.fwdStorage, &rec.fwdRetr, &rec.revStorage, &rec.revRetr} {
		var x uint64
		if x, b, err = walUvarint(b); err != nil {
			return rec, err
		}
		*f = Cost(x)
	}
	rec.delta, err = store.DecodeDelta(b)
	return rec, err
}

// walUvarint consumes one uvarint from b.
func walUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errors.New("versioning: journal record: bad varint")
	}
	return v, b[n:], nil
}

// wal is an append-only commit journal open for writing.
//
// The repository appends each record under commitMu once the commit
// has applied, as one Write, so records reach the file in version order
// and a failed commit writes nothing. Only the fsync is shared
// (waitDurable): the first committer to need one syncs every record
// written so far while later committers ride the next sync. A crash
// tears at most the final record, and replay (openWAL) serves the
// longest intact prefix.
type wal struct {
	f    *os.File
	sync bool // fsync before a commit is acknowledged (otherwise only on Close)

	mu      sync.Mutex
	cond    *sync.Cond
	written uint64 // records written to f
	synced  uint64 // records covered by a finished fsync
	syncing bool   // a leader is at fsync; other waiters wait on cond
	failed  error  // sticky write or fsync failure: the journal is poisoned

	// Durability points: fsyncs with sync, record writes without it.
	batches     atomic.Int64 // durability points reached
	batchedRecs atomic.Int64 // records they covered
	maxBatch    atomic.Int64 // most records one of them covered
}

// append frames rec and writes it as one Write, returning the sequence
// number to waitDurable on. A failure is sticky: the journal cannot tell
// which bytes reached the file, so it refuses every later write.
func (w *wal) append(ctx context.Context, rec walRecord) (uint64, error) {
	payload := rec.encode()
	buf := binary.AppendUvarint(nil, uint64(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, crcTable))
	buf = append(buf, payload...)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return 0, w.failed
	}
	_, span := trace.StartSpan(ctx, "wal.write")
	_, err := w.f.Write(buf)
	span.End()
	if err != nil {
		w.failed = fmt.Errorf("versioning: writing journal record: %w", err)
		return 0, w.failed
	}
	w.written++
	if !w.sync {
		w.count(1)
	}
	return w.written, nil
}

// waitDurable blocks until record seq is fsynced; without sync it
// returns at once. The first waiter that finds no fsync in progress
// leads one for every record written so far; everyone else waits for a
// leader's broadcast. A failed fsync is sticky.
func (w *wal) waitDurable(ctx context.Context, seq uint64) error {
	if !w.sync {
		return nil
	}
	_, span := trace.StartSpan(ctx, "wal.wait")
	defer span.End()
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.synced < seq {
		if w.failed != nil {
			return w.failed
		}
		if w.syncing {
			w.cond.Wait()
			continue
		}
		w.syncing = true
		upto := w.written
		// w.mu is released across the fsync, so commits keep appending
		// while the leader is at the syscall: that wait, not a timer, is
		// what fills the next sync.
		w.mu.Unlock()
		_, ssp := trace.StartSpan(ctx, "wal.fsync")
		err := w.f.Sync()
		ssp.End()
		w.mu.Lock()
		w.syncing = false
		if err != nil {
			w.failed = fmt.Errorf("versioning: syncing journal: %w", err)
		} else {
			w.markSynced(upto)
		}
		w.cond.Broadcast()
	}
	return nil
}

// markSynced records an fsync that covered every record up to upto.
func (w *wal) markSynced(upto uint64) {
	if w.sync && upto > w.synced {
		w.count(upto - w.synced)
	}
	w.synced = upto
}

// count records one durability point covering recs records.
func (w *wal) count(recs uint64) {
	w.batches.Add(1)
	w.batchedRecs.Add(int64(recs))
	if int64(recs) > w.maxBatch.Load() {
		w.maxBatch.Store(int64(recs))
	}
}

// openWAL opens (creating if needed) the journal at path, returns every
// intact record, truncates any torn tail left by a crash, and positions
// the file for appends. truncated reports how many trailing bytes were
// discarded.
func openWAL(path string, syncEvery bool) (w *wal, recs []walRecord, truncated int64, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("versioning: opening journal: %w", err)
	}
	// Sync the parent directory entry once, or a machine crash could
	// lose the whole freshly created journal file even though every
	// append was fsynced.
	if d, derr := os.Open(filepath.Dir(path)); derr == nil {
		_ = d.Sync()
		d.Close()
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, 0, fmt.Errorf("versioning: reading journal: %w", err)
	}
	good := int64(0)
	if len(data) == 0 {
		if _, err := f.Write(walMagic); err != nil {
			f.Close()
			return nil, nil, 0, fmt.Errorf("versioning: initializing journal: %w", err)
		}
		good = int64(len(walMagic))
	} else {
		if len(data) < len(walMagic) || string(data[:len(walMagic)]) != string(walMagic) {
			f.Close()
			return nil, nil, 0, fmt.Errorf("versioning: %s is not a commit journal", path)
		}
		b := data[len(walMagic):]
		good = int64(len(walMagic))
		for len(b) > 0 {
			n, rest, uerr := walUvarint(b)
			// Bounds-check without computing 4+n: a corrupt length varint
			// near 2^64 would overflow the sum and panic the slice below.
			if uerr != nil || uint64(len(rest)) < 4 || uint64(len(rest))-4 < n {
				break // torn length or payload
			}
			want := binary.LittleEndian.Uint32(rest[:4])
			payload := rest[4 : 4+n]
			if crc32.Checksum(payload, crcTable) != want {
				break // torn or corrupt payload
			}
			rec, derr := decodeWALRecord(payload)
			if derr != nil {
				break // undecodable: treat like a torn tail
			}
			recs = append(recs, rec)
			consumed := int64(len(b) - len(rest) + 4 + int(n))
			good += consumed
			b = rest[4+n:]
		}
	}
	truncated = int64(len(data)) - good
	if truncated > 0 {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, 0, fmt.Errorf("versioning: truncating torn journal tail: %w", err)
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, 0, err
	}
	w = &wal{f: f, sync: syncEvery}
	w.cond = sync.NewCond(&w.mu)
	return w, recs, truncated, nil
}

// Close waits out an fsync in flight, syncs and closes the journal, and
// marks every written record synced, so a commit that wrote before Close
// and waits after it is still acknowledged (commits are already excluded
// by the repository's closed flag, so nothing new appends underneath).
func (w *wal) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.syncing {
		w.cond.Wait()
	}
	if w.failed != nil {
		w.f.Close()
		return w.failed
	}
	err := w.f.Sync()
	if err != nil {
		w.failed = fmt.Errorf("versioning: syncing journal: %w", err)
	} else {
		w.markSynced(w.written)
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}
