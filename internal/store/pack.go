package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Packfile layout. A publish — a batch (PutBatch), the staged tier, or a
// compaction — is a single append-only file under dir/packs:
//
//	magic "DSVPACK1"
//	record*: key[32] | uvarint(len(payload)) | payload
//
// There is no sidecar index: the key and length prefix are enough to
// rebuild the offset table with one sequential header scan at open,
// which removes an entire class of index-out-of-sync crash bugs. Packs
// are immutable once published (tmp + fsync + rename) and deletion only
// ever removes whole files. Reads copy out of
// the pack's mmap under the backend's lock, so the mapping needs no
// reference counting: it ends with the pack's last live record, or at
// Close.

const packMagic = "DSVPACK1"

// PackStats reports the packfile read path's state and traffic, exposed
// by backends that implement PackStatser (today: DiskBackend). Every
// migration that adds two or more objects publishes a pack, and so does
// the staged tier past 1 MiB.
type PackStats struct {
	Packs         int   `json:"packs,omitempty"`          // live (non-empty) packfiles
	PackedObjects int   `json:"packed_objects,omitempty"` // live objects resolved from packs
	PackReads     int64 `json:"pack_reads,omitempty"`     // Gets served from a pack
	LooseReads    int64 `json:"loose_reads,omitempty"`    // Gets served from the staged tier, not yet in a pack
	Compactions   int64 `json:"compactions,omitempty"`    // completed Compact passes
}

// PackStatser is the optional Backend extension for pack bookkeeping.
type PackStatser interface {
	PackStats() PackStats
}

// packFile is one packfile. Fields are guarded by the owning
// DiskBackend's mutex.
type packFile struct {
	path  string
	data  []byte       // full mmap'd file contents; nil once released
	unmap func() error // releases data
	live  int          // entries still pointed at by the index
	total int          // entries in the file, live or dead
	dead  bool         // unlinked and unmapped
}

// mappedPacks counts live pack mappings, for the leak tests.
var mappedPacks atomic.Int64

// read copies one record's payload out: from the mapping while there is
// one, from the file once Close has released it. Holding the backend's
// mutex (read suffices) keeps the mapping and a live record's file in
// place meanwhile.
func (p *packFile) read(off, size int64) ([]byte, error) {
	out := make([]byte, size)
	if p.data != nil {
		copy(out, p.data[off:off+size])
		return out, nil
	}
	f, err := os.Open(p.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	_, err = f.ReadAt(out, off)
	return out, err
}

// drop retires one live record; the pack dies with its last.
func (p *packFile) drop() {
	if p.live--; p.live == 0 {
		p.kill()
	}
}

// kill unlinks and unmaps a pack no index entry points at.
func (p *packFile) kill() {
	p.dead = true
	os.Remove(p.path)
	p.release()
}

// release unmaps the pack; read goes to the file from here on.
func (p *packFile) release() {
	if p.data != nil {
		p.unmap()
		p.data = nil
		mappedPacks.Add(-1)
	}
}

// packEntry locates one record's payload during parsing/publication.
type packEntry struct {
	key  Key
	off  int64 // payload offset within the file
	size int64
}

// parsePack header-scans a pack's mapped contents into its entry list.
// A truncated tail (torn final record from a crash mid-rename — should
// be impossible given the tmp+rename protocol, but disks lie) ends the
// scan rather than failing it: every complete record before the tear is
// still served.
func parsePack(data []byte) ([]packEntry, error) {
	if len(data) < len(packMagic) || string(data[:len(packMagic)]) != packMagic {
		return nil, fmt.Errorf("bad pack magic")
	}
	var entries []packEntry
	off := int64(len(packMagic))
	for off < int64(len(data)) {
		if int64(len(data))-off < int64(len(Key{}))+1 {
			break // torn tail
		}
		var k Key
		copy(k[:], data[off:])
		off += int64(len(Key{}))
		size, n := binary.Uvarint(data[off:])
		if n <= 0 {
			break // torn tail
		}
		off += int64(n)
		if off+int64(size) > int64(len(data)) {
			break // torn tail
		}
		entries = append(entries, packEntry{key: k, off: off, size: int64(size)})
		off += int64(size)
	}
	return entries, nil
}

// packName formats the sequence-numbered pack filename; packSeqOf
// reverses it for open-time scanning.
func packName(seq uint64) string { return fmt.Sprintf("pack-%016d.pack", seq) }

func packSeqOf(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "pack-") || !strings.HasSuffix(name, ".pack") {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "pack-"), ".pack"), 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// openPack maps an existing packfile and parses its records.
func openPack(path string) (*packFile, []packEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	data, unmap, err := mmapFile(f, info.Size())
	if err != nil {
		return nil, nil, fmt.Errorf("store: mapping pack %s: %w", path, err)
	}
	entries, err := parsePack(data)
	if err != nil {
		unmap()
		return nil, nil, fmt.Errorf("store: pack %s: %w", path, err)
	}
	mappedPacks.Add(1)
	return &packFile{path: path, data: data, unmap: unmap, total: len(entries)}, entries, nil
}

// scanPacks loads every pack under packDir in sequence order, removing
// stale *.tmp spills from interrupted compactions. Returns the packs,
// their entry lists, and the highest sequence number seen.
func scanPacks(packDir string) ([]*packFile, [][]packEntry, uint64, error) {
	ents, err := os.ReadDir(packDir)
	if err != nil {
		return nil, nil, 0, err
	}
	var names []string
	var maxSeq uint64
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if strings.Contains(e.Name(), ".tmp") {
			os.Remove(filepath.Join(packDir, e.Name())) // torn compaction
			continue
		}
		seq, ok := packSeqOf(e.Name())
		if !ok {
			continue // foreign file; leave it alone
		}
		if seq > maxSeq {
			maxSeq = seq
		}
		names = append(names, e.Name())
	}
	sort.Strings(names) // zero-padded seq: lexicographic == numeric
	packs := make([]*packFile, 0, len(names))
	entries := make([][]packEntry, 0, len(names))
	for _, name := range names {
		p, ents, err := openPack(filepath.Join(packDir, name))
		if err != nil {
			for _, q := range packs {
				q.release()
			}
			return nil, nil, 0, err
		}
		packs = append(packs, p)
		entries = append(entries, ents)
	}
	return packs, entries, maxSeq, nil
}

// writePack streams records to a tmp file in packDir and atomically
// publishes it as seq's pack. Returns the final path and the entry
// locations (offsets are valid for the published file).
func writePack(packDir string, seq uint64, records []Object) (string, []packEntry, error) {
	tmp, err := os.CreateTemp(packDir, "pack-*.tmp")
	if err != nil {
		return "", nil, fmt.Errorf("store: tmp pack: %w", err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	// A buffer the size of the pack, up to 1 MiB: a migration's two dozen
	// small objects should not cost a megabyte of garbage per publish.
	size := len(packMagic)
	for _, r := range records {
		size += len(Key{}) + binary.MaxVarintLen64 + len(r.Payload)
	}
	w := bufio.NewWriterSize(tmp, min(size, 1<<20))
	if _, err := w.WriteString(packMagic); err != nil {
		return "", nil, err
	}
	var hdr [binary.MaxVarintLen64]byte
	entries := make([]packEntry, 0, len(records))
	off := int64(len(packMagic))
	for _, r := range records {
		if _, err := w.Write(r.Key[:]); err != nil {
			return "", nil, err
		}
		n := binary.PutUvarint(hdr[:], uint64(len(r.Payload)))
		if _, err := w.Write(hdr[:n]); err != nil {
			return "", nil, err
		}
		off += int64(len(Key{})) + int64(n)
		if _, err := w.Write(r.Payload); err != nil {
			return "", nil, err
		}
		entries = append(entries, packEntry{key: r.Key, off: off, size: int64(len(r.Payload))})
		off += int64(len(r.Payload))
	}
	if err := w.Flush(); err != nil {
		return "", nil, err
	}
	if err := tmp.Sync(); err != nil {
		return "", nil, err
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		tmp = nil
		return "", nil, err
	}
	tmp = nil
	dst := filepath.Join(packDir, packName(seq))
	if err := os.Rename(name, dst); err != nil {
		os.Remove(name)
		return "", nil, fmt.Errorf("store: publishing pack: %w", err)
	}
	_ = syncDir(packDir) // the pack stands without it; Flush syncs again and reports
	return dst, entries, nil
}
