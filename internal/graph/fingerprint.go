package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Fingerprint is a content hash of a graph's structure and costs. Two
// graphs have equal fingerprints iff they have the same node count, the
// same per-node materialization costs, and the same delta sequence
// (endpoints and costs, in insertion order). The Name is deliberately
// excluded: a renamed copy of an instance has identical solutions.
type Fingerprint [sha256.Size]byte

// String returns the hex form of f.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// Fingerprint computes the content hash of g in O(N + M).
func (g *Graph) Fingerprint() Fingerprint {
	h := sha256.New()
	var buf [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	h.Write([]byte("dsv-graph-v1"))
	put(int64(g.N()))
	for _, s := range g.nodeStorage {
		put(s)
	}
	put(int64(g.M()))
	for _, e := range g.edges {
		put(int64(e.From))
		put(int64(e.To))
		put(e.Storage)
		put(e.Retrieval)
	}
	var f Fingerprint
	h.Sum(f[:0])
	return f
}
