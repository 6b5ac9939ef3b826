// Package diff implements a Myers O(ND) line diff and a compact delta
// representation with apply support. It is the "simple diff" substrate of
// Section 7.1: natural version graphs weight their deltas by the size of
// the edit script between parent and child commits, which makes the
// storage and retrieval costs of an edge proportional — the single-weight
// setting of Section 2.2.
//
// For N and M lines at edit distance D, Compute takes O((N+M)·D) time and
// O(D²) working memory, pooled across calls, so a call allocates only the
// script it returns. The script is a function of the two inputs alone and
// is pinned command for command against the reference kernel in
// diff_test.go: edge costs, stored delta keys and WAL replay depend on it
// and must not move when the kernel is tuned.
package diff

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/graph"
)

// Op is a delta command kind.
type Op uint8

// Delta command kinds.
const (
	OpKeep   Op = iota // copy N lines from the source
	OpDelete           // skip N source lines
	OpInsert           // emit Lines
)

// Cmd is one delta command.
type Cmd struct {
	Op    Op
	N     int      // for OpKeep / OpDelete
	Lines []string // for OpInsert
}

// Delta is an edit script transforming one line slice into another.
type Delta struct {
	Cmds []Cmd
}

// cmdOverhead approximates the bytes a command header occupies in a
// serialized delta.
const cmdOverhead = 8

// StorageCost is the approximate serialized size of the delta in bytes:
// inserted payload plus a fixed per-command header.
func (d Delta) StorageCost() graph.Cost {
	var c graph.Cost
	for _, cmd := range d.Cmds {
		c += cmdOverhead
		for _, l := range cmd.Lines {
			c += graph.Cost(len(l)) + 1
		}
	}
	return c
}

// scratch is Compute's working memory. rows[0] is a zero that stands in
// for the row before step 0; after it, step d's row holds the furthest x
// on the d+1 diagonals -d, -d+2, ..., d, at 1+d(d+1)/2.
type scratch struct {
	rows []int
	cmds []Cmd
}

var scratchPool = sync.Pool{New: func() any { return &scratch{rows: make([]int, 1, 1024)} }}

// maxPooledRows is the largest rows arena (8 MiB) that goes back to the
// pool: one diff of unrelated files must not pin its D²/2 ints.
const maxPooledRows = 1 << 20

// Compute produces the minimal edit script from a to b using Myers'
// greedy forward search. Time is O((N+M)·D) and working memory O(D²) for
// an edit distance of D, taken from a pool: step d reads only the d
// diagonals of step d-1, so each step writes its own row of a triangular
// arena, and the backtrack reads the rows as its trace. A call allocates
// the returned commands and one slice of inserted lines.
func Compute(a, b []string) Delta {
	n, m := len(a), len(b)
	if n == 0 && m == 0 {
		return Delta{}
	}
	s := scratchPool.Get().(*scratch)
	rows := s.rows
	dFinal := 0
	prev, cur := 0, 1
search:
	for d := 0; ; d++ {
		if cur+d+1 > len(rows) {
			rows = slices.Grow(rows, d+1)
			rows = rows[:cap(rows)]
		}
		p, row := rows[prev:cur], rows[cur:cur+d+1]
		for i := range row {
			k := 2*i - d
			var x int
			if i == 0 || (i != d && p[i-1] < p[i]) {
				x = p[i]
			} else {
				x = p[i-1] + 1
			}
			y := x - k
			for x < n && y < m && a[x] == b[y] {
				x++
				y++
			}
			row[i] = x
			if x >= n && y >= m {
				dFinal = d
				break search
			}
		}
		prev, cur = cur, cur+d+1
	}
	// Backtrack from (n, m) through the rows. Each step yields the snake
	// that follows edit d and then the edit itself, so the commands come
	// out last first; the D edits are (D+m-n)/2 inserts and the rest
	// deletes, which sizes the inserted lines before any is known.
	rev := s.cmds[:0]
	ins := make([]string, (dFinal+m-n)/2)
	at := len(ins) // ins[at:] is filled
	x, y := n, m
	for d := dFinal; d > 0; d-- {
		p := rows[1+(d-1)*d/2:][:d]
		i := (x - y + d) / 2
		// As in the search: down from diagonal k+1 inserts a line of b,
		// right from k-1 deletes one of a. mid is x once edit d is made,
		// where its snake starts.
		insert := i == 0 || (i != d && p[i-1] < p[i])
		var mid int
		if insert {
			mid = p[i]
		} else {
			mid = p[i-1] + 1
		}
		if x > mid {
			rev = append(rev, Cmd{Op: OpKeep, N: x - mid})
		}
		y -= x - mid
		x = mid
		last := len(rev) - 1
		if insert {
			y--
			at--
			ins[at] = b[y]
			if last >= 0 && rev[last].Op == OpInsert {
				end := at + 1 + len(rev[last].Lines)
				rev[last].Lines = ins[at:end:end]
			} else {
				rev = append(rev, Cmd{Op: OpInsert, Lines: ins[at : at+1 : at+1]})
			}
		} else {
			x--
			if last >= 0 && rev[last].Op == OpDelete {
				rev[last].N++
			} else {
				rev = append(rev, Cmd{Op: OpDelete, N: 1})
			}
		}
	}
	if x > 0 {
		rev = append(rev, Cmd{Op: OpKeep, N: x}) // the snake of step 0
	}
	out := make([]Cmd, len(rev))
	for j, c := range rev {
		out[len(rev)-1-j] = c
	}
	clear(rev) // the pool must not keep ins alive
	if len(rows) <= maxPooledRows {
		s.rows, s.cmds = rows, rev
		scratchPool.Put(s)
	}
	return Delta{Cmds: out}
}

// ErrBadDelta reports a delta that does not fit the source it is applied
// to.
var ErrBadDelta = errors.New("diff: delta does not match source")

// Apply transforms a by the delta, returning the target lines in a new
// slice of exactly their length.
func (d Delta) Apply(a []string) ([]string, error) { return d.ApplyTo(nil, a) }

// ApplyTo is Apply writing the target lines into dst from its start: it
// returns dst[:n] when dst can hold the n lines, and a new slice of
// exactly n otherwise. dst must not overlap a. On error any element of
// dst's array, up to its capacity, may hold a line of a or of the delta.
// The result is never nil, so an empty target is an empty slice
// whichever path built it.
func (d Delta) ApplyTo(dst, a []string) ([]string, error) {
	// Size the output once. A keep that overruns a is left out of the
	// count, so a bad delta cannot ask for more than a and the delta
	// already hold; the loop below reports it.
	keep, ins := 0, 0
	for _, cmd := range d.Cmds {
		switch cmd.Op {
		case OpKeep:
			if cmd.N > 0 && cmd.N <= len(a)-keep {
				keep += cmd.N
			}
		case OpInsert:
			ins += len(cmd.Lines)
		}
	}
	out := dst[:0]
	if dst == nil || cap(dst) < keep+ins {
		out = make([]string, 0, keep+ins)
	}
	// Counts are compared with what is left of a, never added to ai: a
	// count near MaxInt would wrap the sum past the check.
	ai := 0
	for i, cmd := range d.Cmds {
		switch cmd.Op {
		case OpKeep:
			if cmd.N < 0 || cmd.N > len(a)-ai {
				return nil, fmt.Errorf("%w: keep %d at %d beyond %d lines (cmd %d)", ErrBadDelta, cmd.N, ai, len(a), i)
			}
			out = append(out, a[ai:ai+cmd.N]...)
			ai += cmd.N
		case OpDelete:
			if cmd.N < 0 || cmd.N > len(a)-ai {
				return nil, fmt.Errorf("%w: delete %d at %d beyond %d lines (cmd %d)", ErrBadDelta, cmd.N, ai, len(a), i)
			}
			ai += cmd.N
		case OpInsert:
			out = append(out, cmd.Lines...)
		default:
			return nil, fmt.Errorf("%w: unknown op %d", ErrBadDelta, cmd.Op)
		}
	}
	if ai != len(a) {
		return nil, fmt.Errorf("%w: consumed %d of %d source lines", ErrBadDelta, ai, len(a))
	}
	return out, nil
}

// ByteSize is the total byte size of a version's content (its
// materialization cost under the Section 7.1 cost model).
func ByteSize(lines []string) graph.Cost {
	var c graph.Cost
	for _, l := range lines {
		c += graph.Cost(len(l)) + 1
	}
	return c
}
