// Package lmg implements the Local Move Greedy heuristic of Bhattacherjee
// et al. [VLDB'15] (Algorithm 1 in the paper) and its generalization
// LMG-All (Algorithm 7, Section 6.1) for MinSum Retrieval.
//
// Both heuristics start from the minimum-storage arborescence of the
// extended version graph and greedily apply the move with the best ratio
// ρ = (reduction in total retrieval) / (increase in storage) while the
// storage constraint permits. LMG only considers materializing a version;
// LMG-All considers swapping in any delta (auxiliary or not), which the
// paper shows consistently dominates LMG.
//
// Both run on one incremental engine (greedy): the candidate moves sit
// in a heap in move.better order, and a move of v re-keys only the
// candidates it changed — those entering subtree(v) or the old and new
// parents' paths up to where they meet, and those leaving subtree(v). A
// move so costs O(d·log M) for the d candidates it touches, not O(N+M):
// on freeCodeCamp (31,270 versions, 102,804 candidates) a move touches
// 3.3 % of them. LMG-All still does more than LMG — it has M candidates
// to LMG's N and makes more moves — so LMG is the faster of the two.
// Measured on one 2.1 GHz Xeon core: on replan-scale's 950-version graph
// at twice the min storage, past the arborescence (2.8 ms), LMG takes
// 1.3 ms and LMG-All 2.3 ms for its 314 moves; on freeCodeCamp at 1.5×,
// arborescence included, LMG takes 0.1 s and LMG-All 1.1–1.4 s for its
// 7,601 moves.
package lmg

import (
	"context"
	"math/bits"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/graphalg"
	"repro/internal/plan"
)

// ratioLess reports whether ratio a = an/ad is strictly less than
// b = bn/bd. All numerators/denominators must be positive. Comparison is
// exact via 128-bit products (an·bd < bn·ad) so huge retrieval sums
// cannot overflow.
func ratioLess(an, ad, bn, bd graph.Cost) bool {
	hi1, lo1 := bits.Mul64(uint64(an), uint64(bd))
	hi2, lo2 := bits.Mul64(uint64(bn), uint64(ad))
	if hi1 != hi2 {
		return hi1 < hi2
	}
	return lo1 < lo2
}

// move is a candidate greedy step: give node v the new parent edge id.
type move struct {
	edge graph.EdgeID
	v    graph.NodeID
	// gain = R(T) - R(Te) ≥ 0; costUp = S(Te) - S(T). costUp ≤ 0 means a
	// free move (ratio +∞).
	gain   graph.Cost
	costUp graph.Cost
}

// better reports whether m beats cur under the greedy ratio order with
// deterministic tie-breaking (smaller edge id wins ties). It is a strict
// total order on moves with distinct edges.
func (m move) better(cur move) bool {
	mFree, cFree := m.costUp <= 0, cur.costUp <= 0
	switch {
	case mFree && !cFree:
		return true
	case !mFree && cFree:
		return false
	case mFree && cFree:
		// Both free: larger retrieval gain first, then cheaper storage,
		// then id.
		if m.gain != cur.gain {
			return m.gain > cur.gain
		}
		if m.costUp != cur.costUp {
			return m.costUp < cur.costUp
		}
		return m.edge < cur.edge
	}
	// Both finite positive ratios gain/costUp.
	if ratioLess(cur.gain, cur.costUp, m.gain, m.costUp) {
		return true
	}
	if ratioLess(m.gain, m.costUp, cur.gain, cur.costUp) {
		return false
	}
	return m.edge < cur.edge
}

// LMG runs Algorithm 1: repeatedly materialize the version with the best
// retrieval-reduction per storage-increase ratio until the storage
// constraint S would be violated or no move improves the solution. It
// checks ctx before every move and returns ctx's error once ctx is done,
// and starts from the min-storage arborescence ctx carries for g
// (core.WithMinStorage), if any. A budget below the min storage is
// core.ErrInfeasible.
func LMG(ctx context.Context, g *graph.Graph, s graph.Cost) (core.Solution, error) {
	return run(ctx, g, s, false)
}

// LMGAll runs Algorithm 7: like LMG, but every delta swap (u,v) replacing
// v's current parent edge is a candidate move, not just materializations.
// Moves that worsen total retrieval are skipped; moves that reduce (or
// keep) storage while strictly improving the solution are taken eagerly
// (infinite ratio), matching lines 11–12 of Algorithm 7 with a strictness
// guard that guarantees termination.
func LMGAll(ctx context.Context, g *graph.Graph, s graph.Cost) (core.Solution, error) {
	return run(ctx, g, s, true)
}

// run is the move loop of both heuristics: all selects LMG-All's
// candidates and filter over LMG's.
func run(ctx context.Context, g *graph.Graph, s graph.Cost, all bool) (core.Solution, error) {
	gr, err := start(ctx, g, s, all)
	if err != nil {
		return core.Solution{}, err
	}
	for {
		if err := ctx.Err(); err != nil {
			return core.Solution{}, err
		}
		m, ok := gr.best()
		if !ok {
			break
		}
		gr.apply(m)
	}
	p, err := plan.FromExtendedTree(gr.x, gr.t.ParentEdge[:g.N()])
	if err != nil {
		return core.Solution{}, err
	}
	return core.Solution{Plan: p, Cost: plan.Evaluate(g, p)}, nil
}

// start builds the tree of g's min-storage arborescence and its
// candidate set under budget s.
func start(ctx context.Context, g *graph.Graph, s graph.Cost, all bool) (*greedy, error) {
	msa, err := core.MinStorageOf(ctx, g)
	if err != nil {
		return nil, err
	}
	x := msa.X
	t, err := graphalg.NewTree(x.Graph, x.Aux, msa.ParentEdge)
	if err != nil {
		return nil, err
	}
	storage := t.StorageCost()
	if storage > s {
		return nil, core.ErrInfeasible
	}
	gr := &greedy{x: x, t: t, all: all, storage: storage, budget: s,
		ready: newQueue(x.M(), false), aside: newQueue(x.M(), true)}
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		gr.offerInto(v)
	}
	return gr, nil
}

// greedy is the candidate set of one run, in two indexed heaps. A
// candidate whose key passes the filter is in one of them under its
// current key — ready if it fitted the budget when last offered, aside
// if not — unless it was last seen closing a cycle. The top of ready is
// the move a full scan of the candidates would pick, once tops that close
// a cycle or no longer fit are taken off, and a move that lowers storage
// moves the cheapest of aside back while they fit.
//
// A candidate's key depends on the tree only through its head's SubSize,
// Retrieval and parent edge and its tail's Retrieval, and whether it
// closes a cycle only on its tail's ancestors; apply offers again
// exactly the candidates a move changed.
type greedy struct {
	x       *graph.Extended
	t       *graphalg.Tree
	all     bool // LMG-All: every edge into a version; LMG: auxiliary edges, gain > 0
	storage graph.Cost
	budget  graph.Cost
	ready   queue // by move.better
	aside   queue // by costUp
}

// eval is candidate id's move on the current tree, and whether it passes
// the filter: a full scan's tests, less the budget and the cycle.
func (gr *greedy) eval(id graph.EdgeID) (move, bool) {
	t := gr.t
	e := gr.x.Edge(id)
	cur := t.ParentEdge[e.To]
	if cur == int32(id) {
		return move{}, false
	}
	m := move{
		edge:   id,
		v:      e.To,
		gain:   graph.Cost(t.SubSize[e.To]) * (t.Retrieval[e.To] - (t.Retrieval[e.From] + e.Retrieval)),
		costUp: e.Storage - gr.x.Edge(graph.EdgeID(cur)).Storage,
	}
	return m, m.gain > 0 || gr.all && m.gain == 0 && m.costUp < 0
}

// offer files candidate id under its current key.
func (gr *greedy) offer(id graph.EdgeID) {
	m, ok := gr.eval(id)
	switch {
	case !ok:
		gr.ready.remove(id)
		gr.aside.remove(id)
	case gr.storage+m.costUp <= gr.budget:
		gr.aside.remove(id)
		gr.ready.set(m)
	default:
		gr.ready.remove(id)
		gr.aside.set(m)
	}
}

// offerInto offers the candidates that enter v.
func (gr *greedy) offerInto(v graph.NodeID) {
	if !gr.all {
		gr.offer(gr.x.AuxEdge(v))
		return
	}
	for _, id := range gr.x.In(v) {
		gr.offer(id)
	}
}

// best takes the top of ready off while it no longer fits or closes a
// cycle (an ancestor walk from its tail), and returns it.
func (gr *greedy) best() (move, bool) {
	for len(gr.ready.moves) > 0 {
		m := gr.ready.moves[0]
		switch {
		case gr.storage+m.costUp > gr.budget:
			gr.ready.remove(m.edge)
			gr.aside.set(m)
		case gr.t.IsDescendant(m.v, gr.x.Edge(m.edge).From):
			gr.ready.remove(m.edge)
		default:
			return m, true
		}
	}
	return move{}, false
}

// apply makes move m and offers again the candidates it changed: those
// entering a node whose values changed and, for LMG-All, those leaving
// subtree(m.v), whose tails' retrieval and ancestors changed. Set-aside
// candidates that fit after the move go back to ready.
func (gr *greedy) apply(m move) {
	subtree, path := gr.t.Reattach(m.v, m.edge)
	gr.storage += m.costUp
	for _, w := range subtree {
		gr.offerInto(w)
		if gr.all {
			for _, id := range gr.x.Out(w) {
				gr.offer(id)
			}
		}
	}
	for _, w := range path {
		gr.offerInto(w)
	}
	for len(gr.aside.moves) > 0 && gr.storage+gr.aside.moves[0].costUp <= gr.budget {
		c := gr.aside.moves[0]
		gr.aside.remove(c.edge)
		gr.ready.set(c)
	}
}

// queue is an indexed binary heap of moves, one per candidate edge, so a
// candidate offered again is fixed in place. It orders by move.better,
// or by costUp alone.
type queue struct {
	moves  []move
	at     []int32 // per edge: index in moves, or -1
	byCost bool
}

func newQueue(edges int, byCost bool) queue {
	q := queue{at: make([]int32, edges), byCost: byCost}
	for i := range q.at {
		q.at[i] = -1
	}
	return q
}

func (q *queue) before(i, j int) bool {
	if q.byCost {
		return q.moves[i].costUp < q.moves[j].costUp
	}
	return q.moves[i].better(q.moves[j])
}

// set inserts m, or replaces the entry of its edge.
func (q *queue) set(m move) {
	i := q.at[m.edge]
	if i < 0 {
		i = int32(len(q.moves))
		q.moves = append(q.moves, m)
		q.at[m.edge] = i
	} else {
		q.moves[i] = m
	}
	q.down(q.up(int(i)))
}

// remove takes edge id's entry out, if it has one.
func (q *queue) remove(id graph.EdgeID) {
	i := int(q.at[id])
	if i < 0 {
		return
	}
	q.at[id] = -1
	last := len(q.moves) - 1
	if i != last {
		q.moves[i] = q.moves[last]
		q.at[q.moves[i].edge] = int32(i)
	}
	q.moves = q.moves[:last]
	if i != last {
		q.down(q.up(i))
	}
}

func (q *queue) swap(i, j int) {
	q.moves[i], q.moves[j] = q.moves[j], q.moves[i]
	q.at[q.moves[i].edge] = int32(i)
	q.at[q.moves[j].edge] = int32(j)
}

func (q *queue) up(i int) int {
	for i > 0 {
		p := (i - 1) / 2
		if !q.before(i, p) {
			break
		}
		q.swap(i, p)
		i = p
	}
	return i
}

func (q *queue) down(i int) {
	for n := len(q.moves); ; {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && q.before(c+1, c) {
			c++
		}
		if !q.before(c, i) {
			return
		}
		q.swap(i, c)
		i = c
	}
}
