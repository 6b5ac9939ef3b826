package dptree

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
)

// The DP-MSR kernel before the table-driven buckets, the flat state
// table and the reconstruction log, kept as the oracle the differential
// tests in msr_kernel_test.go compare the kernel against: same root
// states, frontier, plans and errors. With dominance off it is also the
// DP as it stood before it dropped dominated states, the baseline the
// rule is checked never to lose to.

// msrState is the reference kernel's state: its value, and the states it
// came from as pointers, a chain per node that reconstruction walks.
type msrState struct {
	fromBelow bool
	k         int32
	gamma     graph.Cost
	sigma     graph.Cost
	rho       graph.Cost

	prev      *msrState // state of v before this merge step
	child     *msrState // merged child state
	childNode graph.NodeID
	op        msrOp
}

type referenceBucketer struct {
	linearTick float64
	geoLog     float64
}

func newReferenceBucketer(opt MSROptions, t *BiTree) referenceBucketer {
	var b referenceBucketer
	if opt.Epsilon <= 0 {
		return b
	}
	n := float64(t.N())
	if opt.Geometric {
		b.geoLog = math.Log1p(opt.Epsilon)
		return b
	}
	rmax := float64(t.G.MaxEdgeRetrieval())
	tick := opt.Epsilon * rmax / (n*n + 1)
	if tick < 1 {
		tick = 1
	}
	b.linearTick = tick
	return b
}

func referenceBucket(b referenceBucketer, x graph.Cost) int64 {
	switch {
	case b.geoLog > 0:
		if x <= 0 {
			return 0
		}
		return 1 + int64(math.Log(float64(x))/b.geoLog)
	case b.linearTick > 0:
		return int64(float64(x) / b.linearTick)
	default:
		return int64(x)
	}
}

func (b referenceBucketer) kBucket(k int32) int32 {
	if b.geoLog == 0 || k <= 2 {
		return k
	}
	bkt := int32(2)
	for k > 2 {
		k >>= 1
		bkt++
	}
	return bkt
}

// referenceMSRFrontier is MSRFrontier's loop over referenceMergeChild,
// including the final sort by (σ, ρ) the old kernel ended with. It
// returns the root's states, whose chains hold the whole run. dominance
// applies referenceUndominated to every merge, as the kernel does; visit,
// if not nil, sees the states every merge keeps.
func referenceMSRFrontier(t *BiTree, opt MSROptions, dominance bool, visit func([]*msrState)) ([]*msrState, error) {
	n := t.N()
	if n == 0 {
		return nil, nil
	}
	b := newReferenceBucketer(opt, t)
	pruneBound := opt.PruneStorage
	if pruneBound == 0 {
		pruneBound = -1
	}
	states := make([][]*msrState, n)
	for i := len(t.Order) - 1; i >= 0; i-- {
		v := t.Order[i]
		cur := []*msrState{{k: 1, sigma: t.G.NodeStorage(v), rho: 0, op: opInit}}
		for _, c := range t.Children[v] {
			cur = referenceMergeChild(t, v, c, cur, states[c], b, pruneBound, opt.MaxStates, dominance)
			if len(cur) == 0 {
				return nil, core.ErrInfeasible
			}
			if visit != nil {
				visit(cur)
			}
			states[c] = nil
		}
		states[v] = cur
	}
	root := states[0]
	sort.Slice(root, func(i, j int) bool {
		if root[i].sigma != root[j].sigma {
			return root[i].sigma < root[j].sigma
		}
		return root[i].rho < root[j].rho
	})
	return root, nil
}

// logForm turns the reference's root states and their chains into the
// kernel's handle: the root's values, and a log with one record per state
// the root's states reach, theirs last and in order.
func logForm(t *BiTree, root []*msrState) *MSRDP {
	d := &MSRDP{tree: t, root: msrList{base: noRec}}
	at := map[*msrState]int32{}
	var index func(s *msrState) int32
	index = func(s *msrState) int32 {
		if s.op == opInit {
			return noRec
		}
		if i, ok := at[s]; ok {
			return i
		}
		prev, child := index(s.prev), index(s.child)
		d.log = append(d.log, newMSRRec(prev, child, s.childNode, s.op, s.child.fromBelow))
		at[s] = int32(len(d.log) - 1)
		return at[s]
	}
	for _, s := range root {
		if s.op != opInit {
			index(s.prev)
			index(s.child)
		}
	}
	d.root.base = int32(len(d.log))
	for _, s := range root {
		if index(s) == noRec {
			d.root.base = noRec // a one-node tree's initial state, its only one
		}
		d.root.vals = append(d.root.vals, msrVal{gamma: s.gamma, sigma: s.sigma, rho: s.rho, k: s.k, fromBelow: s.fromBelow})
	}
	return d
}

// referenceMergeChild is mergeChild as it stood before the flat-table
// kernel: a Go map from key to a heap state per accepted candidate, two
// bucket calls and a kBucket per candidate, then, with dominance, the
// naive dominance filter before the cap.
func referenceMergeChild(t *BiTree, v, c graph.NodeID, xs, ys []*msrState, b referenceBucketer, pruneBound graph.Cost, maxStates int, dominance bool) []*msrState {
	downID, sDown, rDown := t.DownEdge(c) // delta v → c
	upID, sUp, rUp := t.UpEdge(c)         // delta c → v
	sv := t.G.NodeStorage(v)
	sc := t.G.NodeStorage(c)

	best := make(map[msrKey]*msrState, len(xs)*2)
	keep := func(fromBelow bool, k int32, gamma, sigma, rho graph.Cost, x, y *msrState, op msrOp) {
		if pruneBound >= 0 {
			refund := graph.Cost(0)
			if !fromBelow {
				refund = sv
			}
			if sigma-refund > pruneBound {
				return
			}
		}
		key := msrKey{fromBelow: fromBelow, k: b.kBucket(k), gb: referenceBucket(b, gamma), rb: referenceBucket(b, rho)}
		if old, ok := best[key]; ok {
			if old.sigma < sigma || (old.sigma == sigma && old.rho <= rho) {
				return
			}
		}
		best[key] = &msrState{
			fromBelow: fromBelow, k: k, gamma: gamma, sigma: sigma, rho: rho,
			prev: x, child: y, childNode: c, op: op,
		}
	}

	for _, x := range xs {
		for _, y := range ys {
			// Option 1: independent — c's subtree resolves internally.
			keep(x.fromBelow, x.k, x.gamma, x.sigma+y.sigma, x.rho+y.rho, x, y, opIndep)

			// Option 2: dependent — uproot a rooted child state and
			// retrieve c (and its k_c dependents) through v via the
			// delta (v,c). Skipped when the graph lacks that delta
			// (synthesized direction).
			if !y.fromBelow && downID != graph.None {
				gx := graph.Cost(0)
				k := x.k
				if x.fromBelow {
					gx = x.gamma
				} else {
					k = x.k + y.k
				}
				sigma := x.sigma + y.sigma - sc + sDown
				rho := x.rho + y.rho + graph.Cost(y.k)*(rDown+gx)
				keep(x.fromBelow, k, x.gamma, sigma, rho, x, y, opDep)
			}

			// Option 3: source — v is retrieved from c's subtree via the
			// delta (c,v); allowed once, while v is still rooted. All of
			// v's current dependents (x.k nodes, v included) pay gamma.
			// Skipped when the graph lacks the upward delta.
			if !x.fromBelow && upID != graph.None {
				gy := graph.Cost(0)
				if y.fromBelow {
					gy = y.gamma
				}
				gamma := gy + rUp
				sigma := x.sigma - sv + y.sigma + sUp
				rho := x.rho + y.rho + graph.Cost(x.k)*gamma
				keep(true, 0, gamma, sigma, rho, x, y, opSource)
			}
		}
	}

	out := make([]*msrState, 0, len(best))
	for _, s := range best {
		out = append(out, s)
	}
	if dominance {
		out = referenceUndominated(out)
	}
	if maxStates > 0 && len(out) > maxStates {
		out = referenceCapStates(out, maxStates)
	}
	// Deterministic order for reproducible runs.
	sort.Slice(out, func(i, j int) bool { return referenceStateLess(out[i], out[j]) })
	return out
}

// referenceUndominated drops, comparing every state with every other,
// each state that another of the same kind dominates: a rooted one by a
// rooted one with σ, ρ and k all at most its own, a from-below one by a
// from-below one with σ, ρ and γ all at most its own.
func referenceUndominated(states []*msrState) []*msrState {
	var out []*msrState
	for _, s := range states {
		if !slices.ContainsFunc(states, func(d *msrState) bool { return d != s && referenceDominates(d, s) }) {
			out = append(out, s)
		}
	}
	return out
}

func referenceDominates(d, s *msrState) bool {
	if d.fromBelow != s.fromBelow || d.sigma > s.sigma || d.rho > s.rho {
		return false
	}
	if s.fromBelow {
		return d.gamma <= s.gamma
	}
	return d.k <= s.k
}

// referenceStateOrder orders states by (σ, ρ), then rooted before
// from-below, then by k and γ.
func referenceStateOrder(a, z *msrState) int {
	if c := cmp.Compare(a.sigma, z.sigma); c != 0 {
		return c
	}
	if c := cmp.Compare(a.rho, z.rho); c != 0 {
		return c
	}
	if a.fromBelow != z.fromBelow {
		if z.fromBelow {
			return -1
		}
		return 1
	}
	if c := cmp.Compare(a.k, z.k); c != 0 {
		return c
	}
	return cmp.Compare(a.gamma, z.gamma)
}

func referenceStateLess(a, z *msrState) bool { return referenceStateOrder(a, z) < 0 }

// referenceCapStates is the cap as it stood before the pointer-free
// kernel: keep at most maxStates states, stratified across the storage
// range — states are sorted by σ, split into equal-rank strata, and each
// stratum keeps its best-ρ state — and the cheapest rooted and from-below
// states are always preserved.
func referenceCapStates(states []*msrState, maxStates int) []*msrState {
	var bestRooted, bestBelow *msrState
	for _, s := range states {
		if s.fromBelow {
			if bestBelow == nil || referenceStateLess(s, bestBelow) {
				bestBelow = s
			}
		} else {
			if bestRooted == nil || referenceStateLess(s, bestRooted) {
				bestRooted = s
			}
		}
	}
	slices.SortFunc(states, referenceStateOrder)
	out := make([]*msrState, 0, maxStates)
	strata := maxStates
	if strata < 1 {
		strata = 1
	}
	for s := 0; s < strata; s++ {
		lo := len(states) * s / strata
		hi := len(states) * (s + 1) / strata
		var best *msrState
		for _, st := range states[lo:hi] {
			if best == nil || st.rho < best.rho || (st.rho == best.rho && referenceStateLess(st, best)) {
				best = st
			}
		}
		if best != nil {
			out = append(out, best)
		}
	}
	hasRooted, hasBelow := false, false
	for _, s := range out {
		if s == bestRooted {
			hasRooted = true
		}
		if s == bestBelow {
			hasBelow = true
		}
	}
	if !hasRooted && bestRooted != nil {
		out[0] = bestRooted
	}
	if !hasBelow && bestBelow != nil && len(out) >= 2 {
		out[1] = bestBelow
	}
	return out
}
