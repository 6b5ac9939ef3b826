package dptree

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/plan"
)

// MSROptions tunes DP-MSR. The zero value runs the exact DP (exponential
// in the worst case but exact — the reference mode used against the brute
// force oracle). Setting Epsilon enables the FPTAS-style state bucketing
// of Section 5.1; Geometric and MaxStates enable the practical speedups
// of Section 6.2.
//
// Run time is the number of candidates: each of the n-1 merges walks
// |states of the parent| × |states of the child| pairs and offers up to
// three candidates per pair, so MaxStates bounds a merge by 3·MaxStates²
// candidates, and Epsilon, Geometric and PruneStorage decide how far
// below that the state sets stay. The result is deterministic: equal
// inputs give equal states, in equal order, and equal plans.
type MSROptions struct {
	// Epsilon > 0 buckets root-retrieval and total-retrieval values so
	// that at most poly(n, 1/ε) buckets survive per node; the returned
	// retrieval is within OPT + ε·r_max·n on trees (Lemma 9 flavour).
	Epsilon float64
	// Geometric switches the discretization from linear ticks to
	// geometric ticks (Section 6.2, speedup 2), which keeps far fewer
	// states on instances with wide cost ranges.
	Geometric bool
	// MaxStates caps the number of states kept per node after bucketing
	// (Section 6.2, speedup 3 generalization). 0 means unlimited.
	MaxStates int
	// PruneStorage drops partial solutions whose non-refundable storage
	// exceeds the bound (Section 6.2, speedup 3). <0 disables pruning;
	// 0 lets the solver pick (the storage constraint when solving, off
	// when computing a frontier).
	PruneStorage graph.Cost
}

// DefaultMSROptions is the tuning DP-MSR runs with wherever a caller has
// not chosen one — dsvd's re-plans, the portfolio's DP-MSR solver and
// dsvsolve: ε = 0.05 on geometric ticks, at most 256 states per node (the
// paper evaluates ε = 0.05 and 0.1, Section 7.1). A non-zero epsilon or
// maxStates replaces the respective default.
func DefaultMSROptions(epsilon float64, maxStates int) MSROptions {
	opt := MSROptions{Epsilon: 0.05, Geometric: true, MaxStates: 256}
	if epsilon != 0 {
		opt.Epsilon = epsilon
	}
	if maxStates != 0 {
		opt.MaxStates = maxStates
	}
	return opt
}

type msrOp uint8

const (
	opInit msrOp = iota
	opIndep
	opDep
	opSource
)

// msrState is a partial solution on the already-merged portion of a
// subtree: node v plus the subtrees of its first merged children.
//
// Invariants (fromBelow == false, "rooted"): v is locally materialized
// (sigma includes s_v); k counts the nodes whose retrieval path passes
// through v (v included); rho is the exact total retrieval of the merged
// nodes. The parent may later "uproot" v: refund s_v, store the parent
// delta, and charge k·(edge + parent-side retrieval) extra.
//
// Invariants (fromBelow == true): v is retrieved from a materialized
// descendant at exact cost gamma (already counted in rho); the
// configuration of the merged portion is final except that later children
// may still attach as dependents at cost k_c·(edge + gamma) each.
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

type msrKey struct {
	fromBelow bool
	k         int32
	gb        int64
	rb        int64
}

// MSRDP is a completed DP-MSR run: the surviving states at the root,
// which trace the whole storage/retrieval frontier in one run ("unlike
// LMG and LMG-All, the DP algorithm returns a whole spectrum of solutions
// at once", Section 7.2).
type MSRDP struct {
	tree   *BiTree
	states []*msrState // root states sorted by sigma
}

// MSRResult is one extracted solution.
type MSRResult struct {
	Plan *plan.Plan
	Cost plan.Cost
}

// bucketer maps γ and ρ values to the discretization buckets of the DP's
// state key.
type bucketer struct {
	linearTick float64
	geoLog     float64

	// Geometric mode only: a table that answers
	// 1 + int64(math.Log(float64(x))/geoLog) for 0 < x < geoLimit without
	// the logarithm. geoStep[b] is the smallest x whose bucket exceeds b;
	// geoCell holds, for each (bit length of x, next six bits of x), the
	// bucket of the smallest x of that cell, so a lookup starts at most a
	// step or two short of the answer.
	geoLimit graph.Cost
	geoStep  []graph.Cost
	geoCell  []int32
}

const (
	// Below 2^46 neighbouring integers have logarithms more than two ulps
	// apart, so math.Log (error below one ulp) is strictly increasing on
	// them, the bucket expression is monotone, and bisecting it finds
	// every step exactly. Past it the float expression is used as is.
	geoTableMax graph.Cost = 1 << 46
	// geoMaxSteps bounds the table for very small ε.
	geoMaxSteps = 1 << 14
)

func newBucketer(opt MSROptions, t *BiTree) *bucketer {
	b := &bucketer{}
	if opt.Epsilon <= 0 {
		return b
	}
	n := float64(t.N())
	if opt.Geometric {
		// Heuristic mode (Section 6.2): geometric ticks of ratio 1+ε
		// keep the per-node bucket count proportional to the number of
		// cost decades instead of n²/ε, which is what makes the DP
		// practical — the bound of Lemma 9 is traded for speed.
		b.geoLog = math.Log1p(opt.Epsilon)
		// No γ exceeds the tree's total edge retrieval and no ρ exceeds n
		// times that, so the table need not reach further.
		var pathMax float64
		for v := range t.up {
			pathMax += float64(max(t.up[v].retr, t.down[v].retr))
		}
		reach := geoTableMax
		if r := n*pathMax + 1; r < float64(geoTableMax) {
			reach = graph.Cost(r)
		}
		b.buildGeoTable(reach)
		return b
	}
	// FPTAS mode (Section 5.1): linear ticks of width ε·r_max/n².
	rmax := float64(t.G.MaxEdgeRetrieval())
	tick := opt.Epsilon * rmax / (n*n + 1)
	if tick < 1 {
		tick = 1
	}
	b.linearTick = tick
	return b
}

// geoBucket is the geometric discretization itself; the table reproduces
// it.
func (b *bucketer) geoBucket(x graph.Cost) int64 {
	return 1 + int64(math.Log(float64(x))/b.geoLog)
}

// buildGeoTable finds the steps of geoBucket from x = 1 until one lies at
// or past reach (or geoTableMax, or geoMaxSteps have been found); the
// last step found becomes geoLimit.
func (b *bucketer) buildGeoTable(reach graph.Cost) {
	step := graph.Cost(1) // bucket 0 holds x ≤ 0 only
	b.geoStep = []graph.Cost{step}
	for step < reach && len(b.geoStep) < geoMaxSteps {
		// The next step is the smallest x ≥ step whose bucket exceeds bkt,
		// about a factor 1+ε up: gallop past it from there, then bisect
		// [lo, hi]. If the table's end stops the gallop, hi stands in for
		// the step: lookups stay below it.
		bkt := int64(len(b.geoStep))
		lo, hi := step, step
		for stride := graph.Cost(float64(step)*math.Expm1(b.geoLog)) + 1; hi < geoTableMax && b.geoBucket(hi) <= bkt; stride *= 2 {
			lo, hi = hi+1, min(hi+stride, geoTableMax)
		}
		step = lo + graph.Cost(sort.Search(int(hi-lo), func(i int) bool { return b.geoBucket(lo+graph.Cost(i)) > bkt }))
		b.geoStep = append(b.geoStep, step)
	}
	b.geoLimit = step

	b.geoCell = make([]int32, (bits.Len64(uint64(b.geoLimit))+1)<<6)
	bkt := int32(0)
	for c := 1 << 6; c < len(b.geoCell); c++ {
		first := graph.Cost((64 | uint64(c&63)) << (c >> 6) >> 7) // smallest x of cell c
		for int(bkt) < len(b.geoStep)-1 && b.geoStep[bkt] <= first {
			bkt++
		}
		b.geoCell[c] = bkt
	}
}

func (b *bucketer) bucket(x graph.Cost) int64 {
	switch {
	case b.geoLog > 0:
		if x <= 0 {
			return 0
		}
		if x >= b.geoLimit {
			return b.geoBucket(x)
		}
		l := bits.Len64(uint64(x))
		bkt := b.geoCell[l<<6|int(uint64(x)<<7>>l)&63]
		for x >= b.geoStep[bkt] {
			bkt++
		}
		return int64(bkt)
	case b.linearTick > 0:
		return int64(float64(x) / b.linearTick)
	default:
		return int64(x)
	}
}

// kBucket merges dependency counts geometrically in heuristic mode; the
// count only scales future uprooting costs, so nearby values are
// interchangeable at ε precision.
func (b *bucketer) kBucket(k int32) int32 {
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

// msrTable is the candidate set of one merge step: an open-addressing
// index over a dense array of states in first-insertion order. A run owns
// one table and reuses it for every merge, so a merge allocates nothing
// per candidate; only the survivors are copied out to the heap.
type msrTable struct {
	index  []int32 // 0 = empty, else 1 + position in keys and states
	shift  uint    // 64 - log2(len(index))
	keys   []msrKey
	states []msrState
}

func newMSRTable() msrTable {
	const logSize = 10
	return msrTable{index: make([]int32, 1<<logSize), shift: 64 - logSize}
}

func (k msrKey) hash() uint64 {
	h := uint64(k.rb)*0x9E3779B97F4A7C15 ^ uint64(k.gb)*0xC2B2AE3D27D4EB4F ^ uint64(uint32(k.k))<<1
	if k.fromBelow {
		h ^= 1
	}
	return h * 0x9E3779B97F4A7C15
}

// slot returns the position of key's state, or a fresh zero state for it
// and true when the key is new.
func (t *msrTable) slot(key msrKey) (*msrState, bool) {
	mask := uint64(len(t.index) - 1)
	i := key.hash() >> t.shift
	for ; t.index[i] != 0; i = (i + 1) & mask {
		if e := t.index[i] - 1; t.keys[e] == key {
			return &t.states[e], false
		}
	}
	if 2*(len(t.keys)+1) > len(t.index) {
		t.grow()
		return t.slot(key)
	}
	t.keys = append(t.keys, key)
	t.states = append(t.states, msrState{})
	t.index[i] = int32(len(t.keys))
	return &t.states[len(t.states)-1], true
}

func (t *msrTable) grow() {
	t.index = make([]int32, 2*len(t.index))
	t.shift--
	mask := uint64(len(t.index) - 1)
	for e, key := range t.keys {
		i := key.hash() >> t.shift
		for t.index[i] != 0 {
			i = (i + 1) & mask
		}
		t.index[i] = int32(e + 1)
	}
}

// reset empties the table. The states are zeroed, not just truncated:
// a prev or child pointer left in the reused array would keep a dead
// sub-solution reachable for the rest of the run.
func (t *msrTable) reset() {
	clear(t.index)
	clear(t.states)
	t.keys, t.states = t.keys[:0], t.states[:0]
}

// msrRun is the state of one MSRFrontier call.
type msrRun struct {
	t          *BiTree
	b          *bucketer
	pruneBound graph.Cost
	maxStates  int
	tab        msrTable
	source     []msrSource // scratch, one per child state
	cands      []*msrState // scratch: pointers into tab.states
}

// msrSource is what the source option takes from a child state alone: the
// γ that v gets through the delta (c,v), and its bucket.
type msrSource struct {
	gamma graph.Cost
	gb    int64
}

// MSRFrontier runs DP-MSR over the whole tree and returns the handle to
// extract solutions for any storage constraint.
func MSRFrontier(t *BiTree, opt MSROptions) (*MSRDP, error) {
	n := t.N()
	if n == 0 {
		return &MSRDP{tree: t}, nil
	}
	r := &msrRun{t: t, b: newBucketer(opt, t), pruneBound: opt.PruneStorage, maxStates: opt.MaxStates, tab: newMSRTable()}
	if r.pruneBound == 0 {
		r.pruneBound = -1 // frontier mode: no pruning by default
	}
	states := make([][]*msrState, n)
	// Reverse preorder: children are processed before their parents.
	for i := len(t.Order) - 1; i >= 0; i-- {
		v := t.Order[i]
		cur := []*msrState{{k: 1, sigma: t.G.NodeStorage(v), rho: 0, op: opInit}}
		for _, c := range t.Children[v] {
			cur = r.mergeChild(v, c, cur, states[c])
			if len(cur) == 0 {
				// Only the PruneStorage bound can empty a state set: no
				// partial solution fits, so no full solution can either.
				return nil, fmt.Errorf("%w: storage prune bound %d unreachable at node %d", ErrInfeasible, r.pruneBound, v)
			}
			states[c] = nil // children states stay reachable via chains
		}
		states[v] = cur
	}
	// The root's states are in stateLess order, which is by (σ, ρ) first:
	// the order Frontier and Best walk them in.
	return &MSRDP{tree: t, states: states[t.Root]}, nil
}

// mergeChild combines the accumulated states of v with the final states
// of child c under the three per-child decisions: independent subtree,
// child dependent on v, or v retrieved from c's subtree. This sequential
// composition is exactly the 8-case recurrence of Figure 7/14 without
// vertex splitting (the cases are the 2·2·2 combinations of per-child
// options on a binary node).
//
// Every (x, y) pair offers up to three candidates; per key (fromBelow,
// k-bucket, γ-bucket, ρ-bucket) the candidate with the least (σ, ρ) is
// kept, the first one seen winning ties. Of a candidate's key only the
// ρ-bucket depends on the pair: the rest is fixed per x (independent,
// dependent) or per y (source) and is computed outside the pair loop.
func (r *msrRun) mergeChild(v, c graph.NodeID, xs, ys []*msrState) []*msrState {
	t, b := r.t, r.b
	downID, sDown, rDown := t.DownEdge(c) // delta v → c
	upID, sUp, rUp := t.UpEdge(c)         // delta c → v
	sv := t.G.NodeStorage(v)
	sc := t.G.NodeStorage(c)

	offer := func(key msrKey, k int32, gamma, sigma, rho graph.Cost, x, y *msrState, op msrOp) {
		if r.pruneBound >= 0 {
			refund := graph.Cost(0)
			if !key.fromBelow {
				refund = sv
			}
			if sigma-refund > r.pruneBound {
				return
			}
		}
		key.rb = b.bucket(rho)
		s, fresh := r.tab.slot(key)
		if !fresh && (s.sigma < sigma || (s.sigma == sigma && s.rho <= rho)) {
			return
		}
		*s = msrState{
			fromBelow: key.fromBelow, k: k, gamma: gamma, sigma: sigma, rho: rho,
			prev: x, child: y, childNode: c, op: op,
		}
	}

	r.source = r.source[:0]
	if upID != graph.None {
		for _, y := range ys {
			gamma := rUp
			if y.fromBelow {
				gamma += y.gamma
			}
			r.source = append(r.source, msrSource{gamma, b.bucket(gamma)})
		}
	}

	for _, x := range xs {
		xKey := msrKey{fromBelow: x.fromBelow, k: b.kBucket(x.k), gb: b.bucket(x.gamma)}
		for j, y := range ys {
			// Option 1: independent — c's subtree resolves internally.
			offer(xKey, x.k, x.gamma, x.sigma+y.sigma, x.rho+y.rho, x, y, opIndep)

			// Option 2: dependent — uproot a rooted child state and
			// retrieve c (and its k_c dependents) through v via the
			// delta (v,c). Skipped when the graph lacks that delta
			// (synthesized direction).
			if !y.fromBelow && downID != graph.None {
				gx := graph.Cost(0)
				key := xKey
				k := x.k
				if x.fromBelow {
					gx = x.gamma
				} else {
					k = x.k + y.k
					key.k = b.kBucket(k)
				}
				sigma := x.sigma + y.sigma - sc + sDown
				rho := x.rho + y.rho + graph.Cost(y.k)*(rDown+gx)
				offer(key, k, x.gamma, sigma, rho, x, y, opDep)
			}

			// Option 3: source — v is retrieved from c's subtree via the
			// delta (c,v); allowed once, while v is still rooted. All of
			// v's current dependents (x.k nodes, v included) pay gamma.
			// Skipped when the graph lacks the upward delta.
			if !x.fromBelow && upID != graph.None {
				src := r.source[j]
				sigma := x.sigma - sv + y.sigma + sUp
				rho := x.rho + y.rho + graph.Cost(x.k)*src.gamma
				offer(msrKey{fromBelow: true, gb: src.gb}, 0, src.gamma, sigma, rho, x, y, opSource)
			}
		}
	}

	// Two states of one table differ in their key, hence in (fromBelow, k,
	// γ, ρ): stateLess is a strict total order on them, so what survives
	// the cap and the order it is returned in do not depend on the order
	// of insertion or on the sort algorithm.
	out := r.cands[:0]
	for i := range r.tab.states {
		out = append(out, &r.tab.states[i])
	}
	r.cands = out
	if r.maxStates > 0 && len(out) > r.maxStates {
		out = capStates(out, r.maxStates)
	}
	slices.SortFunc(out, stateOrder)
	// Copied out one by one: a shared slab would stay reachable as a
	// whole through any single state a later chain keeps.
	kept := make([]*msrState, len(out))
	for i, s := range out {
		cp := *s
		kept[i] = &cp
	}
	r.tab.reset()
	return kept
}

// stateOrder orders states by (σ, ρ), then rooted before from-below, then
// by k and γ.
func stateOrder(a, z *msrState) int {
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

func stateLess(a, z *msrState) bool { return stateOrder(a, z) < 0 }

// capStates keeps at most maxStates states, stratified across the
// storage range so the DP's one-run frontier stays informative at both
// its cheap-storage and cheap-retrieval ends: states are sorted by σ,
// split into equal-rank strata, and each stratum keeps its best-ρ state.
// The cheapest rooted and from-below states are always preserved so
// upstream merges never lose feasibility.
func capStates(states []*msrState, maxStates int) []*msrState {
	var bestRooted, bestBelow *msrState
	for _, s := range states {
		if s.fromBelow {
			if bestBelow == nil || stateLess(s, bestBelow) {
				bestBelow = s
			}
		} else {
			if bestRooted == nil || stateLess(s, bestRooted) {
				bestRooted = s
			}
		}
	}
	slices.SortFunc(states, stateOrder)
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
			if best == nil || st.rho < best.rho || (st.rho == best.rho && stateLess(st, best)) {
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
	// Re-insert the feasibility anchors at the cheap-storage end: the
	// expensive end holds the low-retrieval states (e.g. the
	// materialize-everything configuration) that the frontier must keep.
	if !hasRooted && bestRooted != nil {
		out[0] = bestRooted
	}
	if !hasBelow && bestBelow != nil && len(out) >= 2 {
		out[1] = bestBelow
	}
	return out
}

// Frontier returns the Pareto points (storage, total retrieval) of the
// run.
func (d *MSRDP) Frontier() *plan.Frontier {
	f := &plan.Frontier{}
	best := graph.Infinite
	for _, s := range d.states { // sorted by sigma
		if s.rho < best {
			best = s.rho
			f.Add(s.sigma, s.rho)
		}
	}
	return f
}

// Best extracts the minimum-retrieval solution with storage ≤ s.
func (d *MSRDP) Best(s graph.Cost) (MSRResult, error) {
	if d.tree.N() == 0 {
		return MSRResult{Plan: plan.New(d.tree.G), Cost: plan.Cost{Feasible: true}}, nil
	}
	var chosen *msrState
	for _, st := range d.states {
		if st.sigma > s {
			continue
		}
		if chosen == nil || st.rho < chosen.rho || (st.rho == chosen.rho && st.sigma < chosen.sigma) {
			chosen = st
		}
	}
	if chosen == nil {
		return MSRResult{}, ErrInfeasible
	}
	return d.extract(chosen)
}

func (d *MSRDP) extract(root *msrState) (MSRResult, error) {
	p := plan.New(d.tree.G)
	if err := d.reconstruct(p, d.tree.Root, root, true); err != nil {
		return MSRResult{}, err
	}
	c := plan.Evaluate(d.tree.G, p)
	if !c.Feasible {
		return MSRResult{}, errors.New("dptree: internal error, reconstructed MSR plan infeasible")
	}
	if c.Storage != root.sigma || c.SumRetrieval > root.rho {
		return MSRResult{}, fmt.Errorf("dptree: internal error, plan (σ=%d, ρ=%d) does not match state (σ=%d, ρ=%d)",
			c.Storage, c.SumRetrieval, root.sigma, root.rho)
	}
	return MSRResult{Plan: p, Cost: c}, nil
}

// reconstruct walks a state chain, storing the deltas its merge decisions
// imply. keep reports whether v keeps its own materialization when the
// final mode is rooted (false when the parent uprooted v).
func (d *MSRDP) reconstruct(p *plan.Plan, v graph.NodeID, final *msrState, keep bool) error {
	if !final.fromBelow && keep {
		p.Materialized[v] = true
	}
	for s := final; s.op != opInit; s = s.prev {
		c := s.childNode
		switch s.op {
		case opIndep:
			if err := d.reconstruct(p, c, s.child, true); err != nil {
				return err
			}
		case opDep:
			id, _, _ := d.tree.DownEdge(c)
			if id == graph.None {
				return ErrSynthesizedEdge
			}
			p.Stored[id] = true
			if err := d.reconstruct(p, c, s.child, false); err != nil {
				return err
			}
		case opSource:
			id, _, _ := d.tree.UpEdge(c)
			if id == graph.None {
				return ErrSynthesizedEdge
			}
			p.Stored[id] = true
			if err := d.reconstruct(p, c, s.child, true); err != nil {
				return err
			}
		}
	}
	return nil
}

// MSR solves MinSum Retrieval on a bidirectional tree under storage
// constraint s. With zero options the answer is exact; with Epsilon /
// MaxStates it is the Section 6.2 heuristic.
func MSR(t *BiTree, s graph.Cost, opt MSROptions) (MSRResult, error) {
	if opt.PruneStorage == 0 {
		opt.PruneStorage = s
	}
	dp, err := MSRFrontier(t, opt)
	if err != nil {
		return MSRResult{}, err
	}
	return dp.Best(s)
}

// MSROnGraph runs the DP-MSR heuristic on an arbitrary version graph
// (Section 6.2): extract a spanning bidirectional tree rooted at root and
// run the tree DP on it.
func MSROnGraph(g *graph.Graph, s graph.Cost, root graph.NodeID, opt MSROptions) (MSRResult, error) {
	if opt.PruneStorage == 0 {
		opt.PruneStorage = s
	}
	dp, err := MSRFrontierOnGraph(g, root, opt)
	if err != nil {
		return MSRResult{}, err
	}
	return dp.Best(s)
}

// MSRFrontierOnGraph extracts a spanning bidirectional tree and returns
// the full DP frontier handle.
func MSRFrontierOnGraph(g *graph.Graph, root graph.NodeID, opt MSROptions) (*MSRDP, error) {
	t, err := FromGraph(g, root)
	if err != nil {
		return nil, err
	}
	return MSRFrontier(t, opt)
}
