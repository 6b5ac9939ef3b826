package dptree

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
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
// |states of the parent| × |states of the child| pairs, each with up to
// three candidates, so MaxStates bounds a merge by 3·MaxStates²
// candidates, and Epsilon, Geometric and PruneStorage decide how far
// below that the state sets stay. No option offers per pair: each offers
// once per ρ-bucket run of a walk along one side (mergeChild), and a
// pair past the prune bound is not offered. With DefaultMSROptions on
// the benchmark's replan-scale graph at 950 versions a run offers 1.86 M
// candidates to the tables (3.15 M when only the independent option
// offered by runs, 5.4 M when every pair offered), radix-sorts the 0.27 M
// the tables keep, and takes 139–153 ms on one core of a 2-vCPU Xeon
// (169–196 ms with 3.15 M offers and comparison sorts). The result is
// deterministic: equal inputs give equal states, in equal order, and
// equal plans.
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
	stats  MSRStats
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

// bucketEnd returns x's bucket and an end past x below which every value
// from x on has that bucket: the next step of the geometric table, or
// x+1 where the bucketer knows no step.
func (b *bucketer) bucketEnd(x graph.Cost) (int64, graph.Cost) {
	bkt := b.bucket(x)
	if b.geoLog > 0 && x > 0 && x < b.geoLimit {
		return bkt, b.geoStep[bkt]
	}
	return bkt, x + 1
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

// msrCand is one candidate of a merge step: the state it would become,
// with the pair it comes from as positions (x in the merge's xs, y in its
// ys) instead of pointers. So the table a run reuses for every merge
// holds no pointers: writing it needs no write barrier and the collector
// never scans it. The survivors get their prev and child pointers when
// they are copied out.
type msrCand struct {
	key               msrKey
	k                 int32
	x, y              int32
	op                msrOp
	gamma, sigma, rho graph.Cost
}

// before reports whether c wins over d, a candidate of the same key: the
// least (σ, ρ) wins, then the least (x, y, option). That is the first of
// the cheapest in the order x by x, y by y, option by option, the order
// the reference kernel offers in and keeps the first of; with the
// tie-break explicit, the kernel may offer in any order.
func (c *msrCand) before(d *msrCand) bool {
	switch {
	case c.sigma != d.sigma:
		return c.sigma < d.sigma
	case c.rho != d.rho:
		return c.rho < d.rho
	case c.x != d.x:
		return c.x < d.x
	case c.y != d.y:
		return c.y < d.y
	}
	return c.op < d.op
}

// msrTable is the candidate set of one merge step: an open-addressing
// index over a dense array of candidates in first-insertion order. A run
// owns one table and reuses it for every merge, so a merge allocates
// nothing per candidate; only the survivors are copied out to the heap.
type msrTable struct {
	index []int32 // 0 = empty, else 1 + position in cands
	shift uint    // 64 - log2(len(index))
	cands []msrCand
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

// offer enters c under its key unless the key holds a candidate that wins
// over it.
func (t *msrTable) offer(c *msrCand) {
	mask := uint64(len(t.index) - 1)
	i := c.key.hash() >> t.shift
	for ; t.index[i] != 0; i = (i + 1) & mask {
		if d := &t.cands[t.index[i]-1]; d.key == c.key {
			if c.before(d) {
				*d = *c
			}
			return
		}
	}
	if 2*(len(t.cands)+1) > len(t.index) {
		t.grow()
		t.offer(c)
		return
	}
	t.cands = append(t.cands, *c)
	t.index[i] = int32(len(t.cands))
}

func (t *msrTable) grow() {
	t.index = make([]int32, 2*len(t.index))
	t.shift--
	mask := uint64(len(t.index) - 1)
	for e := range t.cands {
		i := t.cands[e].key.hash() >> t.shift
		for t.index[i] != 0 {
			i = (i + 1) & mask
		}
		t.index[i] = int32(e + 1)
	}
}

// clearIndex empties the index for the next merge. It zeroes each key's
// probe sequence from its home slot up to the first empty one, which
// clears every occupied slot of the cluster: the cost is in the number of
// candidates, not in the size of the index, which stays at the largest
// any merge of the run has needed.
func (t *msrTable) clearIndex() {
	mask := uint64(len(t.index) - 1)
	for e := range t.cands {
		for i := t.cands[e].key.hash() >> t.shift; t.index[i] != 0; i = (i + 1) & mask {
			t.index[i] = 0
		}
	}
}

// compare orders candidates, given by their places a and z, by (σ, ρ),
// then rooted before from-below, then by k and γ. Two candidates of one
// table differ in their key, hence in (fromBelow, k, γ, ρ): this is a
// strict total order on them, so what survives the cap and the order it
// is returned in depend neither on the order of insertion nor on the
// sort algorithm.
func (t *msrTable) compare(a, z msrOrd) int {
	if c := cmp.Compare(a.sigma, z.sigma); c != 0 {
		return c
	}
	if c := cmp.Compare(a.rho, z.rho); c != 0 {
		return c
	}
	ca, cz := &t.cands[a.e], &t.cands[z.e]
	if ca.key.fromBelow != cz.key.fromBelow {
		if cz.key.fromBelow {
			return -1
		}
		return 1
	}
	if c := cmp.Compare(ca.k, cz.k); c != 0 {
		return c
	}
	return cmp.Compare(ca.gamma, cz.gamma)
}

// insertionSort puts order, already sorted by (σ, ρ) but for a few
// places, in the order of compare: each element in place is compared
// with its neighbour once.
func (t *msrTable) insertionSort(order []msrOrd) {
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && t.compare(order[j], order[j-1]) < 0; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
}

// sort puts order in the order of compare: by (σ, ρ) with
// radixSorter.sort, then each run of equal (σ, ρ) by the rest of compare.
func (t *msrTable) sort(order []msrOrd, rs *radixSorter) {
	rs.sort(order)
	t.insertionSort(order)
}

// radixCutoff is the length below which radixSorter.sort sorts by
// insertion.
const radixCutoff = 64

// radixSorter is the scratch of an LSD radix sort on (σ, ρ).
type radixSorter struct {
	tmp   []msrOrd
	count [16][256]int32
}

// sort sorts a by (σ, ρ), stably. Past radixCutoff it is an LSD radix
// sort, a byte a pass, on the key (σ - least σ)·2^b + (ρ - least ρ), where
// ρ - least ρ has b bits: bytes the key does not reach cost no pass, and
// a pass whose byte is the same in every element is skipped.
func (rs *radixSorter) sort(a []msrOrd) {
	if len(a) < radixCutoff {
		for i := 1; i < len(a); i++ {
			for j := i; j > 0 && (a[j].sigma < a[j-1].sigma || a[j].sigma == a[j-1].sigma && a[j].rho < a[j-1].rho); j-- {
				a[j], a[j-1] = a[j-1], a[j]
			}
		}
		return
	}
	minS, maxS, minR, maxR := a[0].sigma, a[0].sigma, a[0].rho, a[0].rho
	for _, o := range a[1:] {
		minS, maxS = min(minS, o.sigma), max(maxS, o.sigma)
		minR, maxR = min(minR, o.rho), max(maxR, o.rho)
	}
	k := radixKey{uint64(minS), uint64(minR), uint(bits.Len64(uint64(maxR) - uint64(minR)))}
	passes := (bits.Len64(uint64(maxS)-uint64(minS)) + int(k.rhoBits) + 7) / 8 // ≤ 16
	count := rs.count[:passes]
	for p := range count {
		count[p] = [256]int32{}
	}
	for i := range a {
		for p := range count {
			count[p][k.digit(&a[i], uint(8*p))]++
		}
	}
	if cap(rs.tmp) < len(a) {
		rs.tmp = make([]msrOrd, len(a))
	}
	src, dst := a, rs.tmp[:len(a)]
	for p := range count {
		at, shift := &count[p], uint(8*p)
		if int(at[k.digit(&src[0], shift)]) == len(src) {
			continue // every element has this byte
		}
		sum := int32(0)
		for d, n := range at {
			at[d] = sum
			sum += n
		}
		for i := range src {
			d := k.digit(&src[i], shift)
			dst[at[d]] = src[i]
			at[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}

// radixKey is the key radixSorter sorts by.
type radixKey struct {
	minS, minR uint64
	rhoBits    uint
}

// digit is the byte at shift of o's key, which may be wider than 64 bits.
func (k radixKey) digit(o *msrOrd, shift uint) byte {
	rho, sigma := uint64(o.rho)-k.minR, uint64(o.sigma)-k.minS
	if shift <= k.rhoBits {
		return byte(rho>>shift | sigma<<(k.rhoBits-shift))
	}
	return byte(sigma >> (shift - k.rhoBits))
}

// msrRun is the state of one MSRFrontier call.
type msrRun struct {
	t          *BiTree
	b          *bucketer
	pruneBound graph.Cost
	maxStates  int
	tab        msrTable
	// Scratch, reused by every merge. The walks' lists are msrOrds: a
	// state's position in xs or ys and the σ and ρ its candidates add to.
	byRho       []msrOrd   // the child states by ρ
	rootedByRho []msrOrd   // the rooted ones among them
	depBy       []msrOrd   // the rooted child states by (k, ρ + k·r(v,c))
	depGroups   []msrGroup // depBy cut by k
	xByRho      []msrOrd   // the rooted parent states by ρ
	xBy         []msrOrd   // and by (k, ρ)
	xGroups     []msrGroup // xBy cut by k
	order       []msrOrd   // the table's candidates, sorted by compare
	sorter      radixSorter
	// What the run did, for MSRStats.
	offers      int64
	truncations int
}

// msrOrd is a candidate's place in the table, with its (σ, ρ), which
// decide nearly every comparison, at hand. The walks of mergeChild use
// it too, for a state's position and the σ and ρ it adds.
type msrOrd struct {
	sigma, rho graph.Cost
	e          int32
}

// msrGroup is the states of one exact k, in ρ order.
type msrGroup struct {
	k     int32
	items []msrOrd
}

// MSRStats is what a DP-MSR run did.
type MSRStats struct {
	// Offers is the number of candidates offered to the merges' tables.
	Offers int64
	// Truncations is the number of merges whose candidates the
	// MaxStates cap cut.
	Truncations int
}

// MSRFrontier runs DP-MSR over the whole tree and returns the handle to
// extract solutions for any storage constraint.
func MSRFrontier(t *BiTree, opt MSROptions) (*MSRDP, error) {
	return msrFrontier(context.Background(), t, opt)
}

// msrFrontier is MSRFrontier, checking ctx before every merge.
func msrFrontier(ctx context.Context, t *BiTree, opt MSROptions) (*MSRDP, error) {
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
			if err := ctx.Err(); err != nil {
				return nil, err
			}
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
	// The root's states are in the order of msrTable.compare, which is by
	// (σ, ρ) first: the order Frontier and Best walk them in.
	return &MSRDP{tree: t, states: states[t.Root], stats: MSRStats{Offers: r.offers, Truncations: r.truncations}}, nil
}

// Stats returns what the run did.
func (d *MSRDP) Stats() MSRStats { return d.stats }

// within returns how many of states, from the first, give a candidate
// whose storage less refund, base + σ, is inside the prune bound. states
// ascend in σ, so these are a prefix, and a walk skips every position
// past its end.
func (r *msrRun) within(states []*msrState, base graph.Cost) int32 {
	if r.pruneBound < 0 {
		return int32(len(states))
	}
	return int32(sort.Search(len(states), func(i int) bool { return base+states[i].sigma > r.pruneBound }))
}

// byK fills dst with the states of list, positions in states in ρ
// order, ordered by exact k and so by (k, ρ), each with its σ and its
// ρ + k·perK, and cuts it into groups by k.
func (r *msrRun) byK(dst []msrOrd, groups []msrGroup, list []msrOrd, states []*msrState, perK graph.Cost) ([]msrOrd, []msrGroup) {
	dst, groups = dst[:0], groups[:0]
	for _, o := range list {
		// σ holds k for the sort, which is stable: ρ stays ascending
		// within each k.
		dst = append(dst, msrOrd{sigma: graph.Cost(states[o.e].k), e: o.e})
	}
	r.sorter.sort(dst)
	for lo := 0; lo < len(dst); {
		k, hi := dst[lo].sigma, lo+1
		for hi < len(dst) && dst[hi].sigma == k {
			hi++
		}
		groups = append(groups, msrGroup{int32(k), dst[lo:hi]})
		lo = hi
	}
	for i := range dst {
		s := states[dst[i].e]
		dst[i].sigma, dst[i].rho = s.sigma, s.rho+graph.Cost(s.k)*perK
	}
	return dst, groups
}

// mergeChild combines the accumulated states of v with the final states
// of child c under the three per-child decisions: independent subtree,
// child dependent on v, or v retrieved from c's subtree. This sequential
// composition is exactly the 8-case recurrence of Figure 7/14 without
// vertex splitting (the cases are the 2·2·2 combinations of per-child
// options on a binary node).
//
// Every (x, y) pair has up to three candidates; per key (fromBelow,
// k-bucket, γ-bucket, ρ-bucket) the candidate that comes first by before
// is kept. So no pair is offered on its own: each option walks one side
// with the other side's state fixed, along a list in which the
// candidate's ρ ascends and the rest of its key is fixed, and offers the
// least of each ρ-bucket run (offerRuns). The lists:
//   - independent: all ys by ρ, per x;
//   - dependent: the rooted ys of one exact k by ρ + k·r(v,c), per x and
//     k, since a from-below x adds k·x.γ and a rooted one puts x.k + k
//     in the key;
//   - source from a rooted y: the rooted ys by ρ, per rooted x (γ is
//     r(c,v) whatever y);
//   - source from a from-below y: the rooted xs of one exact k by ρ, per
//     y and k, since the candidate's ρ adds k·(r(c,v) + y.γ).
//
// xs and ys are in the order of msrTable.compare, which is by σ first, so
// the prune bound keeps a prefix of either.
func (r *msrRun) mergeChild(v, c graph.NodeID, xs, ys []*msrState) []*msrState {
	t, b, tab := r.t, r.b, &r.tab
	downID, sDown, rDown := t.DownEdge(c) // delta v → c
	upID, sUp, rUp := t.UpEdge(c)         // delta c → v
	sv := t.G.NodeStorage(v)
	sc := t.G.NodeStorage(c)

	r.byRho = r.byRho[:0]
	for j, y := range ys {
		r.byRho = append(r.byRho, msrOrd{rho: y.rho, e: int32(j)})
	}
	r.sorter.sort(r.byRho)
	r.rootedByRho = r.rootedByRho[:0]
	below := false // has c a from-below state
	for i, o := range r.byRho {
		y := ys[o.e]
		r.byRho[i].sigma = y.sigma
		if y.fromBelow {
			below = true
		} else {
			r.rootedByRho = append(r.rootedByRho, r.byRho[i])
		}
	}
	if downID != graph.None {
		r.depBy, r.depGroups = r.byK(r.depBy, r.depGroups, r.rootedByRho, ys, rDown)
	}
	var srcGB int64 // a rooted y's source γ-bucket
	if upID != graph.None {
		srcGB = b.bucket(rUp)
	}

	for xi, x := range xs {
		refund := sv // a rooted v may still be uprooted, refunding s_v
		if x.fromBelow {
			refund = 0
		}
		xKey := msrKey{fromBelow: x.fromBelow, k: b.kBucket(x.k), gb: b.bucket(x.gamma)}

		// Option 1: independent — c's subtree resolves internally.
		cand := msrCand{key: xKey, k: x.k, x: int32(xi), op: opIndep, gamma: x.gamma}
		r.offerRuns(&cand, &cand.y, r.byRho, r.within(ys, x.sigma-refund), x.sigma, x.rho)

		// Option 2: dependent — uproot a rooted child state and retrieve c
		// (and its k_c dependents) through v via the delta (v,c). Skipped
		// when the graph lacks that delta (synthesized direction).
		if downID != graph.None {
			cand.op = opDep
			dep := r.within(ys, x.sigma-refund-sc+sDown)
			for _, g := range r.depGroups {
				rho := x.rho
				if x.fromBelow {
					rho += graph.Cost(g.k) * x.gamma
				} else {
					cand.k = x.k + g.k
					cand.key.k = b.kBucket(cand.k)
				}
				r.offerRuns(&cand, &cand.y, g.items, dep, x.sigma-sc+sDown, rho)
			}
		}

		// Option 3: source — v is retrieved from c's subtree via the delta
		// (c,v); allowed once, while v is still rooted. All of v's current
		// dependents (x.k nodes, v included) pay gamma. Skipped when the
		// graph lacks the upward delta. Here from a rooted y; from a
		// from-below one after this loop.
		if !x.fromBelow && upID != graph.None {
			cand = msrCand{key: msrKey{fromBelow: true, gb: srcGB}, x: int32(xi), op: opSource, gamma: rUp}
			r.offerRuns(&cand, &cand.y, r.rootedByRho, r.within(ys, x.sigma-sv+sUp), x.sigma-sv+sUp, x.rho+graph.Cost(x.k)*rUp)
		}
	}
	if below && upID != graph.None {
		r.xByRho = r.xByRho[:0]
		for i, x := range xs {
			if !x.fromBelow {
				r.xByRho = append(r.xByRho, msrOrd{rho: x.rho, e: int32(i)})
			}
		}
		r.sorter.sort(r.xByRho)
		r.xBy, r.xGroups = r.byK(r.xBy, r.xGroups, r.xByRho, xs, 0)
		for j, y := range ys {
			if !y.fromBelow {
				continue
			}
			gamma := rUp + y.gamma
			cand := msrCand{key: msrKey{fromBelow: true, gb: b.bucket(gamma)}, y: int32(j), op: opSource, gamma: gamma}
			src := r.within(xs, y.sigma-sv+sUp)
			for _, g := range r.xGroups {
				r.offerRuns(&cand, &cand.x, g.items, src, y.sigma-sv+sUp, y.rho+graph.Cost(g.k)*gamma)
			}
		}
	}

	// The index is done with; the candidates stay in place, ordered
	// through r.order.
	tab.clearIndex()
	order := r.order[:0]
	for e := range tab.cands {
		order = append(order, msrOrd{tab.cands[e].sigma, tab.cands[e].rho, int32(e)})
	}
	tab.sort(order, &r.sorter)
	if r.maxStates > 0 && len(order) > r.maxStates {
		order = tab.capStates(order, r.maxStates)
		r.truncations++
	}
	r.order = order
	// Allocated one by one: a shared slab would stay reachable as a whole
	// through any single state a later chain keeps.
	kept := make([]*msrState, len(order))
	for i, o := range order {
		s := &tab.cands[o.e]
		kept[i] = &msrState{
			fromBelow: s.key.fromBelow, k: s.k, gamma: s.gamma, sigma: s.sigma, rho: s.rho,
			prev: xs[s.x], child: ys[s.y], childNode: c, op: s.op,
		}
	}
	tab.cands = tab.cands[:0]
	return kept
}

// offerRuns walks items, states of one side of the merge in ascending ρ,
// each giving the candidate (sigma + item σ, rho + item ρ) with the state
// of the other side that cand holds; a position at or past limit is
// pruned. Along items only the ρ-bucket of the candidate's key changes,
// so each bucket is one run, and only the least of a run by before can
// win: with the option and the other side fixed, the least (σ, ρ,
// position). offerRuns offers that one, its position at at (&cand.x or
// &cand.y). (Each of mergeChild's lists is a subsequence of xs or ys,
// which ascend in (σ, ρ), and shifts the σ and ρ of its states alike, so
// that is also the run's least position; comparing as before does keeps
// the walk free of that fact.)
func (r *msrRun) offerRuns(cand *msrCand, at *int32, items []msrOrd, limit int32, sigma, rho graph.Cost) {
	open, end := false, graph.Cost(0) // a run is open; the end of its ρ-bucket
	var best msrOrd                   // the open run's least candidate
	for _, it := range items {
		if it.e >= limit {
			continue // pruned
		}
		s, z := sigma+it.sigma, rho+it.rho
		if !open || z >= end {
			rb, zEnd := r.b.bucketEnd(z)
			end = zEnd
			if !open || rb != cand.key.rb {
				if open {
					r.offer(cand, at, best)
				}
				cand.key.rb, open, best = rb, true, msrOrd{s, z, it.e}
				continue
			}
		}
		if s < best.sigma || s == best.sigma && (z < best.rho || z == best.rho && it.e < best.e) {
			best = msrOrd{s, z, it.e}
		}
	}
	if open {
		r.offer(cand, at, best)
	}
}

// offer enters cand with the (σ, ρ) and position of o into the table.
func (r *msrRun) offer(cand *msrCand, at *int32, o msrOrd) {
	cand.sigma, cand.rho, *at = o.sigma, o.rho, o.e
	r.offers++
	r.tab.offer(cand)
}

// capStates keeps maxStates of the candidates, stratified across the
// storage range so the DP's one-run frontier stays informative at both
// its cheap-storage and cheap-retrieval ends: order, the candidates
// sorted by compare (by σ first), is split into equal-rank strata, and
// each stratum keeps its first least-ρ candidate. The first rooted and
// the first from-below candidate in order, the least-storage state of
// each kind, are always kept. That keeps this node's least storage, but
// not every state the merges above need: those also read a state's k and
// γ, and the prune bound may drop the anchors' extensions, so a capped
// run can find no plan for a budget its tree can meet (ROADMAP.md, item
// 11). The kept ones are returned in order's front, still sorted.
func (t *msrTable) capStates(order []msrOrd, maxStates int) []msrOrd {
	rooted, below := int32(-1), int32(-1) // the first of each kind
	for _, o := range order {
		if t.cands[o.e].key.fromBelow {
			if below < 0 {
				below = o.e
			}
		} else if rooted < 0 {
			rooted = o.e
		}
		if rooted >= 0 && below >= 0 {
			break
		}
	}
	n := len(order)
	hasRooted, hasBelow := false, false
	for s := 0; s < maxStates; s++ {
		lo, hi := n*s/maxStates, n*(s+1)/maxStates
		best := order[lo]
		for _, o := range order[lo+1 : hi] {
			if o.rho < best.rho {
				best = o
			}
		}
		hasRooted = hasRooted || best.e == rooted
		hasBelow = hasBelow || best.e == below
		order[s] = best // s ≤ lo: no stratum still to be read is overwritten
	}
	out := order[:maxStates]
	// Re-insert the feasibility anchors at the cheap-storage end: the
	// expensive end holds the low-retrieval states (e.g. the
	// materialize-everything configuration) that the frontier must keep.
	if !hasRooted && rooted >= 0 {
		out[0] = msrOrd{t.cands[rooted].sigma, t.cands[rooted].rho, rooted}
	}
	if !hasBelow && below >= 0 && len(out) >= 2 {
		out[1] = msrOrd{t.cands[below].sigma, t.cands[below].rho, below}
	}
	// Only out[0] and out[1] can be out of place.
	t.insertionSort(out)
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
	return MSROnGraphContext(context.Background(), g, s, root, opt)
}

// MSROnGraphContext is MSROnGraph under ctx: it checks ctx before every
// merge of the DP and returns ctx's error once ctx is done.
func MSROnGraphContext(ctx context.Context, g *graph.Graph, s graph.Cost, root graph.NodeID, opt MSROptions) (MSRResult, error) {
	if opt.PruneStorage == 0 {
		opt.PruneStorage = s
	}
	t, err := FromGraph(g, root)
	if err != nil {
		return MSRResult{}, err
	}
	dp, err := msrFrontier(ctx, t, opt)
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
