package dptree

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/core"
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
// pair past the prune bound is not offered. Before the cap a merge drops
// every candidate another of its kind dominates (undominated), which
// keeps the state sets, and so every later merge's walks, small: with
// DefaultMSROptions on the benchmark's replan-scale graph at 950
// versions a run offers 0.86 M candidates to the tables (1.86 M without
// the sweep, 5.4 M when every pair offered), whose rows keep 0.20 M
// (MSRStats.Keys), radix-sorts those, drops 0.07 M of them as dominated
// (MSRStats.Dominated), cuts 283 of its 949 merges at the cap (514
// without the sweep), and takes a median 72 ms on one core of a 2-vCPU
// Xeon, against 121 ms without the sweep (6 alternating pairs). It
// allocates 3,513 times and 4.0 MB; its log peaks at 22,935 records
// (0.3 MB), and the handle keeps 5,377. The result is deterministic:
// equal inputs give equal states, in equal order, and equal plans.
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

// DefaultMSROptions is the tuning DP-MSR runs with everywhere but the
// paper figures, which take theirs from dsvbench's flags — dsvd's
// re-plans, the portfolio's DP-MSR solver, dsvsolve and
// versioning.MSRFrontier: ε = 0.05 on geometric ticks, at most 256
// states per node (the paper evaluates ε = 0.05 and 0.1, Section 7.1).
func DefaultMSROptions() MSROptions {
	return MSROptions{Epsilon: 0.05, Geometric: true, MaxStates: 256}
}

type msrOp uint8

const (
	opInit msrOp = iota
	opIndep
	opDep
	opSource
)

// msrVal is a state's value, what a merge reads of it: a partial solution
// on the already-merged portion of a subtree, node v plus the subtrees of
// its first merged children.
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
type msrVal struct {
	gamma, sigma, rho graph.Cost
	k                 int32
	fromBelow         bool
}

// noRec is the log index of a node's initial state (v materialized,
// alone), which no merge made and so has no record.
const noRec int32 = -1

// msrRec records how a state came about: the merge of child node c into
// v, with the option op, from v's state prev and c's state child (log
// indices, noRec for an initial state). tag packs c, op and whether the
// child state is from below, which reconstruction needs and the child's
// own record does not hold. A record holds no pointer, so the log is one
// slab the collector never scans.
type msrRec struct {
	prev, child int32
	tag         uint32 // c<<3 | op<<1 | child state's fromBelow
}

// maxMSRNodes is the most nodes a record's tag can name.
const maxMSRNodes = 1 << 29

func newMSRRec(prev, child int32, c graph.NodeID, op msrOp, childBelow bool) msrRec {
	tag := uint32(c)<<3 | uint32(op)<<1
	if childBelow {
		tag |= 1
	}
	return msrRec{prev: prev, child: child, tag: tag}
}

func (r msrRec) childNode() graph.NodeID { return graph.NodeID(r.tag >> 3) }
func (r msrRec) op() msrOp               { return msrOp(r.tag >> 1 & 3) }
func (r msrRec) childBelow() bool        { return r.tag&1 != 0 }

// msrList is one node's states, in the order of msrTable.compare: their
// values, and the log index of the first one's record. A merge appends
// its survivors' records to the log in that order, so the i-th state's
// record is base+i; an initial list, one state with no record, has base
// noRec.
type msrList struct {
	vals []msrVal
	base int32
	node graph.NodeID
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
	tree  *BiTree
	root  msrList  // the root's states, sorted by sigma
	log   []msrRec // the records the root's states reach
	stats MSRStats
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
		return int64(b.geoLookup(x))
	case b.linearTick > 0:
		return int64(float64(x) / b.linearTick)
	default:
		return int64(x)
	}
}

// geoLookup is the table's answer for 0 < x < geoLimit.
func (b *bucketer) geoLookup(x graph.Cost) int32 {
	l := bits.Len64(uint64(x))
	bkt := b.geoCell[l<<6|int(uint64(x)<<7>>l)&63]
	for x >= b.geoStep[bkt] {
		bkt++
	}
	return bkt
}

// bucketEnd returns x's bucket and an end past x below which every value
// from x on has that bucket: the next step of the geometric table, or
// x+1 where the bucketer knows no step. The walks call it once per run,
// so the table's case, nearly every call, skips bucket's switch.
func (b *bucketer) bucketEnd(x graph.Cost) (int64, graph.Cost) {
	if b.geoLog > 0 && x > 0 && x < b.geoLimit {
		bkt := b.geoLookup(x)
		return int64(bkt), b.geoStep[bkt]
	}
	return b.bucket(x), x + 1
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
// never scans it. The survivors' records take the positions as log
// indices when they are copied out.
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

// msrTable is the candidate set of one merge step: a dense array of
// candidates in first-insertion order, and a row per candidate class that
// finds a key's candidate by its ρ-bucket. A class is a key less its
// ρ-bucket, what a walk of offerRuns holds fixed, so a walk's class is
// looked up once, and each of its offers, in ascending ρ-bucket, indexes
// the class's row: successive offers go to adjacent slots, and none
// hashes or compares a key. A row is made of pages of msrPageSize
// consecutive ρ-buckets, kept by page number, so a sparse row (ε = 0,
// where the ρ-bucket is ρ itself) costs a page per occupied stretch, not
// its span. A run owns one table and reuses it for every merge, so a
// merge allocates nothing per candidate; only the survivors are copied
// out, to the run's value lists and log.
type msrTable struct {
	// classes finds a class's row by open addressing: 0 is empty, else 1
	// + the row's place in rows. It has at least twice the slots the
	// merge's classes take.
	classes []int32
	rows    []msrRow
	pages   []msrPage
	cands   []msrCand
}

// msrPageBits sets the page size of a row: 2^msrPageBits ρ-buckets.
const (
	msrPageBits = 5
	msrPageSize = 1 << msrPageBits
)

// msrClass is a key less its ρ-bucket.
type msrClass struct {
	fromBelow bool
	k         int32
	gb        int64
}

func (k msrKey) class() msrClass { return msrClass{k.fromBelow, k.k, k.gb} }

// home is c's first slot in an index of 2^(64-shift) slots.
func (c msrClass) home(shift int) int {
	h := uint64(c.gb)*0x9E3779B97F4A7C15 ^ uint64(uint32(c.k))<<1
	if c.fromBelow {
		h ^= 1
	}
	return int(h * 0xC2B2AE3D27D4EB4F >> shift)
}

// msrPage is msrPageSize consecutive ρ-buckets of one row: 0 is empty,
// else 1 + the position of the bucket's candidate in cands.
type msrPage [msrPageSize]int32

// msrRow is one class's row: its pages in ascending page number, the
// ρ-bucket shifted right by msrPageBits, and the number and place in
// msrTable.pages of the page looked up last (num noPage: none yet), where
// the row's next walk starts.
type msrRow struct {
	class msrClass
	pages []msrPageRef
	num   int64
	page  int32
}

type msrPageRef struct {
	num  int64
	page int32 // place in msrTable.pages
}

// msrCursor is a walk's place in the table: its class's row, and the
// page it is at and that page's number.
type msrCursor struct {
	row  int32
	num  int64
	page *msrPage
}

// noPage is the page number of no page: no ρ-bucket shifted right by
// msrPageBits is as small.
const noPage = math.MinInt64

func newMSRTable() msrTable {
	return msrTable{classes: make([]int32, 64)}
}

// row returns the place of c's row, adding an empty one if the merge has
// none.
func (t *msrTable) row(c msrClass) int32 {
	if 2*(len(t.rows)+1) > len(t.classes) {
		t.classes = make([]int32, 2*len(t.classes))
		for r := range t.rows {
			t.classes[t.find(t.rows[r].class)] = int32(r + 1)
		}
	}
	i := t.find(c)
	if t.classes[i] != 0 {
		return t.classes[i] - 1
	}
	r := int32(len(t.rows))
	t.classes[i] = r + 1
	if len(t.rows) < cap(t.rows) {
		// Reuse the page list of an earlier merge's row.
		t.rows = t.rows[:r+1]
		t.rows[r].class, t.rows[r].pages, t.rows[r].num = c, t.rows[r].pages[:0], noPage
	} else {
		t.rows = append(t.rows, msrRow{class: c, num: noPage})
	}
	return r
}

// find returns the slot of classes that holds c's row, or else the empty
// slot that ends c's probe sequence.
func (t *msrTable) find(c msrClass) int {
	mask := len(t.classes) - 1
	i := c.home(bits.LeadingZeros64(uint64(mask)))
	for t.classes[i] != 0 && t.rows[t.classes[i]-1].class != c {
		i = (i + 1) & mask
	}
	return i
}

// cursor is a walk's place before its first offer: at row r's page
// looked up last, so a walk that starts there reads no page list.
func (t *msrTable) cursor(r int32) msrCursor {
	row := &t.rows[r]
	if row.num == noPage {
		return msrCursor{row: r, num: noPage}
	}
	return msrCursor{row: r, num: row.num, page: &t.pages[row.page]}
}

// page returns page num of row r, adding an empty one if the row has
// none.
func (t *msrTable) page(r int32, num int64) *msrPage {
	row := &t.rows[r]
	lo, hi := 0, len(row.pages)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if row.pages[m].num < num {
			lo = m + 1
		} else {
			hi = m
		}
	}
	row.num = num
	if lo < len(row.pages) && row.pages[lo].num == num {
		row.page = row.pages[lo].page
		return &t.pages[row.page]
	}
	t.pages = append(t.pages, msrPage{})
	row.page = int32(len(t.pages) - 1)
	row.pages = slices.Insert(row.pages, lo, msrPageRef{num, row.page})
	return &t.pages[row.page]
}

// offer enters c under its key unless the key holds a candidate that wins
// over it. cur is the walk's place, in the row of c's class.
func (t *msrTable) offer(c *msrCand, cur *msrCursor) {
	rb := c.key.rb
	if num := rb >> msrPageBits; num != cur.num {
		cur.page, cur.num = t.page(cur.row, num), num
	}
	slot := &cur.page[rb&(msrPageSize-1)]
	if *slot == 0 {
		t.cands = append(t.cands, *c)
		*slot = int32(len(t.cands))
	} else if d := &t.cands[*slot-1]; c.before(d) {
		*d = *c
	}
}

// reset empties the table for the next merge. Its cost is in the
// candidates the merge made, not in the size of classes: each class's
// probe sequence is zeroed from its home up to the first empty slot,
// which clears every occupied slot of its cluster, and the pages, which
// are zeroed when taken, are dropped.
func (t *msrTable) reset() {
	mask := len(t.classes) - 1
	shift := bits.LeadingZeros64(uint64(mask))
	for r := range t.rows {
		for i := t.rows[r].class.home(shift); t.classes[i] != 0; i = (i + 1) & mask {
			t.classes[i] = 0
		}
	}
	t.rows, t.pages, t.cands = t.rows[:0], t.pages[:0], t.cands[:0]
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
	// offerRuns checks ctx every msrCheckEvery offers; its error in err stops the merge.
	ctx        context.Context
	err        error
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
	rootedStair []msrStep // undominated's staircases, one per kind
	belowStair  []msrStep
	// The log of the survivors' records, and the value buffers the lists
	// not in use go back to. pending is the lists of the finished nodes
	// no parent has merged yet, leaves aside (a leaf's list is made when
	// its parent merges it); live is how many records the last
	// compaction kept, and remap its scratch.
	log     []msrRec
	free    [][]msrVal
	pending []msrList
	live    int
	remap   []int32
	// What the run did, for MSRStats.
	offers      int64
	keys        int64
	dominated   int64
	truncations int
	peakLog     int
	compactions int
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
	// Keys is the number of candidates the tables kept, one per key
	// offered, before the dominance sweep and the MaxStates cap.
	Keys int64
	// Dominated is the number of those the dominance sweep dropped.
	Dominated int64
	// Truncations is the number of merges whose candidates the
	// MaxStates cap cut.
	Truncations int
	// PeakLog is the most records the reconstruction log held.
	PeakLog int
	// Compactions is the number of times the log was compacted between
	// merges; the last compaction, from the root's states, is not
	// counted.
	Compactions int
}

const (
	// The log is compacted once it holds twice the records the last
	// compaction kept, and at least msrLogFloor: a compaction costs about
	// the records it reads, at most twice those appended since the last
	// one, and the log holds at most twice what the last compaction
	// kept, or the floor.
	msrLogGrowth = 2
	msrLogFloor  = 256
	// An uncapped merge offers millions, for minutes (LeetCodeAnimation's
	// at 1.5× the MSA); a few thousand offers take milliseconds.
	msrCheckEvery = 4096
)

// MSRFrontier runs DP-MSR over the whole tree and returns the handle to
// extract solutions for any storage constraint. It checks ctx before
// every merge and every msrCheckEvery offers within one, and returns
// ctx's error once ctx is done.
func MSRFrontier(ctx context.Context, t *BiTree, opt MSROptions) (*MSRDP, error) {
	n := t.N()
	if n == 0 {
		return &MSRDP{tree: t}, nil
	}
	if n > maxMSRNodes {
		return nil, fmt.Errorf("dptree: DP-MSR takes at most %d nodes, the tree has %d", maxMSRNodes, n)
	}
	r := &msrRun{ctx: ctx, t: t, b: newBucketer(opt, t), pruneBound: opt.PruneStorage, maxStates: opt.MaxStates, tab: newMSRTable()}
	if r.pruneBound == 0 {
		r.pruneBound = -1 // frontier mode: no pruning by default
	}
	// Reverse preorder: children are processed before their parents.
	// index() pushes v's children in order, so each child finishes right
	// after its own subtree and the first child first: when v is reached,
	// its non-leaf children's lists are the top of pending, in order.
	for i := len(t.Order) - 1; i >= 0; i-- {
		v := t.Order[i]
		if len(t.Children[v]) == 0 && i > 0 {
			continue
		}
		top := len(r.pending)
		for _, c := range t.Children[v] {
			if len(t.Children[c]) > 0 {
				top--
			}
		}
		next := top
		cur := r.initList(v)
		for _, c := range t.Children[v] {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			var ys msrList
			if len(t.Children[c]) == 0 {
				ys = r.initList(c)
			} else {
				ys, r.pending[next] = r.pending[next], msrList{base: noRec}
				next++
				if ys.node != c {
					panic("dptree: DP-MSR merges out of preorder")
				}
			}
			kept := r.mergeChild(v, c, cur, ys)
			r.putVals(cur.vals)
			r.putVals(ys.vals)
			cur = kept
			if len(cur.vals) == 0 {
				// A cancelled merge returns no states. Otherwise only the
				// PruneStorage bound can empty a state set: no partial
				// solution fits, so no full solution can either.
				return nil, cmp.Or(r.err, core.ErrInfeasible)
			}
			if len(r.log) > math.MaxInt32 {
				return nil, fmt.Errorf("dptree: DP-MSR log past %d records", math.MaxInt32)
			}
			r.peakLog = max(r.peakLog, len(r.log))
			if len(r.log) >= max(msrLogFloor, msrLogGrowth*r.live) {
				r.pending = append(r.pending, cur)
				r.compact()
				cur = r.pending[len(r.pending)-1]
				r.pending = r.pending[:len(r.pending)-1]
				r.compactions++
			}
		}
		r.pending = append(r.pending[:top], cur)
	}
	// The root's states are in the order of msrTable.compare, which is by
	// (σ, ρ) first: the order Frontier and Best walk them in. The handle
	// keeps them and the records they reach, in buffers of their own size.
	r.compact()
	root := r.pending[0]
	return &MSRDP{
		tree:  t,
		root:  msrList{vals: slices.Clone(root.vals), base: root.base},
		log:   slices.Clone(r.log),
		stats: MSRStats{Offers: r.offers, Keys: r.keys, Dominated: r.dominated, Truncations: r.truncations, PeakLog: r.peakLog, Compactions: r.compactions},
	}, nil
}

// initList is v's states before any merge: v's initial state alone.
func (r *msrRun) initList(v graph.NodeID) msrList {
	return msrList{vals: append(r.getVals(), msrVal{k: 1, sigma: r.t.G.NodeStorage(v)}), base: noRec, node: v}
}

// getVals returns an empty value buffer, from the pool if it has one.
func (r *msrRun) getVals() []msrVal {
	if n := len(r.free); n > 0 {
		buf := r.free[n-1]
		r.free = r.free[:n-1]
		return buf
	}
	return nil
}

// putVals returns buf, which no list uses any more, to the pool.
func (r *msrRun) putVals(buf []msrVal) {
	if cap(buf) > 0 {
		r.free = append(r.free, buf[:0])
	}
}

// compact drops the log's records that no pending list reaches, slides
// the others down in order and renumbers the records' indices and the
// lists' bases. A record's prev and child precede it in the log, so one
// sweep from the top marks everything the lists reach, and one from the
// bottom moves each kept record after those it points to have moved.
func (r *msrRun) compact() {
	n := len(r.log)
	if cap(r.remap) < n {
		r.remap = make([]int32, n)
	}
	mark := r.remap[:n]
	clear(mark)
	for _, l := range r.pending {
		if l.base != noRec {
			for i := range l.vals {
				mark[l.base+int32(i)] = 1
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		if mark[i] == 0 {
			continue
		}
		rec := r.log[i]
		if rec.prev != noRec {
			mark[rec.prev] = 1
		}
		if rec.child != noRec {
			mark[rec.child] = 1
		}
	}
	// mark[i] becomes record i's new index as the sweep passes it; the
	// indices it reads, prev and child, lie behind it.
	w := int32(0)
	for i := 0; i < n; i++ {
		if mark[i] == 0 {
			continue
		}
		rec := r.log[i]
		if rec.prev != noRec {
			rec.prev = mark[rec.prev]
		}
		if rec.child != noRec {
			rec.child = mark[rec.child]
		}
		r.log[w], mark[i] = rec, w
		w++
	}
	r.log = r.log[:w]
	r.live = int(w)
	// A list's records are contiguous and all kept, so they stay so.
	for i := range r.pending {
		if l := &r.pending[i]; l.base != noRec {
			l.base = mark[l.base]
		}
	}
}

// Stats returns what the run did.
func (d *MSRDP) Stats() MSRStats { return d.stats }

// within returns how many of states, from the first, give a candidate
// whose storage less refund, base + σ, is inside the prune bound. states
// ascend in σ, so these are a prefix, and a walk skips every position
// past its end.
func (r *msrRun) within(states []msrVal, base graph.Cost) int32 {
	if r.pruneBound < 0 {
		return int32(len(states))
	}
	return int32(sort.Search(len(states), func(i int) bool { return base+states[i].sigma > r.pruneBound }))
}

// byK fills dst with the states of list, positions in states in ρ
// order, ordered by exact k and so by (k, ρ), each with its σ and its
// ρ + k·perK, and cuts it into groups by k.
func (r *msrRun) byK(dst []msrOrd, groups []msrGroup, list []msrOrd, states []msrVal, perK graph.Cost) ([]msrOrd, []msrGroup) {
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
		s := &states[dst[i].e]
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
// candidate's ρ ascends and the rest of its key, its class, is fixed, and
// offers the least of each ρ-bucket run (offerRuns) to the class's row,
// looked up once per walk (msrTable.row). The lists:
//   - independent: all ys by ρ, per x;
//   - dependent: the rooted ys of one exact k by ρ + k·r(v,c), per x and
//     k, since a from-below x adds k·x.γ and a rooted one puts x.k + k
//     in the key;
//   - source from a rooted y: the rooted ys by ρ, per rooted x (γ is
//     r(c,v) whatever y);
//   - source from a from-below y: the rooted xs of one exact k by ρ, per
//     y and k, since the candidate's ρ adds k·(r(c,v) + y.γ).
//
// The table, sorted by compare, loses the candidates another of their
// kind dominates (undominated), and the rest are capped (capStates).
// xs and ys are in the order of msrTable.compare, which is by σ first, so
// the prune bound keeps a prefix of either.
func (r *msrRun) mergeChild(v, c graph.NodeID, xl, yl msrList) msrList {
	t, b, tab := r.t, r.b, &r.tab
	downID, sDown, rDown := t.DownEdge(c) // delta v → c
	upID, sUp, rUp := t.UpEdge(c)         // delta c → v
	sv := t.G.NodeStorage(v)
	sc := t.G.NodeStorage(c)
	xs, ys := xl.vals, yl.vals

	r.byRho = r.byRho[:0]
	for j, y := range ys {
		r.byRho = append(r.byRho, msrOrd{rho: y.rho, e: int32(j)})
	}
	r.sorter.sort(r.byRho)
	r.rootedByRho = r.rootedByRho[:0]
	below := false // has c a from-below state
	for i, o := range r.byRho {
		y := &ys[o.e]
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
	var srcGB int64 // a rooted y's source γ-bucket, and its row
	var srcRow int32
	if upID != graph.None {
		srcGB = b.bucket(rUp)
		srcRow = tab.row(msrClass{fromBelow: true, gb: srcGB})
	}

	for xi := 0; xi < len(xs) && r.err == nil; xi++ {
		x := &xs[xi]
		refund := sv // a rooted v may still be uprooted, refunding s_v
		if x.fromBelow {
			refund = 0
		}
		xKey := msrKey{fromBelow: x.fromBelow, k: b.kBucket(x.k), gb: b.bucket(x.gamma)}
		xRow := tab.row(xKey.class())

		// Option 1: independent — c's subtree resolves internally.
		cand := msrCand{key: xKey, k: x.k, x: int32(xi), op: opIndep, gamma: x.gamma}
		r.offerRuns(&cand, &cand.y, xRow, r.byRho, r.within(ys, x.sigma-refund), x.sigma, x.rho)

		// Option 2: dependent — uproot a rooted child state and retrieve c
		// (and its k_c dependents) through v via the delta (v,c). Skipped
		// when the graph lacks that delta (synthesized direction).
		if downID != graph.None {
			cand.op = opDep
			dep := r.within(ys, x.sigma-refund-sc+sDown)
			row := xRow
			for _, g := range r.depGroups {
				rho := x.rho
				if x.fromBelow {
					rho += graph.Cost(g.k) * x.gamma
				} else {
					// The class, and so the row, changes with the k-bucket.
					cand.k = x.k + g.k
					if kb := b.kBucket(cand.k); kb != cand.key.k {
						cand.key.k = kb
						row = tab.row(cand.key.class())
					}
				}
				r.offerRuns(&cand, &cand.y, row, g.items, dep, x.sigma-sc+sDown, rho)
			}
		}

		// Option 3: source — v is retrieved from c's subtree via the delta
		// (c,v); allowed once, while v is still rooted. All of v's current
		// dependents (x.k nodes, v included) pay gamma. Skipped when the
		// graph lacks the upward delta. Here from a rooted y; from a
		// from-below one after this loop.
		if !x.fromBelow && upID != graph.None {
			cand = msrCand{key: msrKey{fromBelow: true, gb: srcGB}, x: int32(xi), op: opSource, gamma: rUp}
			r.offerRuns(&cand, &cand.y, srcRow, r.rootedByRho, r.within(ys, x.sigma-sv+sUp), x.sigma-sv+sUp, x.rho+graph.Cost(x.k)*rUp)
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
		for j := 0; j < len(ys) && r.err == nil; j++ {
			y := &ys[j]
			if !y.fromBelow {
				continue
			}
			gamma := rUp + y.gamma
			cand := msrCand{key: msrKey{fromBelow: true, gb: b.bucket(gamma)}, y: int32(j), op: opSource, gamma: gamma}
			src, row := r.within(xs, y.sigma-sv+sUp), tab.row(cand.key.class())
			for _, g := range r.xGroups {
				r.offerRuns(&cand, &cand.x, row, g.items, src, y.sigma-sv+sUp, y.rho+graph.Cost(g.k)*gamma)
			}
		}
	}

	if r.err != nil {
		return msrList{}
	}
	// The candidates stay in place, ordered through r.order.
	r.keys += int64(len(tab.cands))
	order := r.order[:0]
	for e := range tab.cands {
		order = append(order, msrOrd{tab.cands[e].sigma, tab.cands[e].rho, int32(e)})
	}
	tab.sort(order, &r.sorter)
	order = r.undominated(order)
	if r.maxStates > 0 && len(order) > r.maxStates {
		order = tab.capStates(order, r.maxStates)
		r.truncations++
	}
	r.order = order
	kept := msrList{vals: r.getVals(), base: int32(len(r.log)), node: v}
	for _, o := range order {
		s := &tab.cands[o.e]
		kept.vals = append(kept.vals, msrVal{gamma: s.gamma, sigma: s.sigma, rho: s.rho, k: s.k, fromBelow: s.key.fromBelow})
		r.log = append(r.log, newMSRRec(xl.base+s.x, yl.base+s.y, c, s.op, ys[s.y].fromBelow))
	}
	tab.reset()
	return kept
}

// msrStep is one step of a staircase of undominated: a kept candidate's
// k (rooted) or γ (from below), and its ρ.
type msrStep struct {
	at, rho graph.Cost
}

// undominated drops from order, sorted by compare, every candidate that a
// candidate of the same kind dominates, and returns the rest, still in
// order, in order's front. A rooted candidate is dominated by one with σ,
// ρ and k all at most its own, a from-below one by one with σ, ρ and γ all
// at most its own. Those are all a later merge reads of a state of each
// kind (a rooted state's γ is 0, a from-below state's k is 0 and unread),
// every option's σ and ρ grow with them, and the prune bound refunds the
// same s_v to every state of a kind: whatever a dominated state leads to,
// the state that dominates it leads to as cheap or cheaper.
//
// A candidate's dominators all come before it in compare's order, and no
// two candidates of a table agree on kind, σ, ρ and k or γ, so one sweep
// that checks each candidate against the kept ones before it finds them
// all. Per kind the kept ones are summed up by a staircase: the (k or γ,
// ρ) of those no other kept one beats on both, by k or γ ascending and so
// by ρ strictly descending. The candidate is dominated exactly when the
// last step at or below its k or γ has a ρ at most its own. The first
// candidate of each kind is never dropped, so capStates' anchors survive.
func (r *msrRun) undominated(order []msrOrd) []msrOrd {
	r.rootedStair, r.belowStair = r.rootedStair[:0], r.belowStair[:0]
	kept := order[:0]
	for _, o := range order {
		c := &r.tab.cands[o.e]
		stair, at := &r.rootedStair, graph.Cost(c.k)
		if c.key.fromBelow {
			stair, at = &r.belowStair, c.gamma
		}
		s := *stair
		// s[i] is the first step at or past at, s[p] the last at or below.
		i, found := slices.BinarySearchFunc(s, at, func(st msrStep, at graph.Cost) int { return cmp.Compare(st.at, at) })
		p := i - 1
		if found {
			p = i
		}
		if p >= 0 && s[p].rho <= o.rho {
			continue
		}
		// The candidate's step replaces those it beats on both.
		j := i
		for j < len(s) && s[j].rho >= o.rho {
			j++
		}
		*stair = slices.Replace(s, i, j, msrStep{at, o.rho})
		kept = append(kept, o)
	}
	r.dominated += int64(len(order) - len(kept))
	return kept
}

// offerRuns walks items, states of one side of the merge in ascending ρ,
// each giving the candidate (sigma + item σ, rho + item ρ) with the state
// of the other side that cand holds; a position at or past limit is
// pruned. Along items only the ρ-bucket of the candidate's key changes,
// so each bucket is one run, and only the least of a run by before can
// win: with the option and the other side fixed, the least (σ, ρ,
// position). offerRuns offers that one, its position at at (&cand.x or
// &cand.y), into row, the table's row of the class cand holds fixed.
// (Each of mergeChild's lists is a subsequence of xs or ys,
// which ascend in (σ, ρ), and shifts the σ and ρ of its states alike, so
// that is also the run's least position; comparing as before does keeps
// the walk free of that fact.)
func (r *msrRun) offerRuns(cand *msrCand, at *int32, row int32, items []msrOrd, limit int32, sigma, rho graph.Cost) {
	open, end := false, graph.Cost(0) // a run is open; the end of its ρ-bucket
	var best msrOrd                   // the open run's least candidate
	cur := r.tab.cursor(row)
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
					r.offer(cand, at, best, &cur)
					if r.offers%msrCheckEvery == 0 {
						if r.err = r.ctx.Err(); r.err != nil {
							return
						}
					}
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
		r.offer(cand, at, best, &cur)
	}
}

// offer enters cand with the (σ, ρ) and position of o into the table,
// at the walk's place cur.
func (r *msrRun) offer(cand *msrCand, at *int32, o msrOrd, cur *msrCursor) {
	cand.sigma, cand.rho, *at = o.sigma, o.rho, o.e
	r.offers++
	r.tab.offer(cand, cur)
}

// capStates keeps maxStates of the candidates, stratified across the
// storage range so the DP's one-run frontier stays informative at both
// its cheap-storage and cheap-retrieval ends: order, the candidates
// sorted by compare (by σ first), is split into equal-rank strata, and
// each stratum keeps its first least-ρ candidate. The first rooted and
// the first from-below candidate in order, the least-storage state of
// each kind, are always kept. order holds no dominated candidate
// (undominated runs first), so no slot goes to a state another one beats
// on everything the merges above read; TestMSRTable4BudgetsFeasible
// holds two budgets that need this. The cap still judges a state by σ
// and ρ alone, so it may drop the one state of a small k or γ a budget
// needs, and a capped run can then call a budget its tree meets
// infeasible (ROADMAP.md, item 11). The kept ones are returned in order's
// front, still sorted.
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
	for _, s := range d.root.vals { // sorted by sigma
		if s.rho < best {
			best = s.rho
			f.Add(s.sigma, s.rho)
		}
	}
	return f
}

// Best extracts the minimum-retrieval solution with storage ≤ s.
func (d *MSRDP) Best(s graph.Cost) (core.Solution, error) {
	if d.tree.N() == 0 {
		return core.Solution{Plan: plan.New(d.tree.G), Cost: plan.Cost{Feasible: true}}, nil
	}
	chosen := -1
	for i, st := range d.root.vals {
		if st.sigma > s {
			continue
		}
		if chosen < 0 {
			chosen = i
		} else if c := &d.root.vals[chosen]; st.rho < c.rho || (st.rho == c.rho && st.sigma < c.sigma) {
			chosen = i
		}
	}
	if chosen < 0 {
		return core.Solution{}, core.ErrInfeasible
	}
	return d.extract(chosen)
}

// extract builds the plan of the root's i-th state.
func (d *MSRDP) extract(i int) (core.Solution, error) {
	root := d.root.vals[i]
	p := plan.New(d.tree.G)
	if err := d.reconstruct(p, 0, d.root.base+int32(i), root.fromBelow, true); err != nil {
		return core.Solution{}, err
	}
	c := plan.Evaluate(d.tree.G, p)
	if !c.Feasible {
		return core.Solution{}, errors.New("dptree: internal error, reconstructed MSR plan infeasible")
	}
	if c.Storage != root.sigma || c.SumRetrieval > root.rho {
		return core.Solution{}, fmt.Errorf("dptree: internal error, plan (σ=%d, ρ=%d) does not match state (σ=%d, ρ=%d)",
			c.Storage, c.SumRetrieval, root.sigma, root.rho)
	}
	return core.Solution{Plan: p, Cost: c}, nil
}

// reconstruct walks the records from final, v's last state (from below
// or not), back to v's initial state, storing the deltas their merge
// decisions imply. keep reports whether v keeps its own materialization
// when the final mode is rooted (false when the parent uprooted v).
func (d *MSRDP) reconstruct(p *plan.Plan, v graph.NodeID, final int32, fromBelow, keep bool) error {
	if !fromBelow && keep {
		p.Materialized[v] = true
	}
	for i := final; i != noRec; i = d.log[i].prev {
		rec := d.log[i]
		c, keepChild := rec.childNode(), true
		switch rec.op() {
		case opDep:
			id, _, _ := d.tree.DownEdge(c)
			if id == graph.None {
				return ErrSynthesizedEdge
			}
			p.Stored[id] = true
			keepChild = false
		case opSource:
			id, _, _ := d.tree.UpEdge(c)
			if id == graph.None {
				return ErrSynthesizedEdge
			}
			p.Stored[id] = true
		}
		if err := d.reconstruct(p, c, rec.child, rec.childBelow(), keepChild); err != nil {
			return err
		}
	}
	return nil
}

// MSR solves MinSum Retrieval on a bidirectional tree under storage
// constraint s, checking ctx as MSRFrontier does. With zero options the
// answer is exact; with Epsilon / MaxStates it is the Section 6.2
// heuristic.
func MSR(ctx context.Context, t *BiTree, s graph.Cost, opt MSROptions) (core.Solution, error) {
	if opt.PruneStorage == 0 {
		opt.PruneStorage = s
	}
	dp, err := MSRFrontier(ctx, t, opt)
	if err != nil {
		return core.Solution{}, err
	}
	return dp.Best(s)
}

// MSROnGraph runs the DP-MSR heuristic on an arbitrary version graph
// (Section 6.2): extract a spanning bidirectional tree rooted at version
// 0 and run MSR on it.
func MSROnGraph(ctx context.Context, g *graph.Graph, s graph.Cost, opt MSROptions) (core.Solution, error) {
	t, err := FromGraph(g)
	if err != nil {
		return core.Solution{}, err
	}
	return MSR(ctx, t, s, opt)
}

// MSRFrontierOnGraph extracts a spanning bidirectional tree rooted at
// version 0 and returns the full DP frontier handle.
func MSRFrontierOnGraph(ctx context.Context, g *graph.Graph, opt MSROptions) (*MSRDP, error) {
	t, err := FromGraph(g)
	if err != nil {
		return nil, err
	}
	return MSRFrontier(ctx, t, opt)
}
