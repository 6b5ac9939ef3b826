package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"

	"repro/versioning"
)

type nodeID = versioning.NodeID

// doc is a version's content before rendering: one entry for a plain
// document, one per file for a manifest. Entries share line slices with
// the version they were edited from.
type doc []versioning.ManifestEntry

func (s docShape) render(d doc) []string {
	if s.files == 0 {
		return d[0].Lines
	}
	return versioning.EncodeManifest(d)
}

// words all have six letters and every line has six of them and six
// digits: 48 bytes whatever the seed. Byte sizes are what the version
// graph's costs are made of, so with the shape fixed (below) every seed
// commits a graph with the same costs, the solvers do the same work,
// and plan_sum_retrieval and storage_ratio come out the same.
var words = strings.Fields(`commit branch parent digest bounds budget greedy packed
	shards tenant replay fsyncs solver regime storer script merges leaves chains depths
	ratios counts offset length header footer client served traced layers cached evicts
	admits stalls deltas graphs vertex weight charge fields record object loosed mapped`)

func genLine(r *rand.Rand) string {
	var b strings.Builder
	for i := 0; i < 6; i++ {
		b.WriteString(words[r.Intn(len(words))])
		b.WriteByte(' ')
	}
	fmt.Fprintf(&b, "%06d", r.Intn(1_000_000))
	return b.String()
}

// Two random streams make a history. shape decides how long things are,
// where edits land and who descends from whom; text decides only the
// words. The corpus and the plan phase draw shape from the workload's
// name alone, so every seed commits the same graph with other contents:
// plan_sum_retrieval and storage_ratio are counts over that graph, and
// a tight bound on them means something only while the graph holds
// still. The seed still changes every line and the whole request
// sequence.
func genLines(shape, text *rand.Rand, span [2]int) []string {
	out := make([]string, span[0]+shape.Intn(span[1]-span[0]+1))
	for i := range out {
		out[i] = genLine(text)
	}
	return out
}

func (s docShape) genDoc(shape, text *rand.Rand) doc {
	if s.files == 0 {
		return doc{{Path: "doc", Lines: genLines(shape, text, s.lines)}}
	}
	d := make(doc, s.files)
	for i := range d {
		// Eight files to a directory, so a directory scope narrows a
		// checkout to a twelfth of the tree or less.
		d[i] = versioning.ManifestEntry{Path: fmt.Sprintf("d%02d/f%03d.txt", i/8, i), Lines: genLines(shape, text, s.lines)}
	}
	return d
}

// edit returns a copy of d with edits[0]..edits[1] lines replaced,
// inserted or deleted, spread over at most three files. d is not
// modified.
func (s docShape) edit(r, text *rand.Rand, d doc) doc {
	out := make(doc, len(d))
	copy(out, d)
	files := make([]int, min(3, len(d)))
	for i := range files {
		files[i] = r.Intn(len(d))
	}
	owned := make(map[int]bool)
	for i, n := 0, s.edits[0]+r.Intn(s.edits[1]-s.edits[0]+1); i < n; i++ {
		f := files[r.Intn(len(files))]
		if !owned[f] {
			out[f].Lines = append([]string(nil), out[f].Lines...)
			owned[f] = true
		}
		l := out[f].Lines
		at := r.Intn(len(l))
		switch p := r.Float64(); {
		case p < 0.6:
			l[at] = genLine(text)
		case p < 0.85 || len(l) < 2:
			l = append(l, "")
			copy(l[at+1:], l[at:])
			l[at] = genLine(text)
		default:
			l = append(l[:at], l[at+1:]...)
		}
		out[f].Lines = l
	}
	return out
}

// repoCorpus is one repository's generated history and the oracle for
// it: contents[v] is what a checkout of v must return.
type repoCorpus struct {
	parents  [][]nodeID
	docs     []doc
	contents [][]string
}

func (s spec) genRepo(r, text *rand.Rand) *repoCorpus {
	c := &repoCorpus{}
	for v := 0; v < s.versions; v++ {
		if v == 0 {
			c.add(s.doc, nil, s.doc.genDoc(r, text))
			continue
		}
		parent := nodeID(v - 1)
		if r.Float64() < s.branch {
			parent = nodeID(v - 1 - r.Intn(min(v, 32)))
		}
		parents := []nodeID{parent}
		if v > 2 && r.Float64() < s.merge {
			if other := nodeID(v - 1 - r.Intn(min(v, 32))); other != parent {
				parents = append(parents, other)
			}
		}
		c.add(s.doc, parents, s.doc.edit(r, text, c.docs[parent]))
	}
	return c
}

func (c *repoCorpus) add(shape docShape, parents []nodeID, d doc) {
	c.parents = append(c.parents, parents)
	c.docs = append(c.docs, d)
	c.contents = append(c.contents, shape.render(d))
}

// ancestor walks k first-parent steps up from v, stopping at a root.
func (c *repoCorpus) ancestor(v nodeID, k int) nodeID {
	for ; k > 0 && len(c.parents[v]) > 0; k-- {
		v = c.parents[v][0]
	}
	return v
}

type opKind uint8

const (
	opCheckout opKind = iota
	opPath
	opDiff
	opCommit
	numKinds
)

var kindNames = [numKinds]string{"checkout", "path", "diff", "commit"}

// An op is one request of the measured window, fully decided before
// the daemon starts: reads name corpus versions, and a commit carries
// the content of a new child of a corpus version, so no op depends on
// the ids the daemon hands out to the other client's commits.
type op struct {
	kind   opKind
	tenant int    // repository index (0 in single mode)
	a, b   nodeID // checkout: a; diff: a -> b; commit: parent a
	scope  string // opPath: the manifest directory
	lines  []string
}

// picker draws version and tenant indices with the spec's skew.
type picker struct {
	r       *rand.Rand
	version *rand.Zipf
	tenant  *rand.Zipf
	s       spec
}

func newPicker(s spec, r *rand.Rand) *picker {
	p := &picker{r: r, s: s}
	if s.zipf > 0 {
		p.version = rand.NewZipf(r, s.zipf, 1, uint64(s.versions-1))
	}
	if s.tenantZipf > 0 && s.tenants > 1 {
		p.tenant = rand.NewZipf(r, s.tenantZipf, 1, uint64(s.tenants-1))
	}
	return p
}

func (p *picker) pickVersion() nodeID {
	if p.version != nil {
		return nodeID(p.s.versions - 1 - int(p.version.Uint64()))
	}
	return nodeID(p.r.Intn(p.s.versions))
}

func (p *picker) pickTenant() int {
	switch {
	case p.s.tenants <= 1:
		return 0
	case p.tenant != nil:
		return int(p.tenant.Uint64())
	}
	return p.r.Intn(p.s.tenants)
}

func (s spec) genOps(r *rand.Rand, repos []*repoCorpus, n int) []op {
	p := newPicker(s, r)
	// How far back a diff reaches decides what it costs, so the distances
	// take turns, 1 to diffBack and round again: every window then holds
	// the same blend of them, whatever the seed.
	diffs := 0
	back := func() int { diffs++; return 1 + diffs%s.diffBack }
	if s.sessions {
		ops := make([]op, 0, n)
		for len(ops)+3 <= n {
			t := p.pickTenant()
			c := repos[t]
			v := p.pickVersion()
			for len(c.parents[v]) == 0 {
				v = p.pickVersion()
			}
			ops = append(ops,
				op{kind: opCommit, tenant: t, a: v, lines: s.doc.render(s.doc.edit(r, r, c.docs[v]))},
				op{kind: opCheckout, tenant: t, a: v},
				op{kind: opDiff, tenant: t, a: c.ancestor(v, back()), b: v})
		}
		return ops
	}
	// The kinds come from a deck of 200 that holds each in its share and
	// is shuffled anew when dealt out, for the same reason: drawn one by
	// one, the commits in a window (the dearest op) varied by a twelfth
	// from seed to seed.
	var deck []opKind
	for kind, share := range [numKinds]float64{opCheckout: s.mix.checkout, opPath: s.mix.path, opDiff: s.mix.diff, opCommit: s.mix.commit} {
		for i := 0; i < int(share*200+0.5); i++ {
			deck = append(deck, opKind(kind))
		}
	}
	ops := make([]op, n)
	for i := range ops {
		if i%len(deck) == 0 {
			r.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
		}
		o := op{kind: deck[i%len(deck)], tenant: p.pickTenant()}
		c := repos[o.tenant]
		switch o.kind {
		case opCheckout:
			o.a = p.pickVersion()
		case opPath:
			o.a = p.pickVersion()
			o.scope = fmt.Sprintf("d%02d", r.Intn((s.doc.files+7)/8))
		case opDiff:
			for o.b = p.pickVersion(); len(c.parents[o.b]) == 0; {
				o.b = p.pickVersion()
			}
			o.a = c.ancestor(o.b, back())
		case opCommit:
			o.a = p.pickVersion()
			o.lines = s.doc.render(s.doc.edit(r, r, c.docs[o.a]))
		}
		ops[i] = o
	}
	return ops
}

// planStep is one commit of the plan phase: a child of the previous
// step's version (of the repository's last corpus version for the first
// step of a repository).
type planStep struct {
	tenant int
	lines  []string
}

// workload is everything a run sends, generated from the seed alone.
type workload struct {
	spec    spec
	repos   []*repoCorpus
	rounds  [][]planStep // plan phase, one slice per round
	clients [][]op       // window, one list per client
}

func generate(s spec, seed int64, clients int) *workload {
	w := &workload{spec: s}
	// Independent streams, so that resizing one part of a workload does
	// not reshuffle the others.
	stream := func(i int64) *rand.Rand { return rand.New(rand.NewSource(seed*1000003 + i)) }
	var nameSum int64
	for _, b := range []byte(s.name) {
		nameSum = nameSum*131 + int64(b)
	}
	shape := func(i int64) *rand.Rand { return rand.New(rand.NewSource(nameSum*1000003 + i)) }
	for t := 0; t < max(1, s.tenants); t++ {
		w.repos = append(w.repos, s.genRepo(shape(int64(100+t)), stream(int64(100+t))))
	}
	pr, ptext := shape(1), stream(1)
	heads := make([]doc, len(w.repos))
	for t, c := range w.repos {
		heads[t] = c.docs[len(c.docs)-1]
	}
	for round := 0; round < s.replanRounds; round++ {
		t := round % len(w.repos)
		steps := make([]planStep, s.replanCommits)
		for i := range steps {
			heads[t] = s.doc.edit(pr, ptext, heads[t])
			steps[i] = planStep{tenant: t, lines: s.doc.render(heads[t])}
		}
		w.rounds = append(w.rounds, steps)
	}
	for c := 0; c < clients; c++ {
		w.clients = append(w.clients, s.genOps(stream(int64(10+c)), w.repos, s.listOps))
	}
	return w
}

// digest fingerprints everything generate decided, so a test can pin
// that a seed reproduces its inputs.
func (w *workload) digest() string {
	h := sha256.New()
	num := func(vs ...int64) {
		for _, v := range vs {
			binary.Write(h, binary.LittleEndian, v)
		}
	}
	text := func(lines []string) {
		num(int64(len(lines)))
		for _, l := range lines {
			h.Write([]byte(l))
			h.Write([]byte{'\n'})
		}
	}
	for _, c := range w.repos {
		for v, content := range c.contents {
			for _, p := range c.parents[v] {
				num(int64(p))
			}
			text(content)
		}
	}
	for _, round := range w.rounds {
		for _, st := range round {
			num(int64(st.tenant))
			text(st.lines)
		}
	}
	for _, ops := range w.clients {
		for _, o := range ops {
			num(int64(o.kind), int64(o.tenant), int64(o.a), int64(o.b))
			text([]string{o.scope})
			text(o.lines)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func tenantName(t int) string { return fmt.Sprintf("t%02d", t) }
