package diff

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func apply(t *testing.T, a, b []string) Delta {
	t.Helper()
	d := Compute(a, b)
	got, err := d.Apply(a)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if !reflect.DeepEqual(got, b) && !(len(got) == 0 && len(b) == 0) {
		t.Fatalf("apply(compute(a,b), a) = %q, want %q", got, b)
	}
	return d
}

func TestComputeApplyBasics(t *testing.T) {
	cases := [][2][]string{
		{{}, {}},
		{{"a"}, {}},
		{{}, {"a"}},
		{{"a", "b", "c"}, {"a", "b", "c"}},
		{{"a", "b", "c"}, {"a", "x", "c"}},
		{{"a", "b", "c"}, {"c", "b", "a"}},
		{{"x", "y"}, {"p", "q", "r", "s"}},
		{{"same"}, {"same", "more"}},
		{{"1", "2", "3", "4", "5"}, {"2", "4", "6"}},
	}
	for i, c := range cases {
		d := apply(t, c[0], c[1])
		if i == 3 && len(d.Cmds) != 1 {
			t.Fatalf("identical slices should be a single keep, got %+v", d.Cmds)
		}
	}
}

func TestIdenticalContentIsCheap(t *testing.T) {
	lines := make([]string, 1000)
	for i := range lines {
		lines[i] = strings.Repeat("x", 50)
	}
	d := Compute(lines, lines)
	if d.StorageCost() > 2*cmdOverhead {
		t.Fatalf("identity delta costs %d", d.StorageCost())
	}
	full := Compute(nil, lines)
	if full.StorageCost() < ByteSize(lines) {
		t.Fatalf("from-scratch delta %d cheaper than content %d", full.StorageCost(), ByteSize(lines))
	}
}

func TestQuickApplyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	gen := func() []string {
		n := rng.Intn(30)
		out := make([]string, n)
		for i := range out {
			out[i] = string(rune('a' + rng.Intn(5)))
		}
		return out
	}
	f := func() bool {
		a, b := gen(), gen()
		d := Compute(a, b)
		got, err := d.Apply(a)
		if err != nil {
			return false
		}
		if len(got) == 0 && len(b) == 0 {
			return true
		}
		return reflect.DeepEqual(got, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaIsMinimalOnSmallInputs(t *testing.T) {
	// The number of delete+insert lines must equal the Myers distance;
	// verify against an O(n·m) LCS oracle.
	rng := rand.New(rand.NewSource(73))
	lcs := func(a, b []string) int {
		dp := make([][]int, len(a)+1)
		for i := range dp {
			dp[i] = make([]int, len(b)+1)
		}
		for i := 1; i <= len(a); i++ {
			for j := 1; j <= len(b); j++ {
				if a[i-1] == b[j-1] {
					dp[i][j] = dp[i-1][j-1] + 1
				} else if dp[i-1][j] > dp[i][j-1] {
					dp[i][j] = dp[i-1][j]
				} else {
					dp[i][j] = dp[i][j-1]
				}
			}
		}
		return dp[len(a)][len(b)]
	}
	for it := 0; it < 100; it++ {
		gen := func() []string {
			n := rng.Intn(12)
			out := make([]string, n)
			for i := range out {
				out[i] = string(rune('a' + rng.Intn(3)))
			}
			return out
		}
		a, b := gen(), gen()
		d := Compute(a, b)
		edits := 0
		for _, c := range d.Cmds {
			switch c.Op {
			case OpDelete:
				edits += c.N
			case OpInsert:
				edits += len(c.Lines)
			}
		}
		want := len(a) + len(b) - 2*lcs(a, b)
		if edits != want {
			t.Fatalf("it %d: %d edits, minimal is %d (a=%q b=%q)", it, edits, want, a, b)
		}
	}
}

func TestApplyRejectsMismatchedSource(t *testing.T) {
	a := []string{"a", "b", "c"}
	b := []string{"a", "x"}
	d := Compute(a, b)
	if _, err := d.Apply([]string{"a"}); err == nil {
		t.Fatal("short source accepted")
	}
	if _, err := d.Apply(append(a, "extra")); err == nil {
		t.Fatal("long source accepted")
	}
	bad := Delta{Cmds: []Cmd{{Op: Op(9)}}}
	if _, err := bad.Apply(a); err == nil {
		t.Fatal("unknown op accepted")
	}
	// Apply sizes its output from the delta before it checks it: a keep
	// far beyond the source must come back as an error, not an allocation.
	huge := Delta{Cmds: []Cmd{{Op: OpKeep, N: 2}, {Op: OpKeep, N: 1 << 62}, {Op: OpInsert, Lines: []string{"x"}}}}
	if _, err := huge.Apply(a); !errors.Is(err, ErrBadDelta) {
		t.Fatalf("oversized keep: %v, want ErrBadDelta", err)
	}
	// A negative count, or one that wraps the source position past
	// MaxInt, must be an error too, not a slice-bounds panic.
	for _, cmds := range [][]Cmd{
		{{Op: OpKeep, N: math.MinInt + 5}},
		{{Op: OpKeep, N: -1}, {Op: OpKeep, N: 4}},
		{{Op: OpDelete, N: -2}, {Op: OpKeep, N: 5}},
		{{Op: OpKeep, N: 1}, {Op: OpKeep, N: math.MaxInt}},
		{{Op: OpKeep, N: 1}, {Op: OpDelete, N: math.MaxInt}},
	} {
		if _, err := (Delta{Cmds: cmds}).Apply(a); !errors.Is(err, ErrBadDelta) {
			t.Fatalf("%+v: %v, want ErrBadDelta", cmds, err)
		}
	}
}

// An empty target is an empty slice, never nil: a version's lines must
// not depend on whether a plan stores its delta or materializes it, and
// encoders tell nil from empty.
func TestApplyEmptyResultIsEmpty(t *testing.T) {
	for _, a := range [][]string{nil, {"a", "b"}} {
		d := Compute(a, nil)
		got, err := d.Apply(a)
		if err != nil || got == nil || len(got) != 0 {
			t.Fatalf("apply to empty target = %#v, %v; want []string{}, nil", got, err)
		}
		got, err = d.ApplyTo(nil, a)
		if err != nil || got == nil || len(got) != 0 {
			t.Fatalf("ApplyTo(nil) to empty target = %#v, %v; want []string{}, nil", got, err)
		}
	}
}

func TestByteSize(t *testing.T) {
	if ByteSize(nil) != 0 {
		t.Fatal("empty content has size")
	}
	if ByteSize([]string{"ab", "c"}) != 5 {
		t.Fatalf("ByteSize = %d, want 5", ByteSize([]string{"ab", "c"}))
	}
}

// referenceCompute is the kernel Compute replaced, kept verbatim as the
// oracle: it snapshots the whole V array before every edit step. Compute
// must return the same script, command for command.
func referenceCompute(a, b []string) Delta {
	n, m := len(a), len(b)
	if n == 0 && m == 0 {
		return Delta{}
	}
	max := n + m
	offset := max
	v := make([]int, 2*max+1)
	var trace [][]int
	var dFinal int
search:
	for d := 0; d <= max; d++ {
		trace = append(trace, append([]int(nil), v...))
		for k := -d; k <= d; k += 2 {
			var x int
			if k == -d || (k != d && v[offset+k-1] < v[offset+k+1]) {
				x = v[offset+k+1]
			} else {
				x = v[offset+k-1] + 1
			}
			y := x - k
			for x < n && y < m && a[x] == b[y] {
				x++
				y++
			}
			v[offset+k] = x
			if x >= n && y >= m {
				dFinal = d
				break search
			}
		}
	}
	// Backtrack from (n, m) through the trace, collecting raw edits.
	type edit struct {
		del bool
		ai  int // index into a (delete) or b (insert)
	}
	var edits []edit
	x, y := n, m
	for d := dFinal; d > 0; d-- {
		vd := trace[d]
		k := x - y
		var prevK int
		if k == -d || (k != d && vd[offset+k-1] < vd[offset+k+1]) {
			prevK = k + 1
		} else {
			prevK = k - 1
		}
		prevX := vd[offset+prevK]
		prevY := prevX - prevK
		// Walk back the snake.
		for x > prevX && y > prevY {
			x--
			y--
		}
		if prevK == k+1 {
			// Came from above: insertion of b[prevY].
			y--
			edits = append(edits, edit{del: false, ai: y})
		} else {
			// Came from the left: deletion of a[prevX].
			x--
			edits = append(edits, edit{del: true, ai: x})
		}
	}
	// edits are in reverse order; build commands forward.
	var cmds []Cmd
	ai, bi := 0, 0
	emitKeep := func(upTo int) {
		if upTo > ai {
			cmds = append(cmds, Cmd{Op: OpKeep, N: upTo - ai})
			bi += upTo - ai
			ai = upTo
		}
	}
	for i := len(edits) - 1; i >= 0; i-- {
		e := edits[i]
		if e.del {
			emitKeep(e.ai)
			if len(cmds) > 0 && cmds[len(cmds)-1].Op == OpDelete {
				cmds[len(cmds)-1].N++
			} else {
				cmds = append(cmds, Cmd{Op: OpDelete, N: 1})
			}
			ai++
		} else {
			// e.ai indexes b; the keeps before it bring bi up to e.ai.
			emitKeep(ai + (e.ai - bi))
			if len(cmds) > 0 && cmds[len(cmds)-1].Op == OpInsert {
				last := &cmds[len(cmds)-1]
				last.Lines = append(last.Lines, b[e.ai])
			} else {
				cmds = append(cmds, Cmd{Op: OpInsert, Lines: []string{b[e.ai]}})
			}
			bi++
		}
	}
	emitKeep(n)
	return Delta{Cmds: cmds}
}

// randLines returns n lines drawn from an alphabet of the given size; a
// small alphabet repeats lines, which is where greedy tie-breaks show.
func randLines(rng *rand.Rand, n, alphabet int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "l" + strconv.Itoa(rng.Intn(alphabet))
	}
	return out
}

// mutate applies edits random line replacements, insertions and deletions
// to a copy of a.
func mutate(rng *rand.Rand, a []string, edits, alphabet int) []string {
	b := append([]string(nil), a...)
	for e := 0; e < edits; e++ {
		line := "l" + strconv.Itoa(rng.Intn(alphabet))
		switch op := rng.Intn(3); {
		case len(b) == 0 || op == 0:
			at := rng.Intn(len(b) + 1)
			b = append(b[:at], append([]string{line}, b[at:]...)...)
		case op == 1:
			at := rng.Intn(len(b))
			b = append(b[:at], b[at+1:]...)
		default:
			b[rng.Intn(len(b))] = line
		}
	}
	return b
}

// checkAgainstReference asserts Compute's script equals the oracle's and
// applies back to b.
func checkAgainstReference(t testing.TB, a, b []string) {
	t.Helper()
	got, want := Compute(a, b), referenceCompute(a, b)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("script differs from reference\n a=%q\n b=%q\n got  %+v\n want %+v", a, b, got.Cmds, want.Cmds)
	}
	out, err := got.Apply(a)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if !slices.Equal(out, b) {
		t.Fatalf("apply(compute(a,b), a) = %q, want %q", out, b)
	}
}

func TestComputeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	same := randLines(rng, 40, 1000)
	fixed := [][2][]string{
		{nil, nil},
		{nil, same},
		{same, nil},
		{same, same},
		{same, append([]string(nil), same...)},
		{randLines(rng, 25, 1), randLines(rng, 31, 1)},          // one repeated line, N≠M
		{[]string{"a", "b", "c", "d"}, []string{"w", "x", "y"}}, // all different: D = N+M
		{[]string{"x"}, []string{"x", "x"}},
		{[]string{"x", "x"}, []string{"x"}},
	}
	for _, c := range fixed {
		checkAgainstReference(t, c[0], c[1])
	}
	for it := 0; it < 2000; it++ {
		alphabet := []int{1, 2, 3, 8, 1000}[rng.Intn(5)]
		a := randLines(rng, rng.Intn(60), alphabet)
		var b []string
		if rng.Intn(2) == 0 {
			b = randLines(rng, rng.Intn(60), alphabet) // unrelated: D up to N+M
		} else {
			b = mutate(rng, a, rng.Intn(12), alphabet)
		}
		checkAgainstReference(t, a, b)
	}
}

// manifestPair is a history-read-shaped input: lines distinct lines and a
// copy with edits scattered over it.
func manifestPair(seed int64, lines, edits int) (a, b []string) {
	rng := rand.New(rand.NewSource(seed))
	a = make([]string, lines)
	for i := range a {
		a[i] = fmt.Sprintf("dir%02d/file%05d %016x", i%37, i, rng.Uint64())
	}
	return a, mutate(rng, a, edits, 1<<30)
}

func TestComputeMatchesReferenceOnManifest(t *testing.T) {
	a, b := manifestPair(83, 4000, 200)
	checkAgainstReference(t, a, b)
	checkAgainstReference(t, b, a)
}

func FuzzComputeMatchesReference(f *testing.F) {
	f.Add("", "")
	f.Add("a\nb\nc", "a\nx\nc")
	f.Add("x", "x\nx")
	f.Add("a\nb\na\nb\na", "b\na\nb\na\nb")
	f.Add("1\n2\n3\n4\n5", "p\nq")
	f.Fuzz(func(t *testing.T, sa, sb string) {
		checkAgainstReference(t, splitLines(sa), splitLines(sb))
	})
}

// splitLines is a fuzz string as lines; "" is no lines.
func splitLines(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

// FuzzApplyToMatchesApply holds ApplyTo, writing into a dirty dst of any
// length and capacity, to Apply: the same lines, the same error, a left
// as it was, and dst's array reused whenever it can hold the target. The
// script is Compute(a, b) when script is empty, and otherwise read from
// script two bytes a command (op mod 4, where 3 is an unknown op; a
// signed count; an insert takes that many lines of b), so most are bad.
func FuzzApplyToMatchesApply(f *testing.F) {
	f.Add("a\nb\nc", "a\nx\nc", []byte{}, uint8(0), uint8(0))
	f.Add("a\nb\nc", "a\nx\nc", []byte{}, uint8(5), uint8(3))
	f.Add("a\nb", "", []byte{}, uint8(2), uint8(0))
	f.Add("a\nb\nc", "x\ny", []byte{0, 1, 2, 2, 1, 1, 0, 1}, uint8(1), uint8(9))
	f.Add("a\nb\nc", "x", []byte{0, 4, 2, 1}, uint8(0), uint8(4))
	f.Add("a", "", []byte{1, 0xff, 3, 0}, uint8(7), uint8(0))
	f.Fuzz(func(t *testing.T, sa, sb string, script []byte, dstLen, dstSpare uint8) {
		a, b := splitLines(sa), splitLines(sb)
		d := Compute(a, b)
		if len(script) > 0 {
			d = Delta{}
			for i := 0; i+1 < len(script); i += 2 {
				cmd := Cmd{Op: Op(script[i] % 4), N: int(int8(script[i+1]))}
				if cmd.Op == OpInsert {
					cmd.Lines, cmd.N = b[:min(max(cmd.N, 0), len(b))], 0
				}
				d.Cmds = append(d.Cmds, cmd)
			}
		}
		want, wantErr := d.Apply(a)
		dst := make([]string, dstLen, int(dstLen)+int(dstSpare))
		for i, full := 0, dst[:cap(dst)]; i < len(full); i++ {
			full[i] = "dirty" + strconv.Itoa(i)
		}
		before := slices.Clone(a)
		got, err := d.ApplyTo(dst, a)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("ApplyTo error %v, Apply error %v", err, wantErr)
		}
		if !slices.Equal(a, before) {
			t.Fatalf("ApplyTo changed its source: %q, was %q", a, before)
		}
		if err != nil {
			return
		}
		if got == nil || !slices.Equal(got, want) {
			t.Fatalf("ApplyTo = %#v, Apply = %#v", got, want)
		}
		if len(want) > 0 && cap(dst) >= len(want) && &got[0] != &dst[:1][0] {
			t.Fatalf("ApplyTo allocated although dst holds %d of %d lines", cap(dst), len(want))
		}
	})
}

// TestComputeBytesIndependentOfLength pins the O(D²) memory: at a fixed
// 50 edits, a call on 16,000 lines allocates what a call on 1,000 does —
// the script — where the replaced kernel allocated D·(2(N+M)+1) ints.
func TestComputeBytesIndependentOfLength(t *testing.T) {
	bytesPerCall := func(lines int) (bytes, allocs uint64) {
		a, b := manifestPair(89, lines, 0)
		for i := 0; i < 50; i++ {
			b[(i*2+1)*lines/100] = "edited " + strconv.Itoa(i)
		}
		Compute(a, b) // size the pooled scratch outside the measurement
		const calls = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			Compute(a, b)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / calls, (after.Mallocs - before.Mallocs) / calls
	}
	small, smallAllocs := bytesPerCall(1000)
	large, largeAllocs := bytesPerCall(16000)
	// A GC during the run may empty the pool and charge one regrowth of
	// the scratch to a few calls; 1.5x is far under the 16x of O(N·D).
	if large > small+small/2 {
		t.Fatalf("bytes per call grew with N at fixed D: %d at 1,000 lines, %d at 16,000", small, large)
	}
	// The script is two allocations: the commands and the inserted lines.
	if !raceEnabled && (smallAllocs > 2 || largeAllocs > 2) {
		t.Fatalf("allocations per call: %d at 1,000 lines, %d at 16,000; want the script's 2", smallAllocs, largeAllocs)
	}
}

// TestComputeConcurrent hammers the pooled scratch from 8 goroutines;
// run with -race.
func TestComputeConcurrent(t *testing.T) {
	type pair struct {
		a, b []string
		want Delta
	}
	rng := rand.New(rand.NewSource(97))
	pairs := make([]pair, 16)
	for i := range pairs {
		a := randLines(rng, 50+rng.Intn(300), 40)
		b := mutate(rng, a, rng.Intn(40), 40)
		pairs[i] = pair{a, b, referenceCompute(a, b)}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 200; it++ {
				p := pairs[(g+it)%len(pairs)]
				if got := Compute(p.a, p.b); !reflect.DeepEqual(got, p.want) {
					t.Errorf("goroutine %d: script differs from reference on pair %d", g, (g+it)%len(pairs))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
