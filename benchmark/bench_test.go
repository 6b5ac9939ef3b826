package main

import (
	"context"
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"

	"repro/client"
	"repro/serve"
	"repro/versioning"
)

// toy shrinks a spec to a corpus the tier-1 tests load in well under a
// second while keeping its shape: mix, picks, flags and guards.
func (s spec) toy() spec {
	s.versions = min(s.versions, 48)
	if s.tenants > 0 {
		s.tenants, s.maxOpen, s.versions = 6, 2, 8
	}
	if s.doc.files > 0 {
		s.doc.files, s.doc.edits = 12, [2]int{2, 6}
		s.cacheEntries, s.cacheBytes, s.respCacheBytes = 4, 64*kib, 64*kib
	}
	s.listOps, s.warmOps = 400, 100
	s.replanRounds = min(s.replanRounds, max(2, s.tenants))
	s.replanCommits = min(s.replanCommits, 4)
	return s
}

func testConfig(t *testing.T, s spec) config {
	return config{
		spec: s.toy(), seed: 7, window: 2 * time.Second, clients: 2,
		workdir: t.TempDir(), outDir: t.TempDir(), minTail: 1, logf: t.Logf,
	}
}

func TestSeedReproducesInputs(t *testing.T) {
	for _, s := range workloads {
		toy := s.toy()
		a, b, c := generate(toy, 7, 2).digest(), generate(toy, 7, 2).digest(), generate(toy, 8, 2).digest()
		if a != b {
			t.Errorf("%s: seed 7 gave two digests: %s, %s", s.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", s.name, a)
		}
	}
}

// Every deck of 200 ops holds each kind in exactly its share, diff
// distances take turns, and fleet-write sends whole sessions.
func TestOpListsHoldTheirShape(t *testing.T) {
	s, _ := findSpec("history-read")
	s = s.toy()
	w := generate(s, 11, 1)
	var counts [numKinds]int
	for _, o := range w.clients[0][:200] {
		counts[o.kind]++
	}
	if want := [numKinds]int{opCheckout: 110, opPath: 20, opDiff: 40, opCommit: 30}; counts != want {
		t.Errorf("first deck holds %v, want %v", counts, want)
	}

	f, _ := findSpec("fleet-write")
	f = f.toy()
	ops := generate(f, 11, 1).clients[0]
	if len(ops) == 0 || len(ops)%3 != 0 {
		t.Fatalf("%d ops do not make whole sessions", len(ops))
	}
	for i := 0; i < len(ops); i += 3 {
		c, k, d := ops[i], ops[i+1], ops[i+2]
		if c.kind != opCommit || k.kind != opCheckout || d.kind != opDiff ||
			c.tenant != k.tenant || k.tenant != d.tenant || c.a != k.a || d.b != k.a {
			t.Fatalf("session at %d: %+v %+v %+v", i, c.kind, k.kind, d.kind)
		}
	}
}

func TestYardsticks(t *testing.T) {
	cpu := cpuYardstick()
	if got := cpu.slowdown(nil); got != 1 {
		t.Errorf("no units give slowdown %v, want 1", got)
	}
	if got := cpu.slowdown([]float64{0.1, 0.2, 0.3}); got != 2 {
		t.Errorf("median unit of twice the nominal gives slowdown %v, want 2", got)
	}
	disk, err := diskYardstick(t.TempDir() + "/reference")
	if err != nil {
		t.Fatal(err)
	}
	defer disk.close()
	ref := refSampler{y: disk}
	ref.burst(3)
	if disk.err != nil || len(ref.ms) != 3 {
		t.Fatalf("3 writing units: %d timed, err %v", len(ref.ms), disk.err)
	}
	if fi, err := os.Stat(disk.dir + "/journal"); err != nil || fi.Size() != 3*4*kib {
		t.Errorf("journal after 3 units: %v, err %v", fi, err)
	}
	if _, err := os.Stat(disk.dir + "/object"); err != nil {
		t.Errorf("published object: %v", err)
	}

	// Around a timed request the writing units go in a bracket on either
	// side, the CPU units alongside for as long as it takes.
	wait := func() error { time.Sleep(30 * time.Millisecond); return nil }
	seconds, near, err := ref.around(wait)
	if err != nil || seconds < 0.03 || len(near) != 2*disk.bracket || len(ref.ms) != 3+len(near) {
		t.Errorf("writing units around 30 ms: %v s, %d near of %d kept, err %v", seconds, len(near), len(ref.ms), err)
	}
	ref = refSampler{y: cpu}
	seconds, near, err = ref.around(wait)
	if most := int(seconds/cpu.every.Seconds()) + 2; err != nil || seconds < 0.03 || len(near) < 3 || len(near) > most || len(ref.ms) != len(near) {
		t.Errorf("CPU units alongside 30 ms, one every 5: %v s, %d near (at most %d) of %d kept, err %v", seconds, len(near), most, len(ref.ms), err)
	}
}

func TestReplanAtReference(t *testing.T) {
	// Two rounds of unequal work in three trials: round 0 stalls in one
	// trial, round 1 runs on a machine half as fast in another.
	at := func(rs ...replan) trial { return trial{plan: planResult{replans: rs}} }
	trials := []trial{
		at(replan{0.25, 1}, replan{1.5, 1}),
		at(replan{4, 1}, replan{3, 2}),
		at(replan{0.5, 1}, replan{2, 1}),
	}
	if got, want := replanAtReference(trials), (0.5+1.5)/2; got != want {
		t.Errorf("replan_s = %v, want the mean over rounds of the median over trials, %v", got, want)
	}
}

func TestManifestsRoundTrip(t *testing.T) {
	s, _ := findSpec("history-read")
	s = s.toy()
	w := generate(s, 3, 1)
	for v, lines := range w.repos[0].contents {
		entries, err := versioning.ParseManifest(lines)
		if err != nil {
			t.Fatalf("version %d: %v", v, err)
		}
		if len(entries) != s.doc.files {
			t.Fatalf("version %d: %d files, want %d", v, len(entries), s.doc.files)
		}
		if !slices.Equal(versioning.EncodeManifest(entries), lines) {
			t.Fatalf("version %d does not re-encode to itself", v)
		}
	}
	for _, o := range w.clients[0] {
		if o.kind == opPath && len(versioning.FilterManifest(w.repos[0].contents[o.a], o.scope)) < 2 {
			t.Fatalf("scope %q selects nothing from version %d", o.scope, o.a)
		}
	}
}

// Every workload, at toy scale against the in-process stack, with the
// oracle and the guards on: the end-to-end path of an untraced run.
func TestWorkloadsEndToEnd(t *testing.T) {
	for _, s := range workloads {
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			cfg := testConfig(t, s)
			res, err := measure(context.Background(), cfg, func(string) launcher { return inprocLauncher(cfg.spec, nil, nil) })
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 100 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range endToEnd {
				// The in-process stack has no process to read a peak RSS from.
				if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit || (got.Value <= 0 && m.name != "peak_rss_mb") {
					t.Errorf("%s = %+v", m.name, got)
				}
			}
		})
	}
}

// The traced run at toy scale: every per-layer metric is reported, the
// spans reach the file, and the layers account for the traced median.
func TestTracedRun(t *testing.T) {
	for _, s := range workloads {
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			cfg := testConfig(t, s)
			res, err := runTraced(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Fatalf("%d metrics, want %d", len(res.Metrics), len(perLayer))
			}
			if _, err := json.Marshal(res); err != nil {
				t.Fatalf("result does not marshal: %v", err)
			}
			// Not on the toy fleet: with two tenants open of six, the direct
			// checkout usually lands on a tenant that was just reopened, and
			// is slower than the whole handler of the median request.
			total, left := res.Metrics["trace.checkout_p50_ms"].Value, res.Metrics["trace.unattributed_ms_p50"].Value
			if total <= 0 || (left > 0.1*total && s.tenants == 0) {
				t.Errorf("layers leave %.4f ms of a %.4f ms checkout unattributed", left, total)
			}
			data, err := os.ReadFile(cfg.outDir + "/trace-" + s.name + ".json")
			if err != nil {
				t.Fatal(err)
			}
			var spans []span
			if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
				t.Fatalf("%d spans in the file, err %v", len(spans), err)
			}
		})
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "client.checkout", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "roundtrip", Start: 10, End: 90},
		{ID: 3, Parent: 2, Op: 1, Name: "handler", Start: 20, End: 80},
		// Two overlapping children cover [30,50] of the handler once.
		{ID: 4, Parent: 3, Op: 1, Name: "backend.get", Start: 30, End: 40},
		{ID: 5, Parent: 3, Op: 1, Name: "backend.get", Start: 35, End: 50},
		// A child that outlives its parent is clipped to it.
		{ID: 6, Op: 6, Name: "client.commit", Start: 200, End: 210},
		{ID: 7, Parent: 6, Op: 6, Name: "roundtrip", Start: 205, End: 230},
		// Background work belongs to no op.
		{ID: 8, Name: "backend.put", Start: 300, End: 310},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{1: 20, 2: 20, 3: 40, 4: 10, 5: 15, 6: 5, 7: 25, 8: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	ops := opLayers(spans)
	if len(ops) != 2 {
		t.Fatalf("%d ops, want 2 (background spans carry no op id)", len(ops))
	}
	want := map[string]int64{layerClient: 20, layerWire: 20, layerHandler: 40, layerBackend: 25}
	for layer, ns := range want {
		if ops[1][layer] != ns {
			t.Errorf("op 1 %s = %d, want %d", layer, ops[1][layer], ns)
		}
	}
}

func TestAppliesDetectsWrongScripts(t *testing.T) {
	a, b := []string{"x", "y", "z"}, []string{"x", "q", "z"}
	good := []client.DiffOp{{Op: "keep", N: 1}, {Op: "delete", N: 1}, {Op: "insert", Lines: []string{"q"}}, {Op: "keep", N: 1}}
	if !applies(good, a, b) {
		t.Error("a correct script was refused")
	}
	for name, bad := range map[string][]client.DiffOp{
		"short":    good[:3],
		"overrun":  {{Op: "keep", N: 4}},
		"wrong":    {{Op: "keep", N: 1}, {Op: "delete", N: 1}, {Op: "insert", Lines: []string{"r"}}, {Op: "keep", N: 1}},
		"unknown":  {{Op: "move", N: 3}},
		"negative": {{Op: "delete", N: -1}},
	} {
		if applies(bad, a, b) {
			t.Errorf("script %q was accepted", name)
		}
	}
}

func TestGuardsCatchTheWrongMeasurement(t *testing.T) {
	hot, _ := findSpec("hot-read")
	history, _ := findSpec("history-read")
	fleet, _ := findSpec("fleet-write")
	cold := serve.Statsz{RespCache: &serve.RespCacheStats{Hits: 10, Misses: 90}}
	warm := serve.Statsz{RespCache: &serve.RespCacheStats{Hits: 99, Misses: 1}}
	shed := warm
	shed.Admission.Rejected = 1
	for _, c := range []struct {
		name string
		s    spec
		z    serve.Statsz
		want int
	}{
		{"hot-read served cold", hot, cold, 1},
		{"hot-read served warm", hot, warm, 0},
		{"history-read that fits the cache", history, warm, 1},
		{"shed requests", hot, shed, 1},
		{"fleet without evictions", fleet, warm, 1},
	} {
		var g guards
		g.checkStatsz(c.s, serve.Statsz{RespCache: &serve.RespCacheStats{}}, c.z)
		if len(g.failures) != c.want {
			t.Errorf("%s: guards %q, want %d", c.name, g.failures, c.want)
		}
	}
}

// BENCHMARK.json is written by hand; it must name what the code reports.
func TestContractMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit, Why string }
	var contract struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &contract); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range contract.Workloads {
		got = append(got, w.Name+": "+w.Why)
	}
	for _, s := range workloads {
		want = append(want, s.name+": "+s.why)
	}
	if !slices.Equal(got, want) {
		t.Errorf("workloads:\n got %q\nwant %q", got, want)
	}
	for _, c := range []struct {
		kind string
		file []named
		code []struct{ name, unit string }
	}{{"end_to_end", contract.EndToEnd, endToEnd}, {"per_layer", contract.PerLayer, perLayer}} {
		got, want = nil, nil
		for _, m := range c.file {
			got = append(got, m.Name+" "+m.Unit)
		}
		for _, m := range c.code {
			want = append(want, m.name+" "+m.unit)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s:\n got %q\nwant %q", c.kind, got, want)
		}
	}
}
