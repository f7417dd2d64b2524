package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"congestapsp/pkg/apsp"
)

// The serve workload's request and update stream is a pure function of
// the seed: the same seed replays it exactly, another seed does not.
func TestOpStreamIsPureFunctionOfSeed(t *testing.T) {
	w, _ := findWorkload("serve-mixed-n64")
	var graphs []*apsp.Graph
	for i := range w.graphs {
		g, err := w.scenario(3, i).Build()
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	edges := make([][][]edgeKey, serveClients)
	for _, g := range graphs {
		for c, es := range updateEdges(g, serveClients) {
			edges[c] = append(edges[c], es)
		}
	}
	draw := func(seed int64) [][]op {
		out := make([][]op, serveClients)
		for c := range serveClients {
			s := newOpStream(seed, c, w.n, edges[c])
			for range 4000 {
				out[c] = append(out[c], s.next())
			}
		}
		return out
	}
	a, b := draw(7), draw(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed produced two different op streams")
	}
	if reflect.DeepEqual(a, draw(8)) {
		t.Fatal("seeds 7 and 8 produced the same op stream")
	}
	for c, ops := range a {
		updates, perGraph, updatesPerGraph := 0, make([]int, w.graphs), make([]int, w.graphs)
		for i, o := range ops {
			perGraph[o.graph]++
			if o.update {
				updates++
				updatesPerGraph[o.graph]++
			}
			if (i+1)%updateEvery == 0 && updates != (i+1)/updateEvery {
				t.Fatalf("client %d: %d updates in the first %d requests, want one per %d", c, updates, i+1, updateEvery)
			}
		}
		for gi, k := range perGraph {
			if k < len(ops)/w.graphs/2 {
				t.Fatalf("client %d: graph %d got %d of %d requests", c, gi, k, len(ops))
			}
			if want := len(ops) / updateEvery / w.graphs; updatesPerGraph[gi] != want {
				t.Fatalf("client %d: graph %d got %d updates, want %d", c, gi, updatesPerGraph[gi], want)
			}
		}
	}
	// Clients never share an update edge, so coalesced updates commute.
	for _, g := range graphs {
		seen := map[edgeKey]int{}
		for c, es := range updateEdges(g, serveClients) {
			for _, e := range es {
				if prev, ok := seen[e]; ok && prev != c {
					t.Fatalf("edge %v dealt to clients %d and %d", e, prev, c)
				}
				seen[e] = c
			}
		}
	}
}

// A deliberately corrupted distance row is caught by the oracle gate, and
// so are a drift in the distributed cost between solves and a broken path.
func TestOracleGateCatchesCorruptRow(t *testing.T) {
	w := workload{name: "t", family: "random", n: 32}
	g, r, ref, err := solveSetup(w, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	gt, err := newGate(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(apsp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := gt.checkSolve(res, ref); err != nil {
		t.Fatalf("clean solve rejected: %v", err)
	}
	s := gt.sources[len(gt.sources)/2]
	res.Dist[s][(s+1)%g.N()]++
	if err := gt.checkSolve(res, ref); err == nil {
		t.Fatal("corrupted distance row passed the oracle gate")
	}
	res.Dist[s][(s+1)%g.N()]--
	res.Stats.Messages++
	if err := gt.checkSolve(res, ref); err == nil || !strings.Contains(err.Error(), "cost drift") {
		t.Fatalf("message-count drift not caught: %v", err)
	}
	res.Stats.Messages--
	res.LastHop[s][(s+1)%g.N()] = -1
	if err := gt.checkSolve(res, ref); err == nil {
		t.Fatal("broken last-hop row passed the path check")
	}
}

// Every metric name the benchmark can print is a valid name, unique, and
// BENCHMARK.json at the repository root lists exactly the end-to-end and
// per-layer metrics the code reports.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !metricNameRE.MatchString(s.name) {
			t.Errorf("metric name %q does not match %s", s.name, metricNameRE)
		}
		if seen[s.name] {
			t.Errorf("metric name %q used twice", s.name)
		}
		seen[s.name] = true
		if s.unit == "" || len(s.unit) > 16 {
			t.Errorf("metric %q has unit %q", s.name, s.unit)
		}
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []listedMetric `json:"end_to_end"`
		PerLayer  []listedMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, listed []listedMetric, code []metricSpec) {
		if len(listed) != len(code) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, the code reports %d", len(listed), what, len(code))
			return
		}
		for i, m := range listed {
			better := "lower"
			if code[i].higher {
				better = "higher"
			}
			if m.Name != code[i].name || m.Unit != code[i].unit || m.Better != better {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s] %s, code %s [%s] %s",
					what, i, m.Name, m.Unit, m.Better, code[i].name, code[i].unit, better)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || !metricNameRE.MatchString(w.Name) {
			t.Errorf("workload %d: BENCHMARK.json has %q, code %q", i, w.Name, workloads[i].name)
		}
	}
}

type listedMetric struct {
	Name, Unit, Better string
}

// The percentile helper refuses a percentile with fewer than 10 samples
// beyond it and accepts one with exactly 10.
func TestPercentileRefusesThinTail(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // descending, so the helper must sort
		}
		return out
	}
	cases := []struct {
		n  int
		q  float64
		ok bool
	}{
		{999, 0.99, false}, {1000, 0.99, true},
		{99, 0.90, false}, {100, 0.90, true},
		{19, 0.50, false}, {20, 0.50, true},
		{0, 0.50, false},
	}
	for _, c := range cases {
		v, err := percentile(xs(c.n), c.q)
		if (err == nil) != c.ok {
			t.Errorf("p%g of %d samples: err = %v, want ok=%v", c.q*100, c.n, err, c.ok)
		}
		if c.ok && v != float64(int(c.q*float64(c.n)+0.999999)) {
			t.Errorf("p%g of 1..%d = %g", c.q*100, c.n, v)
		}
	}
}

func TestQuartilesMatchExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	a := []float64{10, 10.2, 9.9, 10.1, 10, 10.3, 9.8, 10, 10.1, 10.2}
	faster := make([]float64, len(a))
	for i, v := range a {
		faster[i] = v * 0.8
	}
	if v := verdict(a, faster, true); !strings.HasPrefix(v, "better") {
		t.Errorf("20%% faster on every pair: %s", v)
	}
	if v := verdict(faster, a, true); !strings.HasPrefix(v, "worse") {
		t.Errorf("20%% slower on every pair: %s", v)
	}
	if v := verdict(a, a, true); !strings.HasPrefix(v, "unresolved") {
		t.Errorf("identical sides: %s", v)
	}
}

// Compare mode pairs runs by seed whatever their order in the files,
// refuses pairs that measured for different lengths, and never calls a
// side that failed more operations better.
func TestCompareRecordsPairsBySeed(t *testing.T) {
	run := func(seed int64, v float64, failed int) record {
		return record{Workload: "w", Seed: seed, Seconds: 10, Failed: failed,
			Metrics: map[string]metric{"cpu_ms_per_op": {Value: v, Unit: "ms"}}}
	}
	var a, b []record
	for s := int64(1); s <= 10; s++ {
		v := 10 + 0.1*float64(s%3)
		a = append(a, run(s, v, 0))
		b = append([]record{run(s, 0.8*v, 0)}, b...) // reversed order
	}
	verdictOf := func(a, b []record) string {
		rows, err := compareRecords(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2 {
			t.Fatalf("rows: %q", rows)
		}
		return rows[1]
	}
	if v := verdictOf(a, b); !strings.Contains(v, "better (B won 10/10") {
		t.Errorf("B 20%% faster on every seed: %s", v)
	}
	b[0].Failed = 1
	if v := verdictOf(a, b); !strings.Contains(v, "unresolved (B failed 1") {
		t.Errorf("B failed more operations: %s", v)
	}
	b[0].Failed, b[0].Seconds = 0, 20
	if _, err := compareRecords(a, b); err == nil {
		t.Error("runs of different lengths were paired")
	}
	b[0].Seconds = 10
	if _, err := compareRecords(a, append(b, b[0])); err == nil {
		t.Error("a run recorded twice was accepted")
	}
}

// A short untraced solve run on small graphs solves each of them in turn
// without a failed check and reports every end-to-end metric it owns.
func TestSolveRunPassesItsChecks(t *testing.T) {
	w := workload{name: "solve-test", family: "random", n: 32, graphs: 3}
	cfg := config{workload: w.name, seed: 4, seconds: 0.2}
	rec := newRecord(cfg)
	if err := runSolve(cfg, w, rec); err != nil {
		t.Fatal(err)
	}
	// One checked warm-up solve per graph, then at least minSolves each.
	if rec.Failed != 0 || rec.Attempted < (1+minSolves)*w.graphs {
		t.Fatalf("attempted %d, failed %d: %v", rec.Attempted, rec.Failed, rec.Failures)
	}
	if got := rec.Metrics["setup_s"].Samples; got != w.graphs {
		t.Errorf("setup_s over %d set-ups, want one per graph (%d)", got, w.graphs)
	}
	for _, name := range []string{"setup_s", "cpu_ms_per_op"} {
		if rec.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v", name, rec.Metrics[name])
		}
	}
}

// A short untraced serve window on small graphs completes without a
// failed check: every answer matches the oracle at its version and the
// daemon's counters match what the clients saw.
func TestServeWindowPassesItsChecks(t *testing.T) {
	t.Chdir(t.TempDir())
	w := workload{name: "serve-test", family: "random", n: 24, serve: true, graphs: 2}
	cfg := config{workload: w.name, seed: 5, seconds: 1}
	rec := newRecord(cfg)
	if err := runServe(cfg, w, rec); err != nil {
		t.Fatal(err)
	}
	if rec.Failed != 0 || rec.Attempted < 20 {
		t.Fatalf("attempted %d, failed %d: %v", rec.Attempted, rec.Failed, rec.Failures)
	}
	for _, name := range []string{"setup_s", "cpu_ms_per_op"} {
		if rec.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v", name, rec.Metrics[name])
		}
	}
}

// The traced run reports every per-layer metric, and its probes charge
// exactly the rounds of the pipeline stages they re-run.
func TestTracedRunProbesMatchPipeline(t *testing.T) {
	t.Chdir(t.TempDir())
	w := workload{name: "trace-test", family: "random", n: 48, graphs: 1}
	cfg := config{workload: w.name, seed: 2, seconds: 1, trace: 1}
	rec := newRecord(cfg)
	if err := runTraced(cfg, w, rec); err != nil {
		t.Fatal(err)
	}
	rec.complete()
	if rec.Failed != 0 {
		t.Fatalf("failures: %v", rec.Failures)
	}
	if rec.Metrics["core.step2-blocker.rounds"].Value == 0 || rec.Metrics["congest.rounds_simulated"].Value == 0 {
		t.Fatalf("no rounds recorded: %v", rec.Metrics)
	}
	if _, err := os.Stat(".bench_build/perfbench/spans-trace-test-s2.json"); err != nil {
		t.Fatalf("spans not written: %v", err)
	}
}
