package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"congestapsp/internal/bford"
	"congestapsp/internal/blocker"
	"congestapsp/internal/broadcast"
	"congestapsp/internal/congest"
	"congestapsp/internal/csssp"
	"congestapsp/internal/graph"
	"congestapsp/pkg/apsp"
)

// tracedSolves is how many traced solves (each paired with an untraced
// one) the traced run makes.
const tracedSolves = 2

// bfordRoots is how many sampled roots the bford probe times.
const bfordRoots = 32

// span is one timed interval of the traced run. Spans live in memory and
// are written out when the run ends.
type span struct {
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"` // since the run began
	EndMS   float64 `json:"end_ms"`
	Parent  int     `json:"parent"` // index of the causing span, -1 for a root
	Req     int64   `json:"req"`    // request id shared by a request's spans, -1 if none
}

type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e6 }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int, req int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, StartMS: t.now(), EndMS: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	t.mu.Lock()
	t.spans[id].EndMS = t.now()
	t.mu.Unlock()
}

// write dumps every span as one JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// observer is a congest.FaultInjector that never injects a fault: it
// records the stage boundaries the pipeline announces as spans and counts
// engine rounds and ShardRuns sub-runs per stage. Combined with
// Options.OnRound it also counts the rounds the session network reports.
type observer struct {
	tr    *tracer
	stage atomic.Int32 // index into stageNames, or outside

	// mu guards the span bookkeeping: SetStage runs on the goroutine
	// executing the pipeline (the daemon's batch drain, under serve), arm
	// and finish on the benchmark's.
	mu     sync.Mutex
	parent int   // span of the enclosing solve or traffic window
	req    int64 // request id of the enclosing solve, -1 if none
	open   int   // span of the running stage, -1 when none

	rounds  [9]atomic.Int64
	subruns [9]atomic.Int64
	onRound atomic.Int64
}

// outside indexes the counters of work outside any pipeline stage.
const outside = 8

func newObserver(tr *tracer) *observer {
	o := &observer{tr: tr, parent: -1, req: -1, open: -1}
	o.stage.Store(outside)
	return o
}

// arm resets the counters for a new solve under span parent.
func (o *observer) arm(parent int, req int64) {
	o.mu.Lock()
	o.parent, o.req = parent, req
	o.mu.Unlock()
	for i := range o.rounds {
		o.rounds[i].Store(0)
		o.subruns[i].Store(0)
	}
	o.onRound.Store(0)
}

// finish closes the last stage span of a solve.
func (o *observer) finish() {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.open >= 0 {
		o.tr.end(o.open)
		o.open = -1
	}
	o.stage.Store(outside)
}

// SetStage is called between stages, never concurrently with Fire*.
func (o *observer) SetStage(name string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.open >= 0 {
		o.tr.end(o.open)
	}
	idx := int32(outside)
	for i, s := range stageNames {
		if s == name {
			idx = int32(i)
		}
	}
	o.stage.Store(idx)
	o.open = o.tr.begin("stage:"+name, o.parent, o.req)
}

func (o *observer) FireRound(subrun, round int) error {
	o.rounds[o.stage.Load()].Add(1)
	return nil
}

func (o *observer) FireSubRun(subrun int) error {
	o.subruns[o.stage.Load()].Add(1)
	return nil
}

func (o *observer) onRoundHook(round, delivered int) { o.onRound.Add(1) }

func (o *observer) totalRounds() (n int64) {
	for i := range o.rounds {
		n += o.rounds[i].Load()
	}
	return n
}

func (o *observer) totalSubruns() (n int64) {
	for i := range o.subruns {
		n += o.subruns[i].Load()
	}
	return n
}

var _ congest.FaultInjector = (*observer)(nil)

// runTraced is the traced run: per-layer metrics of the workload's solve
// (and, for serve, of a traced traffic window).
func runTraced(cfg config, w workload, rec *record) error {
	tr := newTracer()
	setup := tr.begin("setup", -1, -1)
	g, err := w.scenario(cfg.seed, 0).Build()
	if err != nil {
		return err
	}
	t0 := time.Now()
	r, err := apsp.NewRunner(g)
	if err != nil {
		return err
	}
	rec.set("congest.network_build_ms", msSince(t0), 1)
	ref, err := r.Run(apsp.Options{})
	if err != nil {
		return fmt.Errorf("warm-up solve: %w", err)
	}
	gt, err := newGate(g, cfg.seed)
	if err != nil {
		return err
	}
	tr.end(setup)

	obs := newObserver(tr)
	var untraced, traced []float64
	var res *apsp.Result
	var m0, m1 runtime.MemStats
	var simulated, subruns int64
	for i := range tracedSolves {
		t := time.Now()
		u, err := r.Run(apsp.Options{})
		untraced = append(untraced, time.Since(t).Seconds())
		rec.Attempted++
		if err != nil {
			return err
		}
		if err := gt.checkSolve(u, ref); err != nil {
			rec.fail("untraced solve %d: %v", i, err)
		}
		u = nil // release it before the traced solve's heap is sampled

		sp := tr.begin("solve", -1, int64(i))
		obs.arm(sp, int64(i))
		r.SetFaultInjector(obs)
		runtime.ReadMemStats(&m0)
		t = time.Now()
		res, err = r.Run(apsp.Options{OnRound: obs.onRoundHook})
		wall := time.Since(t).Seconds()
		runtime.ReadMemStats(&m1)
		obs.finish()
		tr.end(sp)
		r.SetFaultInjector(nil)
		traced = append(traced, wall)
		rec.Attempted++
		if err != nil {
			return err
		}
		if err := gt.checkSolve(res, ref); err != nil {
			rec.fail("traced solve %d: %v", i, err)
		}
		if i > 0 && (obs.totalRounds() != simulated || obs.totalSubruns() != subruns) {
			rec.fail("traced solve %d simulated %d rounds in %d sub-runs, solve 0 %d in %d",
				i, obs.totalRounds(), obs.totalSubruns(), simulated, subruns)
		}
		simulated, subruns = obs.totalRounds(), obs.totalSubruns()
	}
	st := res.Stats
	rec.set("trace.solve_s", median(traced), len(traced))
	rec.set("trace.untraced_solve_s", median(untraced), len(untraced))
	rec.set("trace.overhead_s", median(traced)-median(untraced), len(traced))
	rec.set("congest.rounds_simulated", float64(simulated), 1)
	rec.set("congest.rounds_charged", float64(st.Rounds), 1)
	rec.set("congest.messages", float64(st.Messages), 1)
	rec.set("congest.ns_per_round", median(untraced)*1e9/float64(max(simulated, 1)), len(untraced))
	rec.set("congest.subruns", float64(subruns), 1)
	rec.set("congest.arena_bytes", float64(r.ArenaFootprint()), 1)
	if obs.onRound.Load() == 0 {
		rec.fail("OnRound never fired")
	}

	var stageWall float64
	for i, name := range stageNames {
		var sw float64
		var rounds int
		for _, s := range st.Stages {
			if s.Name == name {
				sw, rounds = s.WallMS, s.Rounds
			}
		}
		stageWall += sw
		rec.set("core."+name+".wall_ms", sw, 1)
		rec.set("core."+name+".rounds", float64(rounds), 1)
		rec.set("core."+name+".subruns", float64(obs.subruns[i].Load()), 1)
	}
	share := stageWall / (traced[len(traced)-1] * 1000)
	rec.set("core.stage_wall_share", share, 1)
	rec.Attempted++
	if share < 0.95 || share > 1.0001 {
		rec.fail("stage walls sum to %.1f%% of the traced solve wall, want within 5%%", 100*share)
	}
	rec.set("blocker.subruns", float64(obs.subruns[1].Load()), 1)
	rec.set("blocker.q_size", float64(st.BlockerSetSize), 1)
	rec.set("qsink.pipeline_rounds", float64(st.PipelineRounds), 1)
	rec.set("qsink.bottlenecks", float64(st.BottleneckCount), 1)

	const mb = 1 << 20
	n := float64(g.N())
	rec.set("mem.result_mb", 16*n*n/mb, 1) // computed: int64 Dist + int LastHop
	rec.set("mem.alloc_mb_per_solve", float64(m1.TotalAlloc-m0.TotalAlloc)/mb, 1)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rec.set("mem.heap_live_mb", float64(ms.HeapAlloc)/mb, 1)
	runtime.KeepAlive(res)
	r, ref, res = nil, nil, nil

	probe := tr.begin("probe", -1, -1)
	err = probeLayers(g, st, rec, tr, probe, cfg.seed)
	tr.end(probe)
	if err != nil {
		return err
	}

	if w.serve {
		window := tr.begin("serve-window", -1, -1)
		err := serveLayers(cfg, w, rec, tr, window)
		tr.end(window)
		if err != nil {
			return err
		}
	} else {
		for _, s := range perLayer {
			if _, ok := rec.Metrics[s.name]; !ok {
				rec.set(s.name, 0, 0) // the serve and update layers do no work here
			}
		}
	}
	return tr.write(filepath.Join(scratchDir, fmt.Sprintf("spans-%s-s%d.json", w.name, cfg.seed)))
}

// probeLayers calls the layer packages directly on a fresh network, in the
// pipeline's order and with its inputs, timing each, and checks that every
// probe charged exactly the rounds the pipeline's stage did — so the probe
// provably measured the same work.
func probeLayers(g *apsp.Graph, st apsp.Stats, rec *record, tr *tracer, parent int, seed int64) error {
	ig, err := hostGraph(g)
	if err != nil {
		return err
	}
	nw, err := congest.NewNetwork(ig, 1)
	if err != nil {
		return err
	}
	h := st.H
	stageRounds := map[string]int{}
	for _, s := range st.Stages {
		stageRounds[s.Name] = s.Rounds
	}
	probed := map[string]int{}
	timed := func(name string, f func() error) (float64, error) {
		sp := tr.begin("probe:"+name, parent, -1)
		r0 := nw.Stats.Rounds
		t := time.Now()
		err := f()
		ms := msSince(t)
		tr.end(sp)
		probed[name] += nw.Stats.Rounds - r0
		return ms, err
	}

	sources := make([]int, g.N())
	for i := range sources {
		sources[i] = i
	}
	var coll *csssp.Collection
	ms, err := timed("step1-csssp", func() (err error) {
		coll, err = csssp.Build(nw, ig, sources, h, bford.Out)
		return err
	})
	if err != nil {
		return err
	}
	rec.set("csssp.build_ms", ms, 1)

	var bres *blocker.Result
	ms, err = timed("step2-blocker", func() (err error) {
		bres, err = blocker.Compute(nw, coll, blocker.Params{})
		return err
	})
	if err != nil {
		return err
	}
	coll.ResetRemovals()
	rec.set("blocker.compute_ms", ms, 1)
	rec.set("blocker.selection_steps", float64(bres.Stats.SelectionSteps), 1)
	rec.set("blocker.good_point_share", ratio(float64(bres.Stats.GoodPoints), float64(bres.Stats.PointsScanned)), int(bres.Stats.PointsScanned))

	q := bres.Q
	deltaH := make([][]int64, len(q))
	if _, err := timed("step3-insssp", func() error {
		for ci, c := range q {
			res, err := bford.RunLabels(nw, ig, c, h, bford.In)
			if err != nil {
				return err
			}
			deltaH[ci] = append([]int64(nil), res.Dist...)
		}
		return nil
	}); err != nil {
		return err
	}

	// Step 4 exactly as the pipeline stages it: a BFS tree, then every
	// blocker's row of finite delta_h values, all-to-all.
	var tree *broadcast.Tree
	if _, err := timed("step4-bcast", func() (err error) {
		tree, err = broadcast.BuildBFS(nw, 0)
		return err
	}); err != nil {
		return err
	}
	cnt := make([]int32, g.N())
	for _, c := range q {
		for cj := range q {
			if deltaH[cj][c] < graph.Inf {
				cnt[c]++
			}
		}
	}
	items := broadcast.CarveItems(cnt)
	for ci, c := range q {
		for cj := range q {
			if d := deltaH[cj][c]; d < graph.Inf {
				items[c] = append(items[c], broadcast.Item{A: int64(ci), B: int64(cj), C: d})
			}
		}
	}
	ms, err = timed("step4-bcast", func() error {
		_, err := broadcast.AllToAll(nw, tree, items)
		return err
	})
	if err != nil {
		return err
	}
	rec.set("broadcast.all_to_all_ms", ms, 1)

	for _, name := range stageNames[:4] {
		rec.Attempted++
		if probed[name] != stageRounds[name] {
			rec.fail("probe of %s charged %d rounds, the pipeline stage %d", name, probed[name], stageRounds[name])
		}
	}
	if len(q) != st.BlockerSetSize {
		rec.fail("probe blocker set has %d nodes, the pipeline's %d", len(q), st.BlockerSetSize)
	}

	// bford: out-SSSPs from sampled roots, the Step-7 protocol.
	var us []float64
	for _, root := range sampleSources(g.N(), bfordRoots, seed+1) {
		sp := tr.begin("probe:bford", parent, -1)
		t := time.Now()
		if _, err := bford.RunLabels(nw, ig, root, h, bford.Out); err != nil {
			return err
		}
		us = append(us, float64(time.Since(t).Nanoseconds())/1e3)
		tr.end(sp)
	}
	return setPercentile(rec, "bford.run_us_p50", us, 0.50)
}
