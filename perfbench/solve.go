package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"congestapsp/pkg/apsp"
)

const (
	// minSolves is the fewest timed solves a solve run makes per graph,
	// however long one takes.
	minSolves = 2
	// oracleSources is how many sampled sources the oracle gate checks.
	oracleSources = 16
)

// solveSetup builds the run's i-th graph and a warm Runner on it and makes
// one warm-up solve, whose result is the reference later solves must match.
func solveSetup(w workload, seed int64, i int) (*apsp.Graph, *apsp.Runner, *apsp.Result, error) {
	g, err := w.scenario(seed, i).Build()
	if err != nil {
		return nil, nil, nil, err
	}
	r, err := apsp.NewRunner(g)
	if err != nil {
		return nil, nil, nil, err
	}
	res, err := r.Run(apsp.Options{})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("warm-up solve: %w", err)
	}
	return g, r, res, nil
}

// gate holds the oracle rows for the sampled sources, computed once per
// run outside any timed region.
type gate struct {
	or      *oracle
	sources []int
	want    [][]int64
}

func newGate(g *apsp.Graph, seed int64) (*gate, error) {
	or, err := newOracle(g)
	if err != nil {
		return nil, err
	}
	gt := &gate{or: or, sources: sampleSources(g.N(), oracleSources, seed)}
	for _, s := range gt.sources {
		gt.want = append(gt.want, or.row(s))
	}
	return gt, nil
}

// checkSolve verifies a solve against the reference solve of its graph
// (the distributed cost must repeat exactly) and against the oracle: the
// distance rows of the sampled sources, and the path to every target.
func (gt *gate) checkSolve(res, ref *apsp.Result) error {
	a, b := res.Stats, ref.Stats
	if a.Rounds != b.Rounds || a.Messages != b.Messages || a.BlockerSetSize != b.BlockerSetSize || a.H != b.H {
		return fmt.Errorf("cost drift: rounds/messages/|Q|/h = %d/%d/%d/%d, first solve had %d/%d/%d/%d",
			a.Rounds, a.Messages, a.BlockerSetSize, a.H, b.Rounds, b.Messages, b.BlockerSetSize, b.H)
	}
	if err := checkRows(res.Dist, gt.sources, gt.want); err != nil {
		return err
	}
	for i, s := range gt.sources {
		for t, want := range gt.want[i] {
			if err := gt.or.checkPath(res.Path(s, t), s, t, want); err != nil {
				return err
			}
		}
	}
	return nil
}

// warm is one graph of a solve run with its warm Runner, reference solve
// and oracle gate.
type warm struct {
	r   *apsp.Runner
	ref *apsp.Result
	gt  *gate
}

// runSolve is the untraced run of a solve workload: each of the run's
// graphs is set up once (setup_s is the median CPU time of those
// set-ups), then one caller solves the graphs in turn on their warm
// Runners (cpu_ms_per_op is the median CPU time of a solve).
// Spreading a run over several graphs evens out how much work one seed's
// graph happens to need.
func runSolve(cfg config, w workload, rec *record) error {
	var (
		ws     []warm
		setups []float64
	)
	for i := range w.graphs {
		runtime.GC() // collect the previous set-up's garbage outside the timer
		c0 := cpuSeconds()
		g, r, ref, err := solveSetup(w, cfg.seed, i)
		if err != nil {
			return err
		}
		setups = append(setups, cpuSeconds()-c0)
		gt, err := newGate(g, cfg.seed+int64(i))
		if err != nil {
			return err
		}
		rec.Attempted++
		if err := gt.checkSolve(ref, ref); err != nil {
			rec.fail("graph %d: warm-up solve: %v", i, err)
		}
		ws = append(ws, warm{r: r, ref: ref, gt: gt})
	}
	rec.set("setup_s", median(setups), len(setups))

	var walls, cpus []float64
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; i < minSolves*len(ws) || time.Now().Before(deadline); i++ {
		wg := ws[i%len(ws)]
		// Collect the previous solve's garbage outside the timer, so every
		// solve starts from the same heap.
		runtime.GC()
		c0, t := cpuSeconds(), time.Now()
		res, err := wg.r.Run(apsp.Options{})
		wall, cpu := time.Since(t).Seconds(), cpuSeconds()-c0
		rec.Attempted++
		if err != nil {
			rec.fail("solve %d: %v", i, err)
			break
		}
		walls, cpus = append(walls, wall), append(cpus, cpu)
		if err := wg.gt.checkSolve(res, wg.ref); err != nil {
			rec.fail("solve %d (graph %d): %v", i, i%len(ws), err)
		}
	}
	fmt.Fprintf(os.Stderr, "set-ups %.3f CPU s; solves %.3f CPU s, %.3f wall s\n", setups, cpus, walls)
	rec.set("cpu_ms_per_op", 1000*median(cpus), len(cpus))
	return nil
}
