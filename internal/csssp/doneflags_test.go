package csssp

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"congestapsp/internal/bford"
	"congestapsp/internal/congest"
	"congestapsp/internal/graph"
)

// allLive keeps every node of p live for the whole RunFor budget: the
// schedule the protocols' done flags must reproduce exactly (Proto
// contract, DESIGN.md §2.3).
type allLive struct{ p congest.Proto }

func (a allLive) Step(v, round int, in []congest.Message, send func(congest.Message)) bool {
	a.p.Step(v, round, in, send)
	return false
}

// runAllLive makes the collection's protocols run under allLive until the
// test ends.
func runAllLive(t *testing.T) {
	shipped := runFor
	runFor = func(nw *congest.Network, p congest.Proto, k int) error { return shipped(nw, allLive{p}, k) }
	t.Cleanup(func() { runFor = shipped })
}

// execMode is one way to run a family of per-tree protocols: on one
// network in tree order, source-sharded across worker clones, or with
// every round sharded in place.
type execMode struct {
	name               string
	parallel, viaShard bool
}

var execModes = []execMode{{"seq", false, true}, {"sharded", true, true}, {"in-round", true, false}}

// forTrees runs fn for every tree index in the mode's way.
func (m execMode) forTrees(nw *congest.Network, trees int, fn func(w *congest.Network, i int) error) error {
	nw.Parallel, nw.MinShardNodes = m.parallel, 1
	if m.viaShard {
		return nw.ShardRuns(trees, fn)
	}
	for i := 0; i < trees; i++ {
		if err := fn(nw, i); err != nil {
			return err
		}
	}
	return nil
}

// prunedPair builds two identical collections on g, each on its own network,
// and applies the same random removals to both, so a protocol run on one
// can be compared with a reference run on the other.
func prunedPair(t *testing.T, g *graph.Graph, h int, rng *rand.Rand) (a, b *Collection, nwA, nwB *congest.Network) {
	t.Helper()
	inZ := make([]bool, g.N)
	for v := range inZ {
		inZ[v] = rng.Intn(8) == 0
	}
	build := func() (*Collection, *congest.Network) {
		nw, err := congest.NewNetwork(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Build(nw, g, allSources(g.N), h, bford.Out)
		if err != nil {
			t.Fatal(err)
		}
		c.RemoveSubtreesLocal(inZ, true)
		nw.ResetStats()
		return c, nw
	}
	a, nwA = build()
	b, nwB = build()
	return a, b, nwA, nwB
}

func doneFlagGraphs() []*graph.Graph {
	return []*graph.Graph{
		graph.RandomConnected(graph.GenConfig{N: 40, Seed: 11, MaxWeight: 9}, 120),
		graph.RandomConnected(graph.GenConfig{N: 36, Directed: true, Seed: 12, MaxWeight: 9}, 110),
		graph.Grid(5, 7, graph.GenConfig{Seed: 13, MaxWeight: 9}),
		graph.ZeroWeightMix(graph.GenConfig{N: 30, Seed: 14, MaxWeight: 9}, 80),
	}
}

// TestDoneFlagsMatchAllLive runs the upcast and Remove-Subtrees protocols
// as shipped and with every node kept live for the whole budget, on random
// trees after random removals, and requires equal outputs and equal Stats,
// per-node words included.
func TestDoneFlagsMatchAllLive(t *testing.T) {
	for gi, g := range doneFlagGraphs() {
		for _, m := range execModes {
			t.Run(fmt.Sprintf("g%d/%s", gi, m.name), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(gi)))
				a, b, nwA, nwB := prunedPair(t, g, 3, rng)
				init := make([]int64, g.N)
				for v := range init {
					init[v] = rng.Int63n(5)
				}
				upcasts := func(c *Collection, nw *congest.Network) [][]int64 {
					out := make([][]int64, c.NumTrees())
					err := m.forTrees(nw, c.NumTrees(), func(w *congest.Network, i int) error {
						out[i] = make([]int64, g.N)
						return c.UpcastSumInto(w, i, init, out[i])
					})
					if err != nil {
						t.Fatal(err)
					}
					return out
				}
				inZ := make([]bool, g.N)
				for v := range inZ {
					inZ[v] = rng.Intn(6) == 0
				}
				remove := func(c *Collection, nw *congest.Network) {
					nw.Parallel, nw.MinShardNodes = m.parallel, 1
					if err := c.RemoveSubtrees(nw, inZ, true); err != nil {
						t.Fatal(err)
					}
				}

				gotUp := upcasts(a, nwA)
				remove(a, nwA)
				runAllLive(t)
				wantUp := upcasts(b, nwB)
				remove(b, nwB)

				if !reflect.DeepEqual(gotUp, wantUp) {
					t.Error("upcast sums differ from the all-live run")
				}
				if !reflect.DeepEqual(a.Removed, b.Removed) {
					t.Error("Remove-Subtrees removals differ from the all-live run")
				}
				if !reflect.DeepEqual(nwA.Stats, nwB.Stats) {
					t.Errorf("stats differ from the all-live run:\n  shipped  %+v\n  all-live %+v", nwA.Stats, nwB.Stats)
				}
			})
		}
	}
}

// TestRemovalEpochTracksAliveSet pins RemovalEpoch's contract: it moves
// when a tree loses alive nodes and stays when a flood removes nothing
// from that tree.
func TestRemovalEpochTracksAliveSet(t *testing.T) {
	g := graph.RandomConnected(graph.GenConfig{N: 30, Seed: 21, MaxWeight: 9}, 90)
	nw, err := congest.NewNetwork(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Build(nw, g, allSources(g.N), 3, bford.Out)
	if err != nil {
		t.Fatal(err)
	}
	alive := func(i int) []bool {
		out := make([]bool, g.N)
		for v := range out {
			out[v] = c.InTree(i, v)
		}
		return out
	}
	inZ := make([]bool, g.N)
	inZ[7] = true
	before := make([]uint64, c.NumTrees())
	aliveBefore := make([][]bool, c.NumTrees())
	for i := range before {
		before[i], aliveBefore[i] = c.RemovalEpoch(i), alive(i)
	}
	if err := c.RemoveSubtrees(nw, inZ, true); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		changed := !reflect.DeepEqual(aliveBefore[i], alive(i))
		if moved := c.RemovalEpoch(i) != before[i]; moved != changed {
			t.Errorf("tree %d: epoch moved=%v, alive set changed=%v", i, moved, changed)
		}
	}
	e := c.RemovalEpoch(0)
	c.ResetRemovals()
	if c.RemovalEpoch(0) == e {
		t.Error("ResetRemovals left the epoch unchanged")
	}
}
