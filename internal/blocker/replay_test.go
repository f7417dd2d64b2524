package blocker

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"

	"congestapsp/internal/bford"
	"congestapsp/internal/congest"
	"congestapsp/internal/csssp"
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

// TestDoneFlagsMatchAllLive runs the Ancestors and Compute-Pij protocols as
// shipped and with every node kept live for the whole budget, on random
// trees after random removals, sequentially, source-sharded and sharded
// in-round, and requires equal outputs and equal Stats, per-node words
// included.
func TestDoneFlagsMatchAllLive(t *testing.T) {
	graphs := []*graph.Graph{
		graph.RandomConnected(graph.GenConfig{N: 40, Seed: 11, MaxWeight: 9}, 120),
		graph.RandomConnected(graph.GenConfig{N: 36, Directed: true, Seed: 12, MaxWeight: 9}, 110),
		graph.Grid(5, 7, graph.GenConfig{Seed: 13, MaxWeight: 9}),
		graph.ZeroWeightMix(graph.GenConfig{N: 30, Seed: 14, MaxWeight: 9}, 80),
	}
	modes := []struct {
		name               string
		parallel, viaShard bool
	}{{"seq", false, true}, {"sharded", true, true}, {"in-round", true, false}}
	for gi, g := range graphs {
		for _, m := range modes {
			t.Run(fmt.Sprintf("g%d/%s", gi, m.name), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(gi)))
				inZ := make([]bool, g.N)
				inVi := make([]bool, g.N)
				for v := range inZ {
					inZ[v] = rng.Intn(8) == 0
					inVi[v] = rng.Intn(3) == 0
				}
				type output struct {
					off, ids [][]int32
					beta     [][]int64
				}
				run := func() (output, congest.Stats) {
					coll, nw := buildColl(t, g, 3, bford.Out)
					coll.RemoveSubtreesLocal(inZ, true)
					nw.ResetStats()
					nw.Parallel, nw.MinShardNodes = m.parallel, 1
					trees := coll.NumTrees()
					out := output{make([][]int32, trees), make([][]int32, trees), make([][]int64, trees)}
					fn := func(w *congest.Network, i int) (err error) {
						if out.off[i], out.ids[i], err = collectAncestors(w, coll, i); err != nil {
							return err
						}
						out.beta[i] = make([]int64, g.N)
						return computePijDowncastInto(w, coll, i, inVi, out.beta[i])
					}
					if m.viaShard {
						if err := nw.ShardRuns(trees, fn); err != nil {
							t.Fatal(err)
						}
					} else {
						for i := 0; i < trees; i++ {
							if err := fn(nw, i); err != nil {
								t.Fatal(err)
							}
						}
					}
					return out, nw.Stats
				}
				got, gotStats := run()
				shipped := runFor
				runFor = func(nw *congest.Network, p congest.Proto, k int) error { return shipped(nw, allLive{p}, k) }
				defer func() { runFor = shipped }()
				want, wantStats := run()
				if !reflect.DeepEqual(got, want) {
					t.Error("ancestor lists or betas differ from the all-live run")
				}
				if !reflect.DeepEqual(gotStats, wantStats) {
					t.Errorf("stats differ from the all-live run:\n  shipped  %+v\n  all-live %+v", gotStats, wantStats)
				}
			})
		}
	}
}

// replayPin is one (graph, mode) case whose blocker set and charges were
// recorded before captured-charge replay existed, when every per-tree run
// was simulated.
type replayPin struct {
	name string
	g    *graph.Graph
	h    int
	par  Params

	q         []int
	rounds    int
	messages  int64
	words     int64
	wordsHash uint64 // FNV-1a over the little-endian WordsByNode entries
}

func wordsHash(w []int64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range w {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestReplayMatchesPinnedCharges pins captured-charge replay (DESIGN.md
// §3): on every case some per-tree runs are replayed, yet Q, the charged
// rounds and the network's messages, words and per-node words equal the
// values recorded when every run was simulated — sequentially and sharded.
func TestReplayMatchesPinnedCharges(t *testing.T) {
	pins := []replayPin{
		{name: "random-undir-det", g: graph.RandomConnected(graph.GenConfig{N: 40, Seed: 3, MaxWeight: 9}, 140), h: 3,
			par: Params{Mode: Deterministic},
			q:   []int{1, 3, 6, 7, 8, 9, 19, 21, 25, 27, 35, 36}, rounds: 9693, messages: 51131, words: 51131, wordsHash: 0xf16308bbde5cbf98},
		{name: "random-dir-det", g: graph.RandomConnected(graph.GenConfig{N: 36, Directed: true, Seed: 4, MaxWeight: 9}, 120), h: 3,
			par: Params{Mode: Deterministic},
			q:   []int{2, 3, 8, 11, 14, 15, 16, 18, 19, 22, 28, 29, 31}, rounds: 9685, messages: 44461, words: 44461, wordsHash: 0x2d4886ff0c0bcf7c},
		{name: "grid-det", g: graph.Grid(5, 8, graph.GenConfig{Seed: 5, MaxWeight: 9}), h: 4,
			par: Params{Mode: Deterministic},
			q:   []int{3, 4, 8, 11, 13, 18, 21, 23, 25, 35, 37}, rounds: 11550, messages: 46331, words: 46331, wordsHash: 0xa64194f5dd677fd0},
		{name: "layered-wide-eps", g: graph.Layered(7, 4, graph.GenConfig{Seed: 81, MaxWeight: 9}), h: 3,
			par: Params{Mode: Deterministic, Eps: 0.25, Delta: 0.45, UseFullSpace: true},
			q:   []int{0, 5, 6, 7, 12, 15, 16, 20, 21, 22}, rounds: 5806, messages: 21580, words: 21580, wordsHash: 0xd3d6c85204ddcf31},
		{name: "random-randomized", g: graph.RandomConnected(graph.GenConfig{N: 40, Seed: 6, MaxWeight: 9}, 140), h: 3,
			par: Params{Mode: Randomized, Seed: 5},
			q:   []int{1, 2, 4, 5, 10, 11, 15, 22, 25, 28, 30, 39}, rounds: 9511, messages: 42183, words: 42183, wordsHash: 0xceae8367998e490f},
	}
	for _, c := range pins {
		for _, parallel := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/parallel=%v", c.name, parallel), func(t *testing.T) {
				coll, nw := buildColl(t, c.g, c.h, bford.Out)
				nw.Parallel, nw.MinShardNodes = parallel, 1
				nw.ResetStats()
				res, err := Compute(nw, coll, c.par)
				if err != nil {
					t.Fatal(err)
				}
				if res.Stats.ReplayedSubRuns == 0 || res.Stats.SimulatedSubRuns == 0 {
					t.Errorf("replayed %d, simulated %d sub-runs: want both > 0", res.Stats.ReplayedSubRuns, res.Stats.SimulatedSubRuns)
				}
				if !reflect.DeepEqual(res.Q, c.q) {
					t.Errorf("Q = %v, want %v", res.Q, c.q)
				}
				if res.Stats.Rounds != c.rounds || nw.Stats.Rounds != c.rounds {
					t.Errorf("rounds = %d (network %d), want %d", res.Stats.Rounds, nw.Stats.Rounds, c.rounds)
				}
				if nw.Stats.Messages != c.messages || nw.Stats.Words != c.words {
					t.Errorf("messages/words = %d/%d, want %d/%d", nw.Stats.Messages, nw.Stats.Words, c.messages, c.words)
				}
				if h := wordsHash(nw.Stats.WordsByNode); h != c.wordsHash {
					t.Errorf("WordsByNode hash = %#x, want %#x", h, c.wordsHash)
				}
			})
		}
	}
}

// TestReplayScopedToOneCompute checks that the replay caches do not
// outlive a Compute. The first Compute runs with a hop bound most trees
// never reach, so their epochs stay at 0; the second, on the same network,
// builds trees of a smaller bound whose epochs also start at 0. A cache
// carried over would replay the old trees' empty counts. The result must
// equal the same Compute on a fresh network.
func TestReplayScopedToOneCompute(t *testing.T) {
	g := graph.RandomConnected(graph.GenConfig{N: 30, Directed: true, Seed: 8, MaxWeight: 9}, 60)
	type outcome struct {
		res   *Result
		stats congest.Stats
	}
	run := func(nw *congest.Network, h int) (outcome, *csssp.Collection) {
		sources := make([]int, g.N)
		for i := range sources {
			sources[i] = i
		}
		coll, err := csssp.Build(nw, g, sources, h, bford.Out)
		if err != nil {
			t.Fatal(err)
		}
		nw.ResetStats()
		res, err := Compute(nw, coll, Params{})
		if err != nil {
			t.Fatal(err)
		}
		return outcome{res, congest.Stats{Rounds: nw.Stats.Rounds, Messages: nw.Stats.Messages, Words: nw.Stats.Words,
			WordsByNode: append([]int64(nil), nw.Stats.WordsByNode...)}}, coll
	}
	fresh := func() *congest.Network {
		nw, err := congest.NewNetwork(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		return nw
	}
	warm := fresh()
	_, first := run(warm, 6)
	untouched := 0
	for i := range first.Sources {
		if first.RemovalEpoch(i) == 0 {
			untouched++
		}
	}
	if untouched == 0 {
		t.Fatal("every tree of the first Compute lost nodes; the case no longer tests cache scope")
	}
	got, _ := run(warm, 2)
	want, _ := run(fresh(), 2)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Compute after a Compute on other trees differs from a fresh one:\n  got  %+v\n  want %+v", got.res, want.res)
	}
}
