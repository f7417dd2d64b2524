package broadcast

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"congestapsp/internal/congest"
	"congestapsp/internal/graph"
)

// kindFlood tags the reference flood's messages.
const kindFlood uint8 = 100

// floodProto is the pipelined flood that Broadcast charges in closed form,
// kept as the reference its charge is checked against: every node forwards
// each item to each child the round it arrives, at most Bandwidth items per
// link per round.
type floodProto struct {
	nw    *congest.Network
	t     *Tree
	items []Item
	recvd [][]Item
	fwd   []int
}

// Step implements congest.Proto.
func (p *floodProto) Step(v, round int, in []congest.Message, send func(congest.Message)) bool {
	t := p.t
	for _, m := range in {
		if m.Kind == kindFlood {
			p.recvd[v] = append(p.recvd[v], Item{m.A, m.B, m.C})
		}
	}
	src := p.recvd[v]
	if v == t.Root {
		src = p.items
	}
	for b := p.nw.Bandwidth; b > 0 && p.fwd[v] < len(src); b-- {
		it := src[p.fwd[v]]
		p.fwd[v]++
		for _, c := range t.Children[v] {
			send(congest.Message{To: c, Kind: kindFlood, A: it.A, B: it.B, C: it.C})
		}
	}
	return p.fwd[v] >= len(p.items) && (v == t.Root || len(p.recvd[v]) >= len(p.items))
}

// simulateFlood runs the reference flood on nw and returns, in canonical
// order, the items every node holds afterwards (an error if two nodes
// disagree).
func simulateFlood(nw *congest.Network, t *Tree, items []Item) ([]Item, error) {
	n := nw.N()
	p := &floodProto{nw: nw, t: t, items: items, recvd: make([][]Item, n), fwd: make([]int, n)}
	if _, err := nw.Run(p, t.Height+len(items)+4+n); err != nil {
		return nil, err
	}
	p.recvd[t.Root] = items
	for v := range p.recvd {
		if !slices.Equal(p.recvd[v], items) {
			return nil, fmt.Errorf("node %d holds %v, root sent %v", v, p.recvd[v], items)
		}
	}
	out := slices.Clone(items)
	sortItems(out)
	return out, nil
}

// floodItems returns k distinct items in non-canonical order.
func floodItems(k int) []Item {
	items := make([]Item, k)
	for i := range items {
		items[i] = Item{A: int64((i * 7) % (k + 3)), B: int64(k - i), C: int64(i)}
	}
	return items
}

func cloneStats(s congest.Stats) congest.Stats {
	s.WordsByNode = slices.Clone(s.WordsByNode)
	return s
}

// TestBroadcastChargeMatchesSimulation checks Broadcast's closed-form charge
// against the simulated flood: the same items and the same full Stats
// (rounds, messages, words and every WordsByNode entry) on BFS trees of
// several graph families, two roots each, for k around the bandwidth.
func TestBroadcastChargeMatchesSimulation(t *testing.T) {
	cfg := func(n int, directed bool) graph.GenConfig {
		return graph.GenConfig{N: n, Directed: directed, Seed: 11, MaxWeight: 5}
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"single", graph.New(1, false)},
		{"random", graph.RandomConnected(cfg(40, false), 90)},
		{"random-directed", graph.RandomConnected(cfg(40, true), 120)},
		{"ring", graph.Ring(cfg(13, false))},
		{"star", graph.Star(cfg(15, true))},
		{"grid", graph.Grid(4, 5, cfg(0, false))},
		{"layered", graph.Layered(5, 3, cfg(0, true))},
	}
	for _, gc := range graphs {
		for _, root := range []int{0, gc.g.N / 2} {
			for bw := 1; bw <= 3; bw++ {
				nw := newNet(t, gc.g, bw)
				tr, err := BuildBFS(nw, root)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{0, 1, bw - 1, bw, bw + 1, 100} {
					name := fmt.Sprintf("%s/root=%d/bw=%d/k=%d", gc.name, root, bw, k)
					items := floodItems(k)
					nw.ResetStats()
					want, err := simulateFlood(nw, tr, items)
					if err != nil {
						t.Fatalf("%s: simulation: %v", name, err)
					}
					wantStats := cloneStats(nw.Stats)
					nw.ResetStats()
					got, err := Broadcast(nw, tr, items)
					if err != nil {
						t.Fatalf("%s: charge: %v", name, err)
					}
					if !slices.Equal(got, want) {
						t.Errorf("%s: items %v, simulation %v", name, got, want)
					}
					if !reflect.DeepEqual(nw.Stats, wantStats) {
						t.Errorf("%s: stats %+v, simulation %+v", name, nw.Stats, wantStats)
					}
				}
			}
		}
	}
}

// TestBroadcastStaleTree drops tree edges from the graph and re-syncs the
// topology: with items to send, the charge must report the same
// *congest.ErrNotALink as the simulated flood; an empty flood sends nothing
// and succeeds on both paths.
func TestBroadcastStaleTree(t *testing.T) {
	g := graph.Grid(4, 5, graph.GenConfig{Seed: 3, MaxWeight: 4})
	nw := newNet(t, g, 2)
	tr, err := BuildBFS(nw, g.N-1)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the edge above the deepest node (0, under parent 1) and the
	// edges above nodes 9 and 13 (depth 2, both under parent 14): the flood
	// meets the shallower ones first, although their parent has the larger
	// id, and sends to 9 before 13.
	for _, v := range []int{0, 9, 13} {
		if err := g.RemoveEdge(g.FindEdge(tr.Parent[v], v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := nw.SyncTopology(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 1, 5} {
		items := floodItems(k)
		_, simErr := simulateFlood(nw, tr, items)
		_, chargeErr := Broadcast(nw, tr, items)
		if k == 0 {
			if simErr != nil || chargeErr != nil {
				t.Errorf("k=0: simulation %v, charge %v; want both nil", simErr, chargeErr)
			}
			continue
		}
		var simLink, chargeLink *congest.ErrNotALink
		if !errors.As(simErr, &simLink) || !errors.As(chargeErr, &chargeLink) {
			t.Fatalf("k=%d: simulation %v, charge %v; want *congest.ErrNotALink from both", k, simErr, chargeErr)
		}
		if *simLink != *chargeLink {
			t.Errorf("k=%d: charge reports %+v, simulation %+v", k, *chargeLink, *simLink)
		}
	}
}

// TestBroadcastCancelledContext: an armed, cancelled context fails the
// flood at entry and charges nothing, like the engine's round-0 check.
func TestBroadcastCancelledContext(t *testing.T) {
	g := graph.Ring(graph.GenConfig{N: 6, Seed: 2, MaxWeight: 3})
	nw := newNet(t, g, 1)
	tr, err := BuildBFS(nw, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	nw.SetContext(ctx)
	before := cloneStats(nw.Stats)
	for _, k := range []int{0, 3} {
		if _, err := Broadcast(nw, tr, floodItems(k)); !errors.Is(err, context.Canceled) {
			t.Errorf("k=%d: err = %v, want context.Canceled", k, err)
		}
	}
	if !reflect.DeepEqual(nw.Stats, before) {
		t.Errorf("cancelled flood charged %+v (before %+v)", nw.Stats, before)
	}
}

// roundCounter counts the engine's fault-injection round hooks.
type roundCounter struct{ rounds int }

func (c *roundCounter) FireRound(subrun, round int) error { c.rounds++; return nil }
func (c *roundCounter) FireSubRun(subrun int) error       { return nil }
func (c *roundCounter) SetStage(stage string)             {}

// TestBroadcastFiresNoRoundHooks: the charged flood simulates no round, so
// neither OnRound nor FireRound fires.
func TestBroadcastFiresNoRoundHooks(t *testing.T) {
	g := graph.Ring(graph.GenConfig{N: 6, Seed: 2, MaxWeight: 3})
	nw := newNet(t, g, 1)
	tr, err := BuildBFS(nw, 0)
	if err != nil {
		t.Fatal(err)
	}
	onRound := 0
	nw.OnRound = func(int, int) { onRound++ }
	fi := &roundCounter{}
	nw.SetFaultInjector(fi)
	for _, k := range []int{0, 4} {
		if _, err := Broadcast(nw, tr, floodItems(k)); err != nil {
			t.Fatal(err)
		}
	}
	if onRound != 0 || fi.rounds != 0 {
		t.Errorf("OnRound fired %d times, FireRound %d times; want 0", onRound, fi.rounds)
	}
}
