package main

import (
	"fmt"

	"congestapsp/internal/graph"
	"congestapsp/pkg/apsp"
)

// oracle answers single-source shortest paths with the repository's
// sequential reference, graph.Dijkstra, on a host-side copy of the graph.
// It is what every checked answer is compared against; it shares no code
// with the simulated pipeline.
type oracle struct {
	g *graph.Graph
	w map[[2]int]int64 // lightest edge weight per ordered endpoint pair
}

// hostGraph copies g into the graph package's representation, edge by
// edge in g's order.
func hostGraph(g *apsp.Graph) (*graph.Graph, error) {
	ig := graph.New(g.N(), g.Directed())
	var err error
	g.Edges(func(u, v int, w int64) {
		if e := ig.AddEdge(u, v, w); e != nil && err == nil {
			err = e
		}
	})
	return ig, err
}

func newOracle(g *apsp.Graph) (*oracle, error) {
	ig, err := hostGraph(g)
	if err != nil {
		return nil, err
	}
	o := &oracle{g: ig, w: make(map[[2]int]int64)}
	add := func(u, v int, w int64) {
		if old, ok := o.w[[2]int{u, v}]; !ok || w < old {
			o.w[[2]int{u, v}] = w
		}
	}
	for _, e := range ig.Edges() {
		add(e.U, e.V, e.W)
		if !ig.Directed {
			add(e.V, e.U, e.W)
		}
	}
	return o, nil
}

// row returns the exact distances from src (apsp.Inf when unreachable).
func (o *oracle) row(src int) []int64 { return graph.Dijkstra(o.g, src) }

// checkPath reports whether path is a walk from x to t over existing edges
// whose weight sums to want.
func (o *oracle) checkPath(path []int, x, t int, want int64) error {
	if want >= apsp.Inf {
		if path != nil {
			return fmt.Errorf("path %d->%d returned for an unreachable pair", x, t)
		}
		return nil
	}
	if len(path) == 0 || path[0] != x || path[len(path)-1] != t {
		return fmt.Errorf("path %d->%d has wrong endpoints: %v", x, t, path)
	}
	var sum int64
	for i := 1; i < len(path); i++ {
		w, ok := o.w[[2]int{path[i-1], path[i]}]
		if !ok {
			return fmt.Errorf("path %d->%d uses a non-edge %d->%d", x, t, path[i-1], path[i])
		}
		sum += w
	}
	if sum != want {
		return fmt.Errorf("path %d->%d weighs %d, distance is %d", x, t, sum, want)
	}
	return nil
}

// checkRows compares the rows of dist for the sampled sources against the
// oracle rows computed for them, naming the first mismatch.
func checkRows(dist [][]int64, sources []int, want [][]int64) error {
	for i, s := range sources {
		if s >= len(dist) || len(dist[s]) != len(want[i]) {
			return fmt.Errorf("distance row %d missing or of the wrong length", s)
		}
		for t, d := range dist[s] {
			if d != want[i][t] {
				return fmt.Errorf("dist[%d][%d] = %d, oracle says %d", s, t, d, want[i][t])
			}
		}
	}
	return nil
}
