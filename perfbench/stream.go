package main

import (
	"math/rand"

	"congestapsp/pkg/apsp"
)

// newRand derives an independent deterministic generator from the run seed
// and a stream label, so every stream is a pure function of the seed.
func newRand(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// updateEvery sets the share of serve requests that are single-edge
// weight updates: exactly one in each block of updateEvery requests of a
// client, at a seeded position in the block; the rest are 4-pair queries.
// A fixed share (rather than a coin per request) keeps the number of
// updates, and so of result-cache invalidations, the same in every run.
const updateEvery = 10

// pairsPerQuery is the number of (source, target) pairs in one query.
const pairsPerQuery = 4

// op is one client request of the serve workload.
type op struct {
	graph  int // index of the served graph it addresses
	update bool
	pairs  [pairsPerQuery][2]int // query
	u, v   int                   // update: edge endpoints
	w      int64                 // update: new weight
}

// edgeKey is an edge's endpoints, lower id first on undirected graphs.
type edgeKey struct{ u, v int }

// updateEdges lists the graph's distinct endpoint pairs in edge order and
// deals them round-robin to the clients, so no two clients ever update the
// same edge: updates coalesced into one batch then commute, and the graph
// at any version is fixed by which updates it includes, not their order.
func updateEdges(g *apsp.Graph, clients int) [][]edgeKey {
	seen := make(map[edgeKey]bool)
	out := make([][]edgeKey, clients)
	i := 0
	g.Edges(func(u, v int, _ int64) {
		k := edgeKey{u, v}
		if !g.Directed() && u > v {
			k = edgeKey{v, u}
		}
		if seen[k] {
			return
		}
		seen[k] = true
		out[i%clients] = append(out[i%clients], k)
		i++
	})
	return out
}

// opStream is one client's request sequence: a pure function of (seed,
// client, graphs). A query addresses a uniformly drawn graph; updates take
// the graphs in turn, starting at the client's index, so every graph gets
// the same share of them.
type opStream struct {
	rng     *rand.Rand
	n       int
	edges   [][]edgeKey // per graph, this client's share of its edges
	i       int         // requests drawn so far
	at      int         // position of the update in the current block
	updates int         // updates drawn so far, plus the client's index
}

func newOpStream(seed int64, client, n int, edges [][]edgeKey) *opStream {
	return &opStream{rng: newRand(seed, int64(100+client)), n: n, edges: edges, updates: client}
}

func (s *opStream) next() op {
	if s.i%updateEvery == 0 {
		s.at = s.rng.Intn(updateEvery)
	}
	var o op
	o.update = s.i%updateEvery == s.at
	s.i++
	if o.update {
		o.graph = s.updates % len(s.edges)
		s.updates++
		es := s.edges[o.graph]
		e := es[s.rng.Intn(len(es))]
		o.u, o.v, o.w = e.u, e.v, int64(1+s.rng.Intn(50))
		return o
	}
	o.graph = s.rng.Intn(len(s.edges))
	for i := range o.pairs {
		o.pairs[i] = [2]int{s.rng.Intn(s.n), s.rng.Intn(s.n)}
	}
	return o
}
