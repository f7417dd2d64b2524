package blocker

import (
	"fmt"
	"math"
	"sort"

	"congestapsp/internal/broadcast"
	"congestapsp/internal/congest"
	"congestapsp/internal/csssp"
)

// Mode selects the blocker-set construction algorithm.
type Mode int

const (
	// Deterministic is Algorithm 2' of the paper: the stage/phase selection
	// loop of Algorithm 2 with Steps 12-14 replaced by the derandomized
	// good-set search of Algorithm 7. O~(|S|*h) rounds (Corollary 3.13).
	Deterministic Mode = iota
	// Randomized is Algorithm 2 as written: good sets are drawn from the
	// pairwise-independent sample space and retried until good (Lemma 3.8:
	// success probability >= 1/8 per attempt).
	Randomized
	// Greedy is the baseline of Agarwal et al. [2]: repeatedly take the
	// node covering the most paths. O(|S|*h + n*|Q|) rounds.
	Greedy
	// RandomSample is the classic randomized baseline (Ullman-Yannakakis /
	// Huang et al. [13]): sample each node with probability ~ln(n)/h and
	// patch any uncovered path. O(|S|*h + n) rounds.
	RandomSample
)

// String names the mode as it appears in benchmark tables and logs.
func (m Mode) String() string {
	switch m {
	case Deterministic:
		return "deterministic"
	case Randomized:
		return "randomized"
	case Greedy:
		return "greedy"
	default:
		return "randomsample"
	}
}

// Params configures the construction. Zero values select the paper's
// defaults (eps = delta = 1/12, linear-size sample enumeration).
type Params struct {
	Mode Mode
	// Eps and Delta are the constants of Algorithm 2, both required to be
	// in (0, 1/12] by the analysis; the implementation accepts up to 1/2
	// for experimentation.
	Eps, Delta float64
	// SampleMult: the deterministic search enumerates SampleMult*n sample
	// points of the affine space (default 4), unless UseFullSpace is set.
	SampleMult int
	// UseFullSpace enumerates the entire 2^(2K)-point affine space
	// (exhaustive search; small n only).
	UseFullSpace bool
	// Seed drives the Randomized and RandomSample modes.
	Seed int64
	// MaxSelectionSteps caps the selection loop (safety net); 0 means
	// automatic (16n + 1024).
	MaxSelectionSteps int
}

func (p Params) withDefaults() Params {
	if p.Eps <= 0 || p.Eps > 0.5 {
		p.Eps = 1.0 / 12
	}
	if p.Delta <= 0 || p.Delta > 0.5 {
		p.Delta = 1.0 / 12
	}
	if p.SampleMult <= 0 {
		p.SampleMult = 4
	}
	return p
}

// Stats reports what the construction did; the benchmark harness turns
// these into the EXPERIMENTS.md series.
type Stats struct {
	SelectionSteps    int // iterations of the while loop (Steps 6-16)
	SingleSelections  int // Step 9/10 firings (one high-coverage node)
	GoodSetSelections int // Steps 11-14 / Algorithm 7 firings
	FallbackSteps     int // enumerated slice had no good point; single-best used
	RandomRetries     int // Randomized mode: re-drawn sets that were not good
	StagesVisited     int // stages with nonempty V_i
	PhasesVisited     int // phases entered within visited stages
	Rounds            int // CONGEST rounds consumed by the construction
	// GoodPoints / PointsScanned measure Lemma 3.8 empirically: across all
	// deterministic good-set searches, how many enumerated sample points
	// satisfied Definition 3.1 (the lemma predicts a >= 1/8 fraction over
	// the full pairwise-independent space).
	GoodPoints, PointsScanned int64
	// ReplayedSubRuns / SimulatedSubRuns split the per-tree score upcasts
	// and Compute-Pij downcasts into those charged from an identical
	// earlier run of the same tree (captured-charge replay, DESIGN.md §3)
	// and those simulated. Both are counters: the charged rounds, messages
	// and words do not depend on the split.
	ReplayedSubRuns, SimulatedSubRuns int
}

// Result is a computed blocker set.
type Result struct {
	Q     []int  // blocker node ids, ascending
	InQ   []bool // membership indicator
	Stats Stats
}

// Compute builds a blocker set for the full-length (depth-H) paths of coll.
// It consumes rounds on nw according to the selected algorithm.
func Compute(nw *congest.Network, coll *csssp.Collection, par Params) (*Result, error) {
	par = par.withDefaults()
	switch par.Mode {
	case Greedy:
		return computeGreedy(nw, coll)
	case RandomSample:
		return computeRandomSample(nw, coll, par)
	default:
		return computeSetCover(nw, coll, par)
	}
}

// stateKey keys the pooled set-cover state in the network's scratch
// registry: the selection loop runs per-tree protocol fleets and per-step
// broadcasts hundreds of times, so its working vectors — V_i indicators,
// upcast count matrices, per-leaf betas, broadcast item arenas — are pooled
// on the Network and resized (never reallocated) per Compute call.
type stateKey struct{}

// state carries the shared knowledge of the set-cover algorithm. Fields
// marked "global knowledge" are values that every node holds identical
// copies of after the corresponding broadcast; keeping one copy is the
// simulator's equivalent.
type state struct {
	nw   *congest.Network
	coll *csssp.Collection
	par  Params
	n, h int
	tree *broadcast.Tree // BFS tree rooted at the leader (node 0)

	// Ancestor CSR per tree (Step 1 of Algorithm 7): ancIds[i][ancOff[i][v]
	// : ancOff[i][v+1]] lists the proper ancestors of v in tree i, root
	// excluded, nearest-first. Removals only delete whole paths, so the
	// lists stay valid throughout one Compute.
	ancOff [][]int32
	ancIds [][]int32

	score    []int64 // global knowledge after broadcastScores
	inVi     []bool  // current V_i (derived locally from score)
	viSize   int
	viPrev   []bool    // V_i as of the last refreshBetas
	flipped  []int32   // nodes whose V_i membership changed since then
	leafBeta [][]int64 // leafBeta[i][v]: |V_i ∩ path(i,v)| for alive full-length leaves; global knowledge
	inQ      []bool
	q        []int
	stats    Stats

	// Pooled work buffers (see ensure/reinit).
	leafBetaBuf []int64            // flat backing of leafBeta
	counts      []int64            // trees x n scoreij upcast results
	countUsed   []bool             // per-tree: counts row was filled this pass
	pijLeafBuf  []bool             // flat backing of pijLeaf
	pijLeaf     [][]bool           // row views, rebuilt per ensure
	scoreij     []int64            // per-step coverage scores
	inZ         []bool             // commit scratch
	items       [][]broadcast.Item // per-node broadcast item spine
	itemBuf     []broadcast.Item   // flat arena carved into items
	nuBuf       []int64            // 2 x n x m good-set aggregation backing
	nuPi, nuPij [][]int64          // row views into nuBuf
	members     []int              // selected good-set members

	// Per-tree replay caches, scoped to one Compute (see treeCache), and
	// the pooled backing their storage is carved from (see carveCaches).
	trees    []treeCache
	bound    []int32 // per-tree storage bounds, carveCaches scratch
	mark     []bool  // carveCaches scratch
	scoreI32 []int32 // backing of up.nodes, up.counts, upCharge's senders
	scoreI64 []int64 // backing of upCharge's words
	downI32  []int32 // backing of dnCharge's senders
	downI64  []int64 // backing of dnCharge's words
}

// treeCache holds, for one tree, the last score upcast and Compute-Pij
// downcast: their results, their captured Stats charges, and the inputs
// they ran on. A run whose inputs are unchanged is charged from the cache
// instead of simulated (captured-charge replay, DESIGN.md §3):
//
//   - The score upcast reads only the tree's alive nodes (its alive leaves
//     start with 1), so it repeats exactly while the tree's RemovalEpoch
//     stays.
//   - The downcast reads the alive nodes and the V_i membership of the
//     non-root ones, so it repeats exactly while the epoch stays and no
//     node alive in the tree changed V_i membership.
//
// Message values never affect the charge (every message costs one word),
// and each slot is written only by its own tree's sub-run, so the caches
// are safe under ShardRuns. The scoreij upcasts are not replayed: their
// P_ij leaf set almost never repeats between selection steps, because
// consecutive steps rarely share a phase.
type treeCache struct {
	upValid  bool
	upEpoch  uint64
	up       sparseCounts // score upcast result
	upCharge congest.Charge
	upReplay bool // the last score upcast was replayed

	dnValid  bool
	dnEpoch  uint64
	dnCharge congest.Charge // the result is leafBeta's row
	dnReplay bool           // the last downcast was replayed
}

// sparseCounts is one tree's share of the score vector: the nonzero subtree
// counts of its non-root nodes, as a count upcast left them. A count is at
// most the number of leaves, so it fits an int32.
type sparseCounts struct {
	nodes  []int32
	counts []int32
}

// set keeps the nonzero non-root entries of the upcast result acc.
func (sc *sparseCounts) set(acc []int64, root int) {
	sc.nodes, sc.counts = sc.nodes[:0], sc.counts[:0]
	for v, c := range acc {
		if c != 0 && v != root {
			sc.nodes = append(sc.nodes, int32(v))
			sc.counts = append(sc.counts, int32(c))
		}
	}
}

// addTo adds the counts into score.
func (sc *sparseCounts) addTo(score []int64) {
	for k, v := range sc.nodes {
		score[v] += int64(sc.counts[k])
	}
}

// carveCaches carves every tree's cache storage from pooled backing, once
// per Compute. Each tree gets room for its possible senders, counted on the
// tree as reinit finds it: the alive non-root nodes for the score upcast
// (which also bounds its nonzero counts), and the alive nodes with an alive
// child for the downcast. Nothing removes a node before the first upcast
// and downcast (BuildBFS and Ancestors remove nothing, and the first commit
// follows the first refresh), and removals only shrink a tree within one
// Compute, so no result or capture outgrows its room, and a warm Compute
// allocates nothing for its caches.
func (st *state) carveCaches() {
	coll, n := st.coll, st.n
	up, down := 0, 0
	for i := range st.trees {
		root := coll.Sources[i]
		k, d := 0, 0
		clear(st.mark)
		for v := 0; v < n; v++ {
			if v != root && coll.InTree(i, v) {
				k++
				st.mark[coll.Parent[i][v]] = true
			}
		}
		for _, m := range st.mark {
			if m {
				d++
			}
		}
		st.bound[2*i], st.bound[2*i+1] = int32(k), int32(d)
		up += k
		down += d
	}
	st.scoreI32 = congest.Grow(st.scoreI32, 3*up)
	st.scoreI64 = congest.Grow(st.scoreI64, up)
	st.downI32 = congest.Grow(st.downI32, down)
	st.downI64 = congest.Grow(st.downI64, down)
	uo, do := 0, 0
	for i := range st.trees {
		tc, k, d := &st.trees[i], int(st.bound[2*i]), int(st.bound[2*i+1])
		b := st.scoreI32[3*uo : 3*(uo+k)]
		tc.up = sparseCounts{b[:0:k], b[k : k : 2*k]}
		tc.upCharge.Reserve(b[2*k:3*k:3*k], st.scoreI64[uo:uo+k:uo+k])
		tc.dnCharge.Reserve(st.downI32[do:do+d:do+d], st.downI64[do:do+d:do+d])
		uo += k
		do += d
	}
}

// reinit points the pooled state at a new (collection, params) pair and
// sizes every buffer, clearing the ones whose previous contents could leak
// into this run.
func (st *state) reinit(nw *congest.Network, coll *csssp.Collection, par Params) {
	st.nw, st.coll, st.par = nw, coll, par
	st.n, st.h = nw.N(), coll.H
	st.tree = nil
	st.stats = Stats{}
	n, trees := st.n, coll.NumTrees()

	st.score = congest.Grow(st.score, n)
	st.inVi = congest.Grow(st.inVi, n)
	st.inQ = congest.Grow(st.inQ, n)
	st.scoreij = congest.Grow(st.scoreij, n)
	st.inZ = congest.Grow(st.inZ, n)
	st.viPrev = congest.Grow(st.viPrev, n)
	st.q = st.q[:0]

	if cap(st.trees) < trees {
		st.trees = append(st.trees[:cap(st.trees)], make([]treeCache, trees-cap(st.trees))...)
	}
	st.trees = st.trees[:trees]
	for i := range st.trees {
		st.trees[i].upValid, st.trees[i].dnValid = false, false
	}
	st.bound = congest.Grow(st.bound, 2*trees)
	st.mark = congest.Grow(st.mark, n)
	st.counts = congest.Grow(st.counts, trees*n)
	st.countUsed = congest.Grow(st.countUsed, trees)
	st.leafBetaBuf = congest.Grow(st.leafBetaBuf, trees*n)
	st.pijLeafBuf = congest.Grow(st.pijLeafBuf, trees*n)
	if cap(st.leafBeta) < trees {
		st.leafBeta = make([][]int64, trees)
		st.pijLeaf = make([][]bool, trees)
	}
	st.leafBeta = st.leafBeta[:trees]
	st.pijLeaf = st.pijLeaf[:trees]
	for i := 0; i < trees; i++ {
		st.leafBeta[i] = st.leafBetaBuf[i*n : (i+1)*n : (i+1)*n]
		st.pijLeaf[i] = st.pijLeafBuf[i*n : (i+1)*n : (i+1)*n]
	}
	if cap(st.ancOff) < trees {
		st.ancOff = make([][]int32, trees)
		st.ancIds = make([][]int32, trees)
	}
	st.ancOff = st.ancOff[:trees]
	st.ancIds = st.ancIds[:trees]
	if cap(st.items) < n {
		st.items = make([][]broadcast.Item, n)
	}
	st.items = st.items[:n]
	st.carveCaches()
}

// countsRow returns row i of the pooled trees x n scoreij matrix.
func (st *state) countsRow(i int) []int64 {
	return st.counts[i*st.n : (i+1)*st.n : (i+1)*st.n]
}

// ancRow returns the proper ancestors of v in tree i (root excluded,
// nearest-first).
func (st *state) ancRow(i, v int) []int32 {
	off := st.ancOff[i]
	return st.ancIds[i][off[v]:off[v+1]]
}

// singleItems populates the pooled per-node item lists with at most one
// item per node: fill returns the item for v and whether v contributes.
// The returned spine is valid until the next items-buffer use.
func (st *state) singleItems(fill func(v int) (broadcast.Item, bool)) [][]broadcast.Item {
	n := st.n
	if cap(st.itemBuf) < n {
		st.itemBuf = make([]broadcast.Item, n)
	}
	buf := st.itemBuf[:n]
	for v := 0; v < n; v++ {
		if it, ok := fill(v); ok {
			buf[v] = it
			st.items[v] = buf[v : v+1 : v+1]
		} else {
			st.items[v] = nil
		}
	}
	return st.items
}

func computeSetCover(nw *congest.Network, coll *csssp.Collection, par Params) (*Result, error) {
	st := congest.ScratchState(nw.Scratch(), stateKey{}, func() *state { return new(state) })
	st.reinit(nw, coll, par)
	n := st.n
	maxSteps := par.MaxSelectionSteps
	if maxSteps == 0 {
		maxSteps = 16*n + 1024
	}

	roundsBefore := nw.Stats.Rounds
	var err error
	st.tree, err = broadcast.BuildBFS(nw, 0)
	if err != nil {
		return nil, err
	}
	// Step 1 of Algorithm 7: every node collects the ids on each of its
	// tree paths (pipelined Ancestors of [2]; O(|S|*h) rounds). Removals
	// only delete whole paths, so the lists stay valid throughout. The
	// per-tree protocols are independent and dispatch across the
	// work-stealing worker clones (each index owns st.ancOff[i]/ancIds[i]).
	err = nw.ShardRuns(coll.NumTrees(), func(w *congest.Network, i int) error {
		off, ids, err := collectAncestors(w, coll, i)
		if err != nil {
			return err
		}
		st.ancOff[i], st.ancIds[i] = off, ids
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Step 1 of Algorithm 2: compute score(v) ([2], O(|S|*h) rounds), then
	// broadcast all scores so V_i construction is local at every stage
	// (one all-to-all replaces the per-stage id broadcast of Lemma 3.2).
	if err := st.recomputeScores(); err != nil {
		return nil, err
	}

	onePlusEps := 1 + st.par.Eps
	maxStage := int(math.Ceil(math.Log(float64(n)*float64(n))/math.Log(onePlusEps))) + 1
	maxPhase := int(math.Ceil(math.Log(float64(st.h))/math.Log(onePlusEps))) + 1
	if maxPhase < 1 {
		maxPhase = 1
	}

	for i := maxStage; i >= 1; i-- {
		stageLo := math.Pow(onePlusEps, float64(i-1))
		stageHi := math.Pow(onePlusEps, float64(i))
		if !st.rebuildVi(stageLo) {
			continue // V_i empty: known locally from the score broadcast
		}
		st.stats.StagesVisited++
		needRefresh := true
		for j := maxPhase; j >= 1; j-- {
			phaseLo := math.Pow(onePlusEps, float64(j-1))
			st.stats.PhasesVisited++
			for {
				if st.stats.SelectionSteps > maxSteps {
					return nil, fmt.Errorf("blocker: selection steps exceeded safety cap %d", maxSteps)
				}
				if needRefresh {
					// Steps 3-4 / 7(a): Compute-Pi/Pij downcasts per tree,
					// then one all-to-all of per-leaf beta values so that
					// every node can evaluate |P_ij| for every j locally
					// (Algorithm 5).
					if err := st.refreshBetas(); err != nil {
						return nil, err
					}
					needRefresh = false
				}
				pijLeaf, pijSize := st.pijLeaves(phaseLo)
				if pijSize == 0 {
					break // phase done
				}
				st.stats.SelectionSteps++
				// Step 8: scoreij via per-tree upcasts + broadcast.
				scoreij, err := st.computeScoreij(pijLeaf)
				if err != nil {
					return nil, err
				}
				// Step 9: a single node covering > delta^3/(1+eps) of P_ij?
				thr := st.par.Delta * st.par.Delta * st.par.Delta / onePlusEps * float64(pijSize)
				best, bestVal := -1, int64(0)
				// v ascends, so the strict > keeps the lowest id on ties.
				for v := 0; v < n; v++ {
					if st.inVi[v] && scoreij[v] > bestVal {
						best, bestVal = v, scoreij[v]
					}
				}
				var chosen []int
				if best >= 0 && float64(bestVal) > thr {
					st.members = append(st.members[:0], best) // Step 10
					chosen = st.members
					st.stats.SingleSelections++
				} else {
					chosen, err = st.selectGoodSet(i, j, stageHi, pijLeaf, pijSize, scoreij, best)
					if err != nil {
						return nil, err
					}
				}
				if err := st.commit(chosen); err != nil {
					return nil, err
				}
				st.rebuildVi(stageLo)
				needRefresh = true
			}
		}
	}
	// Sanity: the set-cover loop must have covered everything (Lemma A.7).
	if remaining := countFullPaths(coll); remaining != 0 {
		return nil, fmt.Errorf("blocker: %d full-length paths remain uncovered", remaining)
	}
	st.stats.Rounds = nw.Stats.Rounds - roundsBefore
	sort.Ints(st.q)
	// Copy the set out of the pooled state: the caller retains Q/InQ for
	// the rest of the pipeline while this state gets reused.
	return &Result{
		Q:     append([]int(nil), st.q...),
		InQ:   append([]bool(nil), st.inQ...),
		Stats: st.stats,
	}, nil
}

// rebuildVi recomputes V_i = {v : score(v) >= lo} locally (scores are
// global knowledge). It reports whether V_i is nonempty.
func (st *state) rebuildVi(lo float64) bool {
	st.viSize = 0
	for v := 0; v < st.n; v++ {
		if float64(st.score[v]) >= lo {
			st.inVi[v] = true
			st.viSize++
		} else {
			st.inVi[v] = false
		}
	}
	return st.viSize > 0
}

// recomputeScores runs the per-tree subtree-count upcasts ([2]'s score
// algorithm; O(|S|*h) rounds) and broadcasts all scores (O(n)). The
// upcasts are independent per-tree protocols: they source-shard across
// worker clones, each keeping its tree's counts in its own cache slot, and
// the score accumulation happens afterwards (int64 sums are exact, so the
// result is bit-identical to the sequential loop). A tree no removal
// touched since its last upcast is replayed from its cache slot.
func (st *state) recomputeScores() error {
	n, coll := st.n, st.coll
	err := st.nw.ShardRuns(coll.NumTrees(), func(w *congest.Network, i int) error {
		tc := &st.trees[i]
		epoch := coll.RemovalEpoch(i)
		tc.upReplay = tc.upValid && tc.upEpoch == epoch
		if tc.upReplay {
			w.Replay(&tc.upCharge)
			return nil
		}
		tc.upValid = false
		sc := w.Scratch()
		init, acc := sc.Int64s(n), sc.Int64s(n)
		for _, v := range coll.HLeaves(i) {
			if !coll.Removed[i][v] {
				init[v] = 1
			}
		}
		w.StartCapture()
		if err := coll.UpcastSumInto(w, i, init, acc); err != nil {
			return err
		}
		w.EndCapture(&tc.upCharge)
		tc.up.set(acc, coll.Sources[i])
		tc.upValid, tc.upEpoch = true, epoch
		return nil
	})
	if err != nil {
		return err
	}
	score := st.score
	clear(score)
	for i := range st.trees {
		tc := &st.trees[i]
		st.countReplay(tc.upReplay)
		tc.up.addTo(score)
	}
	// All-to-all broadcast of (id, score) items: O(n) rounds (Lemma A.2).
	perNode := st.singleItems(func(v int) (broadcast.Item, bool) {
		return broadcast.Item{A: int64(v), B: score[v]}, score[v] > 0
	})
	if _, err := broadcast.AllToAll(st.nw, st.tree, perNode); err != nil {
		return err
	}
	return nil
}

// countReplay tallies one replay-eligible sub-run in the stats.
func (st *state) countReplay(replayed bool) {
	if replayed {
		st.stats.ReplayedSubRuns++
	} else {
		st.stats.SimulatedSubRuns++
	}
}

// refreshBetas recomputes leafBeta (the |V_i ∩ path| counts) with the
// Compute-Pij downcast per tree, then shares the per-leaf values by one
// all-to-all broadcast so every node can evaluate any |P_ij| locally.
func (st *state) refreshBetas() error {
	// The nodes whose V_i membership changed since the last refresh: a
	// tree is replayed only if none of them is alive in it.
	st.flipped = st.flipped[:0]
	for v := 0; v < st.n; v++ {
		if st.inVi[v] != st.viPrev[v] {
			st.flipped = append(st.flipped, int32(v))
		}
	}
	copy(st.viPrev, st.inVi)
	// Per-tree downcasts, source-sharded (index i owns leafBeta[i]); the
	// broadcast item lists are then assembled sequentially in tree order so
	// each leaf's item sequence matches the sequential schedule exactly.
	err := st.nw.ShardRuns(st.coll.NumTrees(), func(w *congest.Network, i int) error {
		tc := &st.trees[i]
		epoch := st.coll.RemovalEpoch(i)
		tc.dnReplay = tc.dnValid && tc.dnEpoch == epoch && !st.viChangedIn(i)
		if tc.dnReplay {
			w.Replay(&tc.dnCharge)
			return nil
		}
		tc.dnValid = false
		beta := w.Scratch().Int64s(st.n)
		w.StartCapture()
		if err := computePijDowncastInto(w, st.coll, i, st.inVi, beta); err != nil {
			return err
		}
		w.EndCapture(&tc.dnCharge)
		lb := st.leafBeta[i]
		clear(lb)
		for _, v := range st.coll.HLeaves(i) {
			if !st.coll.Removed[i][v] {
				lb[v] = beta[v]
			}
		}
		tc.dnValid, tc.dnEpoch = true, epoch
		return nil
	})
	if err != nil {
		return err
	}
	for i := range st.trees {
		st.countReplay(st.trees[i].dnReplay)
	}
	// Per-leaf betas: at most one item per (leaf, tree) pair with a V_i
	// node; the all-to-all is O(n + K) rounds for K items (Lemma A.2).
	// Count, carve from the pooled arena, then fill in tree order (the
	// per-leaf item sequence matches the sequential append schedule).
	cnt := st.scoreij // borrow: rewritten by the next computeScoreij anyway
	clear(cnt)
	total := 0
	for i := range st.coll.Sources {
		for _, v := range st.coll.HLeaves(i) {
			if st.leafBeta[i][v] > 0 {
				cnt[v]++
				total++
			}
		}
	}
	if cap(st.itemBuf) < total {
		st.itemBuf = make([]broadcast.Item, total)
	}
	buf := st.itemBuf[:total]
	off := 0
	for v := 0; v < st.n; v++ {
		if cnt[v] > 0 {
			end := off + int(cnt[v])
			st.items[v] = buf[off:off:end]
			off = end
		} else {
			st.items[v] = nil
		}
	}
	for i := range st.coll.Sources {
		for _, v := range st.coll.HLeaves(i) {
			if b := st.leafBeta[i][v]; b > 0 {
				st.items[v] = append(st.items[v], broadcast.Item{A: int64(v), B: int64(i), C: b})
			}
		}
	}
	if _, err := broadcast.AllToAll(st.nw, st.tree, st.items); err != nil {
		return err
	}
	return nil
}

// viChangedIn reports whether a node alive in tree i, other than its root
// (whose membership the downcast never reads), changed V_i membership since
// the last refresh.
func (st *state) viChangedIn(i int) bool {
	root := st.coll.Sources[i]
	for _, v := range st.flipped {
		if int(v) != root && st.coll.InTree(i, int(v)) {
			return true
		}
	}
	return false
}

// pijLeaves returns the indicator of alive full-length paths with at least
// phaseLo V_i-nodes, keyed (tree, leaf), plus their count. The rows are
// pooled and valid until the next pijLeaves call.
func (st *state) pijLeaves(phaseLo float64) ([][]bool, int) {
	clear(st.pijLeafBuf)
	size := 0
	for i := range st.coll.Sources {
		row := st.pijLeaf[i]
		for _, v := range st.coll.HLeaves(i) {
			if !st.coll.Removed[i][v] && float64(st.leafBeta[i][v]) >= phaseLo {
				row[v] = true
				size++
			}
		}
	}
	return st.pijLeaf, size
}

// computeScoreij computes scoreij(v) = #paths of P_ij containing v via one
// upcast per tree (a result from [2], Step 8 of Algorithm 2), then
// broadcasts the values (O(n)). The returned vector is pooled (valid until
// the next computeScoreij call).
func (st *state) computeScoreij(pijLeaf [][]bool) ([]int64, error) {
	// Same sharding shape as recomputeScores: independent per-tree upcasts
	// into per-tree rows, accumulated in tree order afterwards. Trees with
	// no P_ij leaf skip their upcast (and its round charge) exactly as the
	// sequential loop did.
	n := st.n
	err := st.nw.ShardRuns(st.coll.NumTrees(), func(w *congest.Network, i int) error {
		any := false
		init := w.Scratch().Int64s(n)
		for _, v := range st.coll.HLeaves(i) {
			if pijLeaf[i][v] {
				init[v] = 1
				any = true
			}
		}
		st.countUsed[i] = any
		if !any {
			return nil
		}
		return st.coll.UpcastSumInto(w, i, init, st.countsRow(i))
	})
	if err != nil {
		return nil, err
	}
	scoreij := st.scoreij
	clear(scoreij)
	for i := range st.coll.Sources {
		if !st.countUsed[i] {
			continue
		}
		root := st.coll.Sources[i]
		counts := st.countsRow(i)
		for v := 0; v < n; v++ {
			if v != root && st.coll.InTree(i, v) {
				scoreij[v] += counts[v]
			}
		}
	}
	perNode := st.singleItems(func(v int) (broadcast.Item, bool) {
		return broadcast.Item{A: int64(v), B: scoreij[v]}, scoreij[v] > 0
	})
	if _, err := broadcast.AllToAll(st.nw, st.tree, perNode); err != nil {
		return nil, err
	}
	return scoreij, nil
}

// commit adds the chosen nodes to Q, removes the subtrees they root
// (Step 15, Algorithm 6), and recomputes scores (Step 16).
func (st *state) commit(chosen []int) error {
	if len(chosen) == 0 {
		return fmt.Errorf("blocker: empty selection committed")
	}
	clear(st.inZ)
	for _, v := range chosen {
		if !st.inQ[v] {
			st.inQ[v] = true
			st.q = append(st.q, v)
		}
		st.inZ[v] = true
	}
	if err := st.coll.RemoveSubtrees(st.nw, st.inZ, true); err != nil {
		return err
	}
	return st.recomputeScores()
}

// countFullPaths counts the alive full-length paths of the collection.
func countFullPaths(coll *csssp.Collection) int {
	total := 0
	for i := range coll.Sources {
		for _, v := range coll.HLeaves(i) {
			if !coll.Removed[i][v] {
				total++
			}
		}
	}
	return total
}

// Verify checks that q hits every full-length root-to-leaf path of a
// (freshly built, unremoved) collection; used by tests and by the
// RandomSample patch-up. Root nodes do not count as coverage (hyperedges
// exclude the root).
func Verify(coll *csssp.Collection, inQ []bool) error {
	for i := range coll.Sources {
		for _, leaf := range coll.FullLengthLeaves(i) {
			pv := coll.PathVertices(i, leaf)
			covered := false
			for _, u := range pv {
				if inQ[u] {
					covered = true
					break
				}
			}
			if !covered {
				return fmt.Errorf("blocker: path (tree %d, leaf %d) uncovered", i, leaf)
			}
		}
	}
	return nil
}
