package congest

// This file implements captured-charge replay (DESIGN.md §3): a caller that
// knows a protocol execution would repeat an earlier one exactly — same
// protocol, same inputs, same network — charges the earlier execution's
// captured Stats instead of simulating it again.

// Charge is the Stats contribution of one protocol execution. The per-node
// word vector is kept sparse: only the senders the execution charged.
type Charge struct {
	Rounds   int
	Messages int64
	Words    int64

	nodes     []int32 // senders charged, ascending
	nodeWords []int64 // words charged to nodes[k]
}

// Reserve gives c storage for the senders of later captures: EndCapture
// fills nodes and words while they have room, so a caller that knows a
// bound on the senders can carve the storage from a pooled arena.
func (c *Charge) Reserve(nodes []int32, words []int64) {
	c.nodes, c.nodeWords = nodes[:0], words[:0]
}

// StartCapture marks nw's current Stats; the next EndCapture records what
// was charged in between. Captures do not nest, and a capture belongs to the
// network it was started on (a ShardRuns sub-run captures on the network it
// executes on).
func (nw *Network) StartCapture() { nw.capture.save(&nw.Stats) }

// EndCapture stores in c the Stats charged on nw since StartCapture,
// reusing c's storage (see Reserve).
func (nw *Network) EndCapture(c *Charge) {
	s, base := &nw.Stats, &nw.capture
	c.Rounds = s.Rounds - base.rounds
	c.Messages = s.Messages - base.messages
	c.Words = s.Words - base.words
	c.nodes, c.nodeWords = c.nodes[:0], c.nodeWords[:0]
	for v, w := range s.WordsByNode {
		if d := w - base.wordsByNode[v]; d != 0 {
			c.nodes = append(c.nodes, int32(v))
			c.nodeWords = append(c.nodeWords, d)
		}
	}
}

// Replay adds c to nw.Stats: exactly what simulating the captured execution
// again would charge. Nothing is simulated, so neither OnRound nor the fault
// injector's FireRound fires.
func (nw *Network) Replay(c *Charge) {
	s := &nw.Stats
	s.Rounds += c.Rounds
	s.Messages += c.Messages
	s.Words += c.Words
	for k, v := range c.nodes {
		s.WordsByNode[v] += c.nodeWords[k]
	}
}
