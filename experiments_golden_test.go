package bench

import (
	"encoding/json"
	"os"
	"testing"

	"congestapsp/pkg/apsp"
)

// goldenRow is the distributed part of one committed EXPERIMENTS.json row:
// the columns the simulated schedule fixes. Wall-clock and allocation
// columns are host cost and are not compared.
type goldenRow struct {
	Scenario          string        `json:"scenario"`
	N                 int           `json:"n"`
	Algorithm         string        `json:"algorithm"`
	Exec              string        `json:"exec"`
	H                 int           `json:"h"`
	BlockerSetSize    int           `json:"blocker_set_size"`
	Rounds            int           `json:"rounds"`
	Messages          int64         `json:"messages"`
	Words             int64         `json:"words"`
	MaxNodeCongestion int64         `json:"max_node_congestion"`
	Stages            []goldenStage `json:"stages"`
}

type goldenStage struct {
	Name   string `json:"name"`
	Rounds int    `json:"rounds"`
}

// TestExperimentsGoldenN64 re-runs the n=64 slice of the committed
// EXPERIMENTS.json (10 scenarios x 4 profiles, seq and sharded) the way
// cmd/experiment does — one warm Runner per scenario, the scenario seed as
// the run seed, Parallel for the sharded rows — and requires h, |Q|,
// rounds, messages, words, max node congestion and every stage's rounds to
// equal the committed row. A change that moves the distributed schedule on
// either execution path fails here. Sharded subtests carry a "/sharded"
// suffix.
func TestExperimentsGoldenN64(t *testing.T) {
	raw, err := os.ReadFile("EXPERIMENTS.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Rows []goldenRow `json:"rows"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var slice []goldenRow
	for _, r := range doc.Rows {
		if r.N == 64 && (r.Exec == "seq" || r.Exec == "sharded") {
			slice = append(slice, r)
		}
	}
	if len(slice) != 80 {
		t.Fatalf("EXPERIMENTS.json has %d n=64 seq and sharded rows, want 80", len(slice))
	}
	runners := map[string]*apsp.Runner{}
	for _, want := range slice {
		name := want.Scenario + "/" + want.Algorithm
		if want.Exec == "sharded" {
			name += "/sharded"
		}
		t.Run(name, func(t *testing.T) {
			sc, err := apsp.ParseScenario(want.Scenario)
			if err != nil {
				t.Fatal(err)
			}
			alg, err := apsp.ParseAlgorithm(want.Algorithm)
			if err != nil {
				t.Fatal(err)
			}
			r := runners[want.Scenario]
			if r == nil {
				g, err := sc.Build()
				if err != nil {
					t.Fatal(err)
				}
				if r, err = apsp.NewRunner(g); err != nil {
					t.Fatal(err)
				}
				runners[want.Scenario] = r
			}
			res, err := r.Run(apsp.Options{Algorithm: alg, Seed: sc.Seed, Parallel: want.Exec == "sharded"})
			if err != nil {
				t.Fatal(err)
			}
			s := res.Stats
			got := goldenRow{
				Scenario: want.Scenario, N: s.N, Algorithm: want.Algorithm, Exec: want.Exec,
				H: s.H, BlockerSetSize: s.BlockerSetSize, Rounds: s.Rounds, Messages: s.Messages,
				Words: s.Words, MaxNodeCongestion: s.MaxNodeCongestion,
			}
			for _, st := range s.Stages {
				got.Stages = append(got.Stages, goldenStage{st.Name, st.Rounds})
			}
			gj, _ := json.Marshal(got)
			wj, _ := json.Marshal(want)
			if string(gj) != string(wj) {
				t.Errorf("distributed columns moved:\n  got  %s\n  want %s", gj, wj)
			}
		})
	}
}
