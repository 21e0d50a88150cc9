package exact_test

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"umine/internal/algo"
	"umine/internal/algo/exact"
	"umine/internal/core"
	"umine/internal/core/coretest"
)

func mineOrFatal(t *testing.T, m core.Miner, db *core.Database, th core.Thresholds) *core.ResultSet {
	t.Helper()
	rs, err := m.Mine(context.Background(), db, th)
	if err != nil {
		t.Fatalf("%s: %v", m.Name(), err)
	}
	return rs
}

func jsonBytes(t *testing.T, rs *core.ResultSet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rs.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestScreenedNBIdenticalToPlainNB: an NB miner with the Chernoff screen
// serializes to exactly the plain NB miner's bytes (label included), and
// does exactly the B variant's work.
func TestScreenedNBIdenticalToPlainNB(t *testing.T) {
	rng := rand.New(rand.NewSource(1601))
	var pruned, lowMSC, nonEmpty int
	for trial := 0; trial < 40; trial++ {
		n := 10 + rng.Intn(190)
		db := coretest.RandomDB(rng, n, 4+rng.Intn(6), 0.2+0.6*rng.Float64())
		th := core.Thresholds{MinSup: 0.05 + 0.6*rng.Float64(), PFT: 0.05 + 0.9*rng.Float64()}
		if trial%4 == 0 {
			// msc 1 or 2: the screen's smallest counts.
			th.MinSup = float64(1+rng.Intn(2)) / float64(n)
		}
		if th.MinSupCount(n) <= 2 {
			lowMSC++
		}
		for _, method := range []exact.Method{exact.DP, exact.DC} {
			plain := mineOrFatal(t, &exact.Miner{Method: method}, db, th)
			screen := mineOrFatal(t, &exact.Miner{Method: method, Screen: true, Workers: 2}, db, th)
			b := mineOrFatal(t, &exact.Miner{Method: method, Chernoff: true}, db, th)
			if want, got := jsonBytes(t, plain), jsonBytes(t, screen); !bytes.Equal(want, got) {
				t.Fatalf("%v trial %d (%+v): screened NB differs from plain NB\nscreened: %s\nplain: %s",
					method, trial, th, got, want)
			}
			if screen.Stats.ExactEvaluations != b.Stats.ExactEvaluations ||
				screen.Stats.ChernoffPruned != b.Stats.ChernoffPruned {
				t.Fatalf("%v trial %d: screened NB evaluated %d / pruned %d, %s evaluated %d / pruned %d",
					method, trial, screen.Stats.ExactEvaluations, screen.Stats.ChernoffPruned,
					b.Algorithm, b.Stats.ExactEvaluations, b.Stats.ChernoffPruned)
			}
			if plain.Stats.ChernoffPruned != 0 {
				t.Fatalf("%v trial %d: plain NB pruned %d candidates", method, trial, plain.Stats.ChernoffPruned)
			}
			pruned += screen.Stats.ChernoffPruned
			nonEmpty += plain.Len()
		}
	}
	if pruned == 0 || lowMSC == 0 || nonEmpty == 0 {
		t.Fatalf("vacuous sweep: %d pruned, %d trials at msc ≤ 2, %d results", pruned, lowMSC, nonEmpty)
	}
}

// TestScreenedNBBruteForce pins the screened miners to the possible-world
// oracle on inputs small enough to enumerate.
func TestScreenedNBBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1602))
	for trial := 0; trial < 30; trial++ {
		db := coretest.RandomDB(rng, 8+rng.Intn(13), 5, 0.3+0.5*rng.Float64())
		minSup, pft := 0.1+0.5*rng.Float64(), 0.1+0.8*rng.Float64()
		want := coretest.BruteForceProbabilistic(db, minSup, pft)
		for _, method := range []exact.Method{exact.DP, exact.DC} {
			rs := mineOrFatal(t, &exact.Miner{Method: method, Screen: true}, db, core.Thresholds{MinSup: minSup, PFT: pft})
			if rs.Len() != len(want) {
				t.Fatalf("%v trial %d: %d itemsets, oracle %d", method, trial, rs.Len(), len(want))
			}
			for i, w := range want {
				got := rs.Results[i]
				if !got.Itemset.Equal(w.Itemset) || math.Abs(got.FreqProb-w.FreqProb) > 1e-9 {
					t.Fatalf("%v trial %d: result %d = %v (fp %v), oracle %v (fp %v)",
						method, trial, i, got.Itemset, got.FreqProb, w.Itemset, w.FreqProb)
				}
			}
		}
	}
}

// TestScreenLeavesRegistryUnscreened guards the paper's DPB-vs-DPNB
// comparison: the registry's NB miners never screen, so they evaluate every
// candidate the B variants prune.
func TestScreenLeavesRegistryUnscreened(t *testing.T) {
	db := coretest.RandomDB(rand.New(rand.NewSource(1603)), 200, 10, 0.3)
	th := core.Thresholds{MinSup: 0.4, PFT: 0.9}
	for _, name := range []string{"DPNB", "DCNB"} {
		m, err := algo.NewWith(name, core.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		nb := mineOrFatal(t, m, db, th)
		b := mineOrFatal(t, algo.MustNew(name[:2]+"B"), db, th)
		if nb.Stats.ChernoffPruned != 0 {
			t.Errorf("%s from the registry pruned %d candidates, want 0", name, nb.Stats.ChernoffPruned)
		}
		if b.Stats.ChernoffPruned == 0 || nb.Stats.ExactEvaluations <= b.Stats.ExactEvaluations {
			t.Errorf("%s: %d exact evaluations vs %s's %d (%d pruned): the guard needs a workload the bound prunes",
				name, nb.Stats.ExactEvaluations, b.Algorithm, b.Stats.ExactEvaluations, b.Stats.ChernoffPruned)
		}
	}
}
