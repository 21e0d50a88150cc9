package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"umine/internal/core"
	"umine/internal/obsq"
)

// screenTestThresholds make the Chernoff bound prune on shardTestDB while
// leaving a non-empty result set.
var screenTestThresholds = core.Thresholds{MinSup: 0.1, PFT: 0.9}

// TestServerScreensNBBitIdentical: served DPNB/DCNB /mine bodies are the
// bytes of an unscreened registry mine (umine.MineWith with default
// Options), on the plain path and through a 4-shard scatter's phase 2.
func TestServerScreensNBBitIdentical(t *testing.T) {
	db := shardTestDB()
	s := New(Config{DefaultWorkers: 2})
	if _, err := s.RegisterDatabase("flat", db, RegisterOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterDatabase("sharded", db, RegisterOptions{Shards: 4}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	th := screenTestThresholds
	for _, alg := range []string{"DPNB", "DCNB"} {
		direct := directMine(t, alg, db, th)
		if direct.Len() == 0 {
			t.Fatalf("%s: empty result set makes the test vacuous", alg)
		}
		want := marshal(t, direct)
		for _, ds := range []string{"flat", "sharded"} {
			resp, body := post(t, ts.URL+"/mine", mineRequestJSON{
				Dataset: ds, Algorithm: alg, MinSup: th.MinSup, PFT: th.PFT, NoCache: true,
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s on %s: %d %s", alg, ds, resp.StatusCode, body)
			}
			if !bytes.Equal(body, want) {
				t.Errorf("%s on %s: /mine body differs from the direct mine\ngot:  %s\nwant: %s", alg, ds, body, want)
			}
		}
	}
	if st := s.Stats(); st.ShardedMines != 2 {
		t.Fatalf("ShardedMines = %d, want 2 (one per algorithm)", st.ShardedMines)
	}
}

// TestExplainScreenedDPNB: /explain of a served DPNB mine shows the
// screen's prunes and fewer exact evaluations than the registry's DPNB, on
// the plain path and in a 4-shard scatter's phase 2.
func TestExplainScreenedDPNB(t *testing.T) {
	db := shardTestDB()
	s := newTestServer(t, db)
	if _, err := s.RegisterDatabase("sharded", db, RegisterOptions{Shards: 4}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	th := screenTestThresholds
	direct := directMine(t, "DPNB", db, th)
	for _, ds := range []string{"d", "sharded"} {
		resp, body := post(t, ts.URL+"/explain", mineRequestJSON{
			Dataset: ds, Algorithm: "DPNB", MinSup: th.MinSup, PFT: th.PFT,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("explain %s: %d %s", ds, resp.StatusCode, body)
		}
		var ex obsq.Explanation
		if err := json.Unmarshal(body, &ex); err != nil {
			t.Fatal(err)
		}
		if ex.Algorithm != "DPNB" || ex.Path != "mined" {
			t.Fatalf("explain %s reports algorithm %q path %q, want DPNB mined", ds, ex.Algorithm, ex.Path)
		}
		if ex.Totals.ChernoffPruned == 0 {
			t.Errorf("explain %s: chernoff_pruned = 0, want > 0", ds)
		}
		if ex.Totals.ExactEvaluations >= direct.Stats.ExactEvaluations {
			t.Errorf("explain %s: exact_evaluations = %d, direct DPNB mine %d: want fewer",
				ds, ex.Totals.ExactEvaluations, direct.Stats.ExactEvaluations)
		}
	}
}
