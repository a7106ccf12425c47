package apps

import (
	"fmt"
	"testing"

	"secureblox/internal/analysis"
	"secureblox/internal/core"
	"secureblox/internal/datalog"
	"secureblox/internal/engine"
)

func smallJoin(n int, policy core.PolicyConfig, seed int64) HashJoinConfig {
	return HashJoinConfig{N: n, SizeA: 90, SizeB: 80, JoinValues: 12, Policy: policy, Seed: seed}
}

func TestHashJoinCorrectness(t *testing.T) {
	res, err := RunHashJoin(smallJoin(3, core.PolicyConfig{}, 11))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Cluster.Stop()
	if res.Violations != 0 {
		t.Fatalf("violations: %v", res.Cluster.Violations()[:1])
	}
	if res.ResultCount != res.ExpectedCount {
		t.Fatalf("join result %d tuples, expected %d", res.ResultCount, res.ExpectedCount)
	}
	if res.ResultCount == 0 {
		t.Fatal("degenerate workload: no matches")
	}
}

func TestHashJoinUnderRSAAES(t *testing.T) {
	res, err := RunHashJoin(smallJoin(3, core.PolicyConfig{Auth: core.AuthRSA, Encrypt: true}, 12))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Cluster.Stop()
	if res.Violations != 0 {
		t.Fatalf("violations: %v", res.Cluster.Violations()[:1])
	}
	if res.ResultCount != res.ExpectedCount {
		t.Fatalf("secure join changed the result: %d vs %d", res.ResultCount, res.ExpectedCount)
	}
	if res.InitiatorCDF.Len() == 0 {
		t.Error("initiator CDF empty")
	}
}

func TestHashJoinSingleNodeDegenerate(t *testing.T) {
	// All ranges on one node: the join happens entirely locally.
	res, err := RunHashJoin(smallJoin(1, core.PolicyConfig{}, 13))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Cluster.Stop()
	if res.ResultCount != res.ExpectedCount {
		t.Fatalf("local join wrong: %d vs %d", res.ResultCount, res.ExpectedCount)
	}
}

// Zero join values used to divide by zero in HashJoinInput after the
// cluster was built, and negative sizes to panic in make: both are errors
// now, returned before a cluster exists.
func TestHashJoinRejectsImpossibleConfigs(t *testing.T) {
	for _, cfg := range []HashJoinConfig{
		{N: 3, SizeA: 10, SizeB: 10},
		{N: 3, SizeA: -1, SizeB: 10, JoinValues: 4},
		{N: 3, SizeA: 10, SizeB: -1, JoinValues: 4},
		{N: 0, SizeA: 10, SizeB: 10, JoinValues: 4},
	} {
		if res, err := RunHashJoin(cfg); err == nil {
			res.Cluster.Stop()
			t.Errorf("%+v: accepted", cfg)
		}
	}
	// Empty tables are a legal, empty join.
	res, err := RunHashJoin(HashJoinConfig{N: 2, JoinValues: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Cluster.Stop()
	if res.ResultCount != 0 || res.ExpectedCount != 0 {
		t.Errorf("empty join: %d of %d", res.ResultCount, res.ExpectedCount)
	}
}

func TestHashJoinParallelismReducesPerNodeTraffic(t *testing.T) {
	// Figure 12's shape: more nodes → less per-node traffic.
	kb := map[int]float64{}
	for _, n := range []int{2, 6} {
		res, err := RunHashJoin(smallJoin(n, core.PolicyConfig{}, 14))
		if err != nil {
			t.Fatal(err)
		}
		kb[n] = res.PerNodeKB
		res.Cluster.Stop()
	}
	if kb[6] >= kb[2] {
		t.Errorf("per-node traffic should fall with parallelism: 2 nodes %.1fKB, 6 nodes %.1fKB", kb[2], kb[6])
	}
}

func TestHashJoinRSACostsMoreBandwidthThanNoAuth(t *testing.T) {
	plain, err := RunHashJoin(smallJoin(3, core.PolicyConfig{}, 15))
	if err != nil {
		t.Fatal(err)
	}
	plain.Cluster.Stop()
	secure, err := RunHashJoin(smallJoin(3, core.PolicyConfig{Auth: core.AuthRSA, Encrypt: true}, 15))
	if err != nil {
		t.Fatal(err)
	}
	secure.Cluster.Stop()
	if secure.PerNodeKB <= plain.PerNodeKB {
		t.Errorf("RSA-AES should cost more bandwidth: %.1fKB vs %.1fKB", secure.PerNodeKB, plain.PerNodeKB)
	}
}

// The inferred partition facts must be byte-identical to the previously
// hand-written ones: lo = 0, step = floor(2^63 / N), last range closed at
// 2^63-1, emitted per principal as prin_minhash then prin_maxhash.
func TestInferredPartitionFactsMatchHandWritten(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 7, 18} {
		principals := make([]string, n)
		for i := range principals {
			principals[i] = fmt.Sprintf("prin%d", i)
		}
		cfg := smallJoin(n, core.PolicyConfig{}, 42)
		common, _, _ := HashJoinInput(cfg, principals)

		// The hand-written generator this inference replaced.
		var want []engine.Fact
		lo := int64(0)
		step := int64((uint64(1) << 63) / uint64(n))
		for j := 0; j < n; j++ {
			hi := lo + step
			if j == n-1 {
				hi = int64(^uint64(0) >> 1)
			}
			pv := datalog.Prin(principals[j])
			want = append(want,
				engine.Fact{Pred: "prin_minhash", Tuple: datalog.Tuple{pv, datalog.Int64(lo)}},
				engine.Fact{Pred: "prin_maxhash", Tuple: datalog.Tuple{pv, datalog.Int64(hi)}},
			)
			lo = hi
		}

		var got []engine.Fact
		for _, f := range common {
			if f.Pred == "prin_minhash" || f.Pred == "prin_maxhash" {
				got = append(got, f)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d: %d partition facts, want %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i].String() != want[i].String() {
				t.Fatalf("n=%d fact %d: inferred %s, hand-written %s", n, i, got[i], want[i])
			}
		}
	}
}

// The inference must read the scheme out of the query text itself.
func TestHashJoinPartitioningInference(t *testing.T) {
	p := HashJoinPartitioning()
	if p.LoPred != "prin_minhash" || p.HiPred != "prin_maxhash" || p.HashUDF != "sha1" {
		t.Fatalf("inferred %q/%q via %q", p.LoPred, p.HiPred, p.HashUDF)
	}
	want := []analysis.RelColumn{{Pred: "a", Col: 1}, {Pred: "b", Col: 1}}
	if len(p.Relations) != len(want) {
		t.Fatalf("relations = %v, want %v", p.Relations, want)
	}
	for i := range want {
		if p.Relations[i] != want[i] {
			t.Errorf("relations[%d] = %v, want %v", i, p.Relations[i], want[i])
		}
	}
}
