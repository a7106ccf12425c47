package apps

import (
	"context"
	"fmt"
	"testing"

	"secureblox/internal/analysis"
	"secureblox/internal/cluster"
	"secureblox/internal/core"
	"secureblox/internal/datalog"
	"secureblox/internal/engine"
)

func TestHashJoinCorrectness(t *testing.T) {
	o := runRow(t, "hashjoin", smoke(11), 3, core.PolicyConfig{}, nil)
	if o.Wrong != nil {
		t.Fatalf("%s: %v", o.Answer, o.Wrong)
	}
	if len(o.Cluster.Query(0, "joinresult")) == 0 {
		t.Fatal("degenerate workload: no matches")
	}
}

func TestHashJoinUnderRSAAES(t *testing.T) {
	o := runRow(t, "hashjoin", smoke(12), 3, core.PolicyConfig{Auth: core.AuthRSA, Encrypt: true}, nil)
	if o.Wrong != nil {
		t.Fatalf("secure join changed the result: %s", o.Answer)
	}
	if o.Cluster.Nodes[0].Txns() == 0 {
		t.Error("the initiator committed no transaction")
	}
}

func TestHashJoinSingleNodeDegenerate(t *testing.T) {
	// All ranges on one node: the join happens entirely locally.
	if o := runRow(t, "hashjoin", smoke(13), 1, core.PolicyConfig{}, nil); o.Wrong != nil {
		t.Fatalf("local join wrong: %s", o.Answer)
	}
}

// A cluster of no nodes is refused before one is built. A config's sizes
// that are zero or negative read as the paper's, so zero join values
// cannot divide by zero in HashJoinInput, nor a negative size panic in
// make.
func TestHashJoinRejectsImpossibleConfigs(t *testing.T) {
	w, err := Lookup("hashjoin")
	if err != nil {
		t.Fatal(err)
	}
	if o, err := w.Run(context.Background(), smoke(1), 0, core.PolicyConfig{}, nil); err == nil {
		o.Cluster.Stop()
		t.Error("a cluster of no nodes: accepted")
	}
	mem := &cluster.Membership{Members: []cluster.Member{{Principal: "p0"}, {Principal: "p1"}}}
	for _, wc := range []cluster.WorkloadConfig{
		{SizeA: 10, SizeB: 10},
		{SizeA: -1, SizeB: -10, JoinValues: -4},
	} {
		tables := map[string]int{}
		for i := range mem.Members {
			for _, f := range w.Facts(wc, mem, i) {
				tables[f.Pred]++
			}
		}
		want := map[string]int{"a": 900, "b": 800}
		if wc.SizeA > 0 {
			want = map[string]int{"a": 10, "b": 10}
		}
		if tables["a"] != want["a"] || tables["b"] != want["b"] {
			t.Errorf("%+v: fed %d a and %d b rows, want %v", wc, tables["a"], tables["b"], want)
		}
	}
}

func TestHashJoinParallelismReducesPerNodeTraffic(t *testing.T) {
	// Figure 12's shape: more nodes → less per-node traffic.
	kb := map[int]float64{}
	for _, n := range []int{2, 6} {
		kb[n] = runRow(t, "hashjoin", smoke(14), n, core.PolicyConfig{}, nil).Cluster.MeanNodeTrafficKB()
	}
	if kb[6] >= kb[2] {
		t.Errorf("per-node traffic should fall with parallelism: 2 nodes %.1fKB, 6 nodes %.1fKB", kb[2], kb[6])
	}
}

func TestHashJoinRSACostsMoreBandwidthThanNoAuth(t *testing.T) {
	plain := runRow(t, "hashjoin", smoke(15), 3, core.PolicyConfig{}, nil).Cluster.MeanNodeTrafficKB()
	secure := runRow(t, "hashjoin", smoke(15), 3, core.PolicyConfig{Auth: core.AuthRSA, Encrypt: true}, nil).Cluster.MeanNodeTrafficKB()
	if secure <= plain {
		t.Errorf("RSA-AES should cost more bandwidth: %.1fKB vs %.1fKB", secure, plain)
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
		common, _, _ := HashJoinInput(hashJoinConfig(smoke(42), n), principals)

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
