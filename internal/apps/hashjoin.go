package apps

import (
	"fmt"
	"math/rand"
	"time"

	"secureblox/internal/analysis"
	"secureblox/internal/core"
	"secureblox/internal/datalog"
	"secureblox/internal/engine"
	"secureblox/internal/metrics"
	"secureblox/internal/transport"
)

// HashJoinQuery is the paper's §7.2 secure parallel hash join: tables a and
// b arrive hashed on their first attribute; nodes rehash both on the join
// (second) attribute by saying tuples to the principal whose hash range
// covers sha1(join key), join locally, and say results to the initiator.
const HashJoinQuery = `
	a(E1, E2) -> int(E1), int(E2).
	b(E3, E2) -> int(E3), int(E2).
	a2(E1, E2) -> int(E1), int(E2).
	b2(E3, E2) -> int(E3), int(E2).
	joinresult(E1, E2, E3) -> int(E1), int(E2), int(E3).
	prin_minhash[U]=Lo -> principal(U), int(Lo).
	prin_maxhash[U]=Hi -> principal(U), int(Hi).
	exportable('a2).
	exportable('b2).
	exportable('joinresult).

	// Rehash on the join attribute: route each tuple to the principal
	// whose hash range contains sha1 of the join key.
	says['a2](self[], U, E1, E2) <-
		a(E1, E2), sha1(E2, H),
		prin_minhash[U]=Lo, prin_maxhash[U]=Hi, H >= Lo, H < Hi.
	says['b2](self[], U, E3, E2) <-
		b(E3, E2), sha1(E2, H),
		prin_minhash[U]=Lo, prin_maxhash[U]=Hi, H >= Lo, H < Hi.

	// Import rehashed fragments.
	a2(E1, E2) <- says['a2](U, self[], E1, E2).
	b2(E3, E2) <- says['b2](U, self[], E3, E2).

	// Local equi-join; results stream to the initiator.
	says['joinresult](self[], U, E1, E2, E3) <-
		a2(E1, E2), b2(E3, E2), initiator[]=U.
	joinresult(E1, E2, E3) <- says['joinresult](U, self[], E1, E2, E3).
`

// HashJoinPartitioning is the co-partitioning scheme inferred statically
// from HashJoinQuery's routing rules: the analyzer recognizes the
// sha1/min-max range pattern and derives which relations share the hash
// function and which functional predicates carry the per-principal ranges.
// The partition facts are no longer hand-written — they fall out of the
// rules, so editing the query's routing automatically reshapes the setup.
func HashJoinPartitioning() *analysis.Partitioning {
	prog, err := datalog.Parse(HashJoinQuery)
	if err != nil {
		panic(fmt.Sprintf("apps: HashJoinQuery does not parse: %v", err))
	}
	p, err := analysis.InferPartitioning(prog, analysis.StubUDFs("sha1"))
	if err != nil {
		panic(fmt.Sprintf("apps: HashJoinQuery lost its routing pattern: %v", err))
	}
	return p
}

// HashJoinConfig parameterizes one experiment: paper §8.2 uses |A|=900,
// |B|=800, 72 distinct join values, initiator at node 0.
type HashJoinConfig struct {
	N          int
	SizeA      int
	SizeB      int
	JoinValues int
	Policy     core.PolicyConfig
	Seed       int64
	// Transport selects the cluster substrate ("", "mem" or "udp"); see
	// core.NewNetwork.
	Transport string
}

// DefaultHashJoinConfig returns the paper's workload parameters.
func DefaultHashJoinConfig(n int, policy core.PolicyConfig, seed int64) HashJoinConfig {
	return HashJoinConfig{N: n, SizeA: 900, SizeB: 800, JoinValues: 72, Policy: policy, Seed: seed}
}

// HashJoinResult carries one run's measurements (paper §8.2).
type HashJoinResult struct {
	Duration      time.Duration
	PerNodeKB     float64
	ResultCount   int
	ExpectedCount int
	// InitiatorCDF is the distribution of transaction completion times at
	// the initiator (Figures 10 and 11).
	InitiatorCDF *metrics.CDF
	Violations   int
	Cluster      *core.Cluster
}

// HashJoinInput generates the deterministic workload input of §8.2 from
// the config alone: the metadata every node asserts (per-principal hash
// ranges over [0, 2^63) and the initiator singleton, bound to the given
// principal names in order), the initial table partitions (tuples assigned
// to nodes by their first attribute, the pre-rehash placement), and the
// expected |A ⋈ B| for validation. It is shared by the in-process driver
// and the table row sbxnode reads, whose separate OS processes must agree
// on the global input without exchanging it — any change to the scenario
// changes every deployment mode at once.
func HashJoinInput(cfg HashJoinConfig, principals []string) (common []engine.Fact, parts [][]engine.Fact, expected int) {
	// Tables: join attribute drawn uniformly from JoinValues distinct
	// values (randomized per trial, §8.2).
	rng := rand.New(rand.NewSource(cfg.Seed))
	joinDomain := make([]int64, cfg.JoinValues)
	for i := range joinDomain {
		joinDomain[i] = int64(rng.Intn(1 << 30))
	}
	type row struct{ k, v int64 }
	rowsA := make([]row, cfg.SizeA)
	for i := range rowsA {
		rowsA[i] = row{int64(i), joinDomain[i%cfg.JoinValues]}
	}
	rowsB := make([]row, cfg.SizeB)
	for i := range rowsB {
		rowsB[i] = row{int64(1000000 + i), joinDomain[i%cfg.JoinValues]}
	}
	countA := map[int64]int{}
	for _, r := range rowsA {
		countA[r.v]++
	}
	for _, r := range rowsB {
		expected += countA[r.v]
	}

	// Hash-range metadata — inferred from the query's routing rules rather
	// than hand-written — plus the initiator singleton (node 0).
	common = append(common, HashJoinPartitioning().SetupFacts(principals[:cfg.N])...)
	common = append(common, engine.Fact{
		Pred: "initiator", Tuple: datalog.Tuple{datalog.Prin(principals[0])},
	})

	parts = make([][]engine.Fact, cfg.N)
	for _, r := range rowsA {
		i := int(r.k) % cfg.N
		parts[i] = append(parts[i], engine.Fact{Pred: "a", Tuple: datalog.Tuple{datalog.Int64(r.k), datalog.Int64(r.v)}})
	}
	for _, r := range rowsB {
		i := int(r.k) % cfg.N
		parts[i] = append(parts[i], engine.Fact{Pred: "b", Tuple: datalog.Tuple{datalog.Int64(r.k), datalog.Int64(r.v)}})
	}
	return common, parts, expected
}

// newHashJoin builds the join's cluster over net, asserts the metadata at
// every node and returns it unstarted, with the table partition each node is
// to assert once it runs and the expected result size.
func newHashJoin(cfg HashJoinConfig, net transport.Network) (c *core.Cluster, parts [][]engine.Fact, expected int, err error) {
	if cfg.N < 1 || cfg.SizeA < 0 || cfg.SizeB < 0 || cfg.JoinValues < 1 {
		net.Close()
		return nil, nil, 0, fmt.Errorf("hashjoin: need at least one node and one join value and non-negative table sizes, got N=%d %d×%d over %d values",
			cfg.N, cfg.SizeA, cfg.SizeB, cfg.JoinValues)
	}
	c, err = core.NewCluster(hashJoinProgram.ClusterConfig(cfg.N, cfg.Policy, cfg.Seed, net))
	if err != nil {
		return nil, nil, 0, err
	}
	common, parts, expected := HashJoinInput(cfg, c.Principals)
	for i := range c.Nodes {
		if _, err := c.Nodes[i].WS.Assert(common); err != nil {
			c.Stop() // the caller only gets the error: release sockets and goroutines
			return nil, nil, 0, fmt.Errorf("hashjoin: metadata on node %d: %w", i, err)
		}
	}
	return c, parts, expected, nil
}

// RunHashJoin executes the join to the distributed fixpoint. The caller
// must Stop() the result's Cluster.
func RunHashJoin(cfg HashJoinConfig) (*HashJoinResult, error) {
	net, err := core.NewNetwork(cfg.Transport)
	if err != nil {
		return nil, err
	}
	c, parts, expected, err := newHashJoin(cfg, net)
	if err != nil {
		return nil, err
	}

	c.Start()
	for i, facts := range parts {
		if len(facts) > 0 {
			c.AssertAt(i, facts)
		}
	}
	dur := c.WaitFixpoint()

	cdf := &metrics.CDF{}
	for _, ts := range c.Nodes[0].Metrics.TxnCompletions() {
		cdf.Add(ts.Sub(c.StartTime()))
	}
	return &HashJoinResult{
		Duration:      dur,
		PerNodeKB:     c.MeanNodeTrafficKB(),
		ResultCount:   len(c.Query(0, "joinresult")),
		ExpectedCount: expected,
		InitiatorCDF:  cdf,
		Violations:    len(c.Violations()),
		Cluster:       c,
	}, nil
}
