package apps

import (
	"fmt"
	"testing"

	"secureblox/internal/core"
	"secureblox/internal/datalog"
	"secureblox/internal/engine"
	"secureblox/internal/graph"
	"secureblox/internal/seccrypto"
	"secureblox/internal/udf"
)

func TestGraphGenerator(t *testing.T) {
	for _, n := range []int{6, 12, 36} {
		g := graph.RandomConnected(n, 3, int64(n))
		if !g.Connected() {
			t.Errorf("n=%d: graph not connected", n)
		}
		if d := g.AvgDegree(); d < 2.4 || d > 3.6 {
			t.Errorf("n=%d: average degree %.2f not near 3", n, d)
		}
	}
	// determinism
	a := graph.RandomConnected(10, 3, 42)
	b := graph.RandomConnected(10, 3, 42)
	if len(a.Edges) != len(b.Edges) {
		t.Error("same seed must give same graph")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Error("same seed must give same edges")
		}
	}
}

func TestPathVectorComputesShortestPaths(t *testing.T) {
	res, err := RunPathVector(PathVectorConfig{N: 6, AvgDegree: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Cluster.Stop()
	if res.Violations != 0 {
		t.Fatalf("violations: %v", res.Cluster.Violations())
	}
	if err := res.ValidateShortestPaths(); err != nil {
		t.Fatal(err)
	}
}

func TestPathVectorOverUDP(t *testing.T) {
	// The Figure 4 scenario over real loopback sockets: same protocol,
	// same ground-truth shortest paths, termination detected purely via
	// wire-level control messages across the reliable UDP layer.
	res, err := RunPathVector(PathVectorConfig{N: 5, AvgDegree: 3, Seed: 3, Transport: "udp"})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Cluster.Stop()
	if res.Violations != 0 {
		t.Fatalf("violations: %v", res.Cluster.Violations()[:1])
	}
	if err := res.ValidateShortestPaths(); err != nil {
		t.Fatal(err)
	}
	if res.PerNodeKB <= 0 {
		t.Error("no traffic measured over UDP")
	}
}

func TestHashJoinOverUDP(t *testing.T) {
	res, err := RunHashJoin(HashJoinConfig{
		N: 3, SizeA: 60, SizeB: 50, JoinValues: 12, Seed: 9, Transport: "udp",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Cluster.Stop()
	if res.Violations != 0 {
		t.Fatalf("violations: %v", res.Cluster.Violations()[:1])
	}
	if res.ResultCount != res.ExpectedCount {
		t.Fatalf("join over UDP returned %d rows, want %d", res.ResultCount, res.ExpectedCount)
	}
}

func TestNoFullScanFallbacksInProtocolRuleSets(t *testing.T) {
	// Every join step in the path-vector and hash-join rule sets must be
	// answered by an index registered at compile time: after a full run, no
	// node's evaluator may have fallen back to scanning a relation whose
	// step had bound columns.
	pv, err := RunPathVector(PathVectorConfig{N: 6, AvgDegree: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer pv.Cluster.Stop()
	for i, n := range pv.Cluster.Nodes {
		s := n.WS.Stats()
		if s.FullScanFallbacks != 0 {
			t.Errorf("pathvector node %d: %d full-scan fallbacks (%s)", i, s.FullScanFallbacks, s)
		}
		if s.IndexProbes == 0 {
			t.Errorf("pathvector node %d: evaluator never probed an index", i)
		}
	}
	hj, err := RunHashJoin(HashJoinConfig{N: 3, SizeA: 60, SizeB: 50, JoinValues: 12, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer hj.Cluster.Stop()
	for i, n := range hj.Cluster.Nodes {
		s := n.WS.Stats()
		if s.FullScanFallbacks != 0 {
			t.Errorf("hashjoin node %d: %d full-scan fallbacks (%s)", i, s.FullScanFallbacks, s)
		}
	}

	// And statically, for every shipped rule set under every policy: each
	// semi-naïve evaluation leads with its delta atom, and no later join
	// step starts from zero bound columns unless it shares no variable with
	// the steps before it (a genuine cross product).
	reg, err := udf.NewRegistry(seccrypto.NewKeyStore("plans"), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rs := range []struct {
		name  string
		query string
		extra []string
	}{
		{"pathvector", PathVectorQuery, nil},
		{"hashjoin", HashJoinQuery, nil},
		{"anonjoin", AnonJoinQuery, []string{AnonPolicy}},
	} {
		for _, auth := range []core.AuthScheme{core.AuthNone, core.AuthHMAC, core.AuthRSA} {
			for _, variant := range []core.PolicyConfig{{}, {Encrypt: true}, {BatchSign: true}, {Authorization: true, Delegation: core.DelegateTrustworthy}} {
				pol := variant
				pol.Auth = auth
				if pol.BatchSign && auth != core.AuthRSA {
					continue
				}
				res, err := core.CompileProgram(pol, rs.query, rs.extra)
				if err != nil {
					t.Fatalf("%s/%s: %v", rs.name, pol.Name(), err)
				}
				compiled, err := engine.Compile(res.Program, reg)
				if err != nil {
					t.Fatalf("%s/%s: %v", rs.name, pol.Name(), err)
				}
				for _, p := range compiled.Plans() {
					if p.Err != nil {
						t.Fatalf("%s/%s: %s: %v", rs.name, pol.Name(), p.Src, p.Err)
					}
					if err := checkDeltaPlans(p); err != nil {
						t.Errorf("%s/%s: %s: %v", rs.name, pol.Name(), p.Src, err)
					}
					// However often a generated rule writes self[], it reads it once.
					selfSteps := 0
					for _, s := range p.DeltaPlans[0] {
						if s.Kind != engine.StepCmp && s.Pred == "self" {
							selfSteps++
						}
					}
					if selfSteps > 1 {
						t.Errorf("%s/%s: %s: %d self steps, want at most 1", rs.name, pol.Name(), p.Src, selfSteps)
					}
				}
			}
		}
	}
}

// checkDeltaPlans verifies the shape of one rule's delta-first plans from
// the planner's exported view: a plan lists every literal of the first plan —
// what a full evaluation runs — its location lookups (self[],
// principal_node[self[]]) first, then the delta atom, and every later match
// that shares a variable with what ran before it probes on it.
func checkDeltaPlans(p engine.RulePlan) error {
	first, atoms := p.DeltaPlans[0], 0
	for _, s := range first {
		if s.Kind == engine.StepMatch || s.Kind == engine.StepPrebound {
			atoms++
		}
	}
	if len(p.DeltaPlans) != atoms {
		return fmt.Errorf("%d delta plans for %d positive atoms", len(p.DeltaPlans), atoms)
	}
	for k, plan := range p.DeltaPlans {
		seen := map[string]bool{}
		pre := 0
		for ; pre < len(plan) && plan[pre].Kind == engine.StepPrebound; pre++ {
			if s := plan[pre]; s.Pred != "self" && s.Pred != "principal_node" {
				return fmt.Errorf("delta plan %d: location lookup over %s", k, s.Pred)
			}
			datalog.AtomVars(plan[pre].Atom, seen)
		}
		if len(plan) != len(first) || pre == len(plan) || plan[pre].Kind != engine.StepMatch {
			return fmt.Errorf("delta plan %d: %d steps (the first plan %d), %d lookups, then no delta atom", k, len(plan), len(first), pre)
		}
		datalog.AtomVars(plan[pre].Atom, seen)
		for i, s := range plan[pre+1:] {
			switch s.Kind {
			case engine.StepMatch:
				vars := map[string]bool{}
				datalog.AtomVars(s.Atom, vars)
				for v := range vars {
					if seen[v] && len(s.BoundCols) == 0 {
						return fmt.Errorf("delta plan %d step %d: %s shares %s with earlier steps but probes nothing", k, pre+i+1, s.Atom, v)
					}
				}
				datalog.AtomVars(s.Atom, seen)
			case engine.StepUDF:
				datalog.AtomVars(s.Atom, seen)
			case engine.StepCmp:
				if s.Op == "=" {
					datalog.VarsOf(s.L, seen)
					datalog.VarsOf(s.R, seen)
				}
			}
		}
	}
	return nil
}

func TestPathVectorUnderRSA(t *testing.T) {
	res, err := RunPathVector(PathVectorConfig{
		N: 6, AvgDegree: 3, Seed: 4,
		Policy: core.PolicyConfig{Auth: core.AuthRSA},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Cluster.Stop()
	if res.Violations != 0 {
		t.Fatalf("violations: %v", res.Cluster.Violations()[:1])
	}
	if err := res.ValidateShortestPaths(); err != nil {
		t.Fatal(err)
	}
	if res.PerNodeKB <= 0 {
		t.Error("no traffic measured")
	}
}

func TestPathVectorRSAAESMatchesNoAuthRoutes(t *testing.T) {
	// Security customization must not change protocol results (the
	// paper's central claim: policy is decoupled from specification).
	get := func(p core.PolicyConfig) map[string]int64 {
		res, err := RunPathVector(PathVectorConfig{N: 6, AvgDegree: 3, Seed: 5, Policy: p})
		if err != nil {
			t.Fatal(err)
		}
		defer res.Cluster.Stop()
		if res.Violations != 0 {
			t.Fatalf("%s violations: %v", p.Name(), res.Cluster.Violations()[:1])
		}
		out := map[string]int64{}
		for i := range res.Cluster.Nodes {
			for _, tp := range res.Cluster.Query(i, "bestcost") {
				out[tp[0].Str+">"+tp[1].Str] = tp[2].Int
			}
		}
		return out
	}
	plain := get(core.PolicyConfig{})
	secure := get(core.PolicyConfig{Auth: core.AuthRSA, Encrypt: true})
	if len(plain) == 0 || len(plain) != len(secure) {
		t.Fatalf("route table sizes differ: %d vs %d", len(plain), len(secure))
	}
	for k, v := range plain {
		if secure[k] != v {
			t.Errorf("route %s: NoAuth cost %d, RSA-AES cost %d", k, v, secure[k])
		}
	}
}

func TestPathVectorPathCompositionPropagates(t *testing.T) {
	// The protocol ships full path composition so nodes can policy-check
	// paths; verify some multi-hop pathlink chain exists.
	res, err := RunPathVector(PathVectorConfig{N: 6, AvgDegree: 2.5, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Cluster.Stop()
	multi := false
	for i := range res.Cluster.Nodes {
		byPath := map[string]int{}
		for _, tp := range res.Cluster.Query(i, "pathlink") {
			byPath[tp[0].String()]++
		}
		for _, cnt := range byPath {
			if cnt >= 2 {
				multi = true
			}
		}
	}
	if !multi {
		t.Error("no multi-hop path composition found anywhere")
	}
}
