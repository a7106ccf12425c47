package apps

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"secureblox/internal/cluster"
	"secureblox/internal/core"
	"secureblox/internal/datalog"
	"secureblox/internal/engine"
	"secureblox/internal/generics"
	"secureblox/internal/graph"
	"secureblox/internal/transport"
)

// Program is what every deployment of a shipped workload compiles: the
// query and the BloxGenerics sources it needs beyond the scheme's own.
type Program struct {
	Query         string
	ExtraPolicies []string
}

var (
	pathVectorProgram = Program{Query: PathVectorQuery}
	hashJoinProgram   = Program{Query: HashJoinQuery}
	anonJoinProgram   = Program{Query: AnonJoinQuery, ExtraPolicies: []string{AnonPolicy}}
)

// ClusterConfig is the program under scheme p as core's constructors take
// it. Every shipped query consumes its says tuples itself, so no import
// rule is installed whatever delegation p asked for.
func (pr Program) ClusterConfig(n int, p core.PolicyConfig, seed int64, net transport.Network) core.ClusterConfig {
	p.Delegation = core.DelegateNone
	return core.ClusterConfig{N: n, Policy: p, Query: pr.Query, ExtraPolicies: pr.ExtraPolicies, Seed: seed, Net: net}
}

// Compile returns the concrete program every node installs under scheme p.
func (pr Program) Compile(p core.PolicyConfig) (*generics.Result, error) {
	cc := pr.ClusterConfig(0, p, 0, nil)
	return core.CompileProgram(cc.Policy, cc.Query, cc.ExtraPolicies)
}

// Workload is one row of the table of shipped use cases: what a front end
// needs to compile it, to run it once in-process against its oracle, and —
// where a multi-process driver exists — to feed and read out one node of a
// deployment.
type Workload struct {
	Name string
	Program
	// Run takes the workload to the distributed fixpoint once, at a fixed
	// smoke size, and checks the answer.
	Run func(n int, p core.PolicyConfig, seed int64, transport string) (*Outcome, error)
	// Facts and Lines are node idx's share of the input and of the result
	// set in a deployment of mem's members, both pure functions of the
	// config so that separate processes agree without exchanging a byte.
	// Lines are principal-keyed and tab-separated and never carry an
	// address: bound addresses are the one thing a multi-process UDP run and
	// its in-process reference do not share. Nil where no multi-process
	// driver exists.
	Facts func(w cluster.WorkloadConfig, mem *cluster.Membership, idx int) []engine.Fact
	Lines func(mem *cluster.Membership, idx int, ws *engine.Workspace) []string
}

// Outcome is one finished in-process run. The cluster is left open so its
// counters and tables can be read; the caller Stops it.
type Outcome struct {
	Cluster *core.Cluster
	Latency time.Duration
	// Answer is what the workload's oracle looked at, Wrong why it is not
	// the right answer (nil when it is).
	Answer string
	Wrong  error
}

// Workloads is the one list of what ships. `sbx run`, `sbx vet -builtin`,
// sbxnode and the vet tests read it; adding a row adds the workload to all
// of them.
var Workloads = []Workload{
	{
		Name: "pathvector", Program: pathVectorProgram,
		Run: func(n int, p core.PolicyConfig, seed int64, transport string) (*Outcome, error) {
			res, err := RunPathVector(PathVectorConfig{N: n, AvgDegree: 3, Policy: p, Seed: seed, Transport: transport})
			if err != nil {
				return nil, err
			}
			return &Outcome{Cluster: res.Cluster, Latency: res.FixpointLatency,
				Answer: fmt.Sprintf("every bestcost of %d nodes against BFS", n), Wrong: res.ValidateShortestPaths()}, nil
		},
		Facts: func(w cluster.WorkloadConfig, mem *cluster.Membership, idx int) []engine.Fact {
			degree := w.Degree
			if degree <= 0 {
				degree = 3
			}
			g := graph.RandomConnected(len(mem.Members), degree, w.Seed)
			return PathVectorLinkFacts(g, mem.Addrs(), idx)
		},
		// Every node owns its bestcost rows: shortest path costs from
		// itself to every reachable peer.
		Lines: func(mem *cluster.Membership, idx int, ws *engine.Workspace) []string {
			byAddr := mem.Names()
			prin := func(v datalog.Value) string {
				if p, ok := byAddr[v.Str]; ok {
					return p
				}
				return v.Str
			}
			var lines []string
			for _, t := range ws.Tuples("bestcost") {
				if len(t) == 3 {
					lines = append(lines, fmt.Sprintf("bestcost\t%s\t%s\t%d", prin(t[0]), prin(t[1]), t[2].Int))
				}
			}
			return lines
		},
	},
	{
		Name: "hashjoin", Program: hashJoinProgram,
		// A tenth of the paper's tables (§8.2): 602 result rows.
		Run: func(n int, p core.PolicyConfig, seed int64, transport string) (*Outcome, error) {
			res, err := RunHashJoin(HashJoinConfig{N: n, SizeA: 90, SizeB: 80, JoinValues: 12, Policy: p, Seed: seed, Transport: transport})
			if err != nil {
				return nil, err
			}
			return counted(res.Cluster, res.Duration, res.ResultCount, res.ExpectedCount, "join rows at the initiator"), nil
		},
		// The paper's sizes unless the config overrides them.
		Facts: func(w cluster.WorkloadConfig, mem *cluster.Membership, idx int) []engine.Fact {
			hc := DefaultHashJoinConfig(len(mem.Members), core.PolicyConfig{}, w.Seed)
			if w.SizeA > 0 {
				hc.SizeA = w.SizeA
			}
			if w.SizeB > 0 {
				hc.SizeB = w.SizeB
			}
			if w.JoinValues > 0 {
				hc.JoinValues = w.JoinValues
			}
			common, parts, _ := HashJoinInput(hc, mem.Principals())
			return append(common, parts[idx]...)
		},
		// The full join result streams to the initiator (node 0); other
		// nodes own no result rows.
		Lines: func(_ *cluster.Membership, idx int, ws *engine.Workspace) []string {
			var lines []string
			if idx == 0 {
				for _, t := range ws.Tuples("joinresult") {
					if len(t) == 3 {
						lines = append(lines, fmt.Sprintf("joinresult\t%d\t%d\t%d", t[0].Int, t[1].Int, t[2].Int))
					}
				}
			}
			return lines
		},
	},
	{
		// Initiator, n-2 relays, table owner.
		Name: "anonjoin", Program: anonJoinProgram,
		Run: func(n int, p core.PolicyConfig, seed int64, transport string) (*Outcome, error) {
			res, err := runAnonJoin(AnonJoinConfig{Relays: n - 2, Interests: 10, PublicRows: 100, Overlap: 6, Seed: seed, Transport: transport}, p)
			if err != nil {
				return nil, err
			}
			return counted(res.Cluster, res.Duration, res.Results, res.Expected, "matches at the initiator"), nil
		},
	},
}

// counted is the outcome of a workload whose oracle is a result count.
func counted(c *core.Cluster, latency time.Duration, got, want int, what string) *Outcome {
	o := &Outcome{Cluster: c, Latency: latency, Answer: fmt.Sprintf("%d of %d %s", got, want, what)}
	if got != want {
		o.Wrong = errors.New("wrong result count")
	}
	return o
}

// Names lists the table's rows, for usage lines and error messages.
func Names() []string {
	names := make([]string, len(Workloads))
	for i, w := range Workloads {
		names[i] = w.Name
	}
	return names
}

// Lookup finds a row by name; the error of a miss lists the names there are.
func Lookup(name string) (*Workload, error) {
	for i := range Workloads {
		if Workloads[i].Name == name {
			return &Workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(Names(), ", "))
}
