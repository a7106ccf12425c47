package apps

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"secureblox/internal/cluster"
	"secureblox/internal/core"
	"secureblox/internal/datalog"
	"secureblox/internal/engine"
	"secureblox/internal/generics"
	"secureblox/internal/seccrypto"
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

// Workload is one row of the table of shipped use cases: its program, and
// what every way of running it — `sbx run`, a deployment, a test — feeds
// each node, reads out of each node and checks the answer against. Facts,
// Lines, Check and Keys are pure functions of the config, so that separate
// processes agree without exchanging a byte.
type Workload struct {
	Name string
	Program
	// MinNodes is the fewest nodes the row runs on beyond core's one, and
	// Roles what they are; Sized refuses fewer.
	MinNodes int
	Roles    string
	// Keys, where set, installs node idx's out-of-band key material before
	// the node runs.
	Keys func(w cluster.WorkloadConfig, mem *cluster.Membership, idx int, ks *seccrypto.KeyStore) error
	// Facts and Lines are node idx's share of the input and of the result
	// set in a cluster of mem's members. Lines are principal-keyed and
	// tab-separated and never carry an address: bound addresses are the one
	// thing a multi-process UDP run and its in-process reference do not
	// share.
	Facts func(w cluster.WorkloadConfig, mem *cluster.Membership, idx int) []engine.Fact
	Lines func(mem *cluster.Membership, idx int, ws *engine.Workspace) []string
	// Check is the row's oracle over the union of every node's Lines: what
	// it looked at, and why that is not the right answer (nil when it is).
	Check func(w cluster.WorkloadConfig, mem *cluster.Membership, lines []string) (answer string, wrong error)
}

// Outcome is one finished in-process run. The cluster is left open so its
// counters and tables can be read; the caller Stops it.
type Outcome struct {
	Cluster *core.Cluster
	Latency time.Duration
	// Answer and Wrong are the row's Check verdict.
	Answer string
	Wrong  error
}

// Workloads is the one list of what ships. `sbx run`, `sbx vet -builtin`,
// sbxnode and the tests read it; adding a row adds the workload to all of
// them.
var Workloads = []Workload{
	{
		Name: "pathvector", Program: pathVectorProgram,
		Facts: func(w cluster.WorkloadConfig, mem *cluster.Membership, idx int) []engine.Fact {
			return PathVectorLinkFacts(pathVectorGraph(w, len(mem.Members)), mem.Addrs(), idx)
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
		Check: pathVectorCheck,
	},
	{
		Name: "hashjoin", Program: hashJoinProgram,
		Facts: func(w cluster.WorkloadConfig, mem *cluster.Membership, idx int) []engine.Fact {
			common, parts, _ := HashJoinInput(hashJoinConfig(w, len(mem.Members)), mem.Principals())
			return append(common, parts[idx]...)
		},
		// The full join result streams to the initiator.
		Lines: initiatorLines("joinresult"),
		Check: func(w cluster.WorkloadConfig, mem *cluster.Membership, lines []string) (string, error) {
			_, _, want := HashJoinInput(hashJoinConfig(w, len(mem.Members)), mem.Principals())
			return tally(len(lines), want, "join rows at the initiator")
		},
	},
	{
		Name: "anonjoin", Program: anonJoinProgram,
		MinNodes: 3, Roles: "an initiator, at least one relay and a table owner",
		Keys: anonJoinKeys, Facts: anonJoinFacts,
		Lines: initiatorLines("result"),
		Check: func(_ cluster.WorkloadConfig, _ *cluster.Membership, lines []string) (string, error) {
			return tally(len(lines), anonOverlap, "matches at the initiator")
		},
	},
}

// initiatorLines reads out a result relation of integers that only the
// initiator, node 0, holds.
func initiatorLines(pred string) func(*cluster.Membership, int, *engine.Workspace) []string {
	return func(_ *cluster.Membership, idx int, ws *engine.Workspace) []string {
		var lines []string
		if idx == 0 {
			for _, t := range ws.Tuples(pred) {
				line := pred
				for _, v := range t {
					line += fmt.Sprintf("\t%d", v.Int)
				}
				lines = append(lines, line)
			}
		}
		return lines
	}
}

// tally is a count oracle's verdict: got of want rows.
func tally(got, want int, what string) (string, error) {
	answer := fmt.Sprintf("%d of %d %s", got, want, what)
	if got != want {
		return answer, errors.New("wrong result count")
	}
	return answer, nil
}

// Sized refuses a cluster of n nodes too small for the row.
func (w *Workload) Sized(n int) error {
	if n < w.MinNodes {
		return fmt.Errorf("%s: %d nodes, need %s", w.Name, n, w.Roles)
	}
	return nil
}

// newCluster builds the row's cluster of n nodes over net (nil: a fresh
// memnet) under scheme p, every node's Keys installed, unstarted.
func (w *Workload) newCluster(wc cluster.WorkloadConfig, n int, p core.PolicyConfig, net transport.Network) (*core.Cluster, error) {
	if err := w.Sized(n); err != nil {
		if net != nil {
			net.Close()
		}
		return nil, err
	}
	c, err := core.NewCluster(w.ClusterConfig(n, p, wc.Seed, net))
	if err != nil || w.Keys == nil {
		return c, err
	}
	for i, ks := range c.KeyStores {
		if err := w.Keys(wc, c.Directory, i, ks); err != nil {
			c.Stop()
			return nil, err
		}
	}
	return c, nil
}

// Run is the one in-process way to run a row on n nodes over net (nil: a
// fresh memnet) under scheme p: the cluster with every node's Keys, every
// node's Facts asserted once the cluster runs, the distributed fixpoint,
// then Check over every node's Lines. The caller Stops the outcome's
// cluster; on an error net is closed.
func (w *Workload) Run(ctx context.Context, wc cluster.WorkloadConfig, n int, p core.PolicyConfig, net transport.Network) (*Outcome, error) {
	c, err := w.newCluster(wc, n, p, net)
	if err != nil {
		return nil, err
	}
	c.Start()
	for i := range c.Nodes {
		if facts := w.Facts(wc, c.Directory, i); len(facts) > 0 {
			c.AssertAt(i, facts)
		}
	}
	latency, err := c.WaitFixpointCtx(ctx)
	if err != nil {
		c.Stop()
		return nil, err
	}
	var lines []string
	for i, node := range c.Nodes {
		lines = append(lines, w.Lines(c.Directory, i, node.WS)...)
	}
	o := &Outcome{Cluster: c, Latency: latency}
	o.Answer, o.Wrong = w.Check(wc, c.Directory, lines)
	return o, nil
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
