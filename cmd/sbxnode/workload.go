package main

import (
	"fmt"
	"os"

	"secureblox/internal/analysis"
	"secureblox/internal/apps"
	"secureblox/internal/cluster"
	"secureblox/internal/core"
	"secureblox/internal/datalog"
	"secureblox/internal/engine"
	"secureblox/internal/graph"
	"secureblox/internal/seccrypto"
	"secureblox/internal/udf"
)

// workloadProgram returns what every mode compiles: the policy the config
// names and the rule set of its workload.
func workloadProgram(cfg *cluster.Config) (core.PolicyConfig, string, error) {
	pol, err := core.PolicyFromSpec(cfg.Spec())
	if err != nil {
		return pol, "", err
	}
	pol.Delegation = core.DelegateNone // both workloads import themselves
	switch cfg.Workload.Name {
	case "pathvector":
		return pol, apps.PathVectorQuery, nil
	case "hashjoin":
		return pol, apps.HashJoinQuery, nil
	default:
		return pol, "", fmt.Errorf("unknown workload %q", cfg.Workload.Name)
	}
}

// vetWorkload is the -vet pre-flight: compile the config's workload under
// its policy exactly as the run modes would, run the static analyzer, print
// every finding, and fail when any error-class finding is reported — so a
// bad program is caught before N processes are launched against it.
func vetWorkload(cfg *cluster.Config, stdout *os.File) error {
	pol, query, err := workloadProgram(cfg)
	if err != nil {
		return err
	}
	res, err := core.CompileProgram(pol, query, nil)
	if err != nil {
		return err
	}
	// Planning never evaluates a UDF, so an empty keystore provides the
	// library's names and binding shapes without the configured key files.
	reg, err := udf.NewRegistry(seccrypto.NewKeyStore("vet"), nil)
	if err != nil {
		return err
	}
	rep, err := (&analysis.Analyzer{UDFs: reg}).Analyze(res.Program)
	if err != nil {
		return err
	}
	if n := analysis.WriteFindings(stdout, cfg.Workload.Name, rep.Findings); n > 0 {
		return fmt.Errorf("vet: workload %s (%s): %d error finding(s)", cfg.Workload.Name, pol.Name(), n)
	}
	fmt.Fprintf(stdout, "vet: workload %s (%s): ok\n", cfg.Workload.Name, pol.Name())
	return nil
}

// hashJoinConfig maps the deployment config onto the experiment's
// parameters: the paper's defaults (§8.2) unless the config overrides them.
func hashJoinConfig(cfg *cluster.Config, n int) apps.HashJoinConfig {
	hc := apps.DefaultHashJoinConfig(n, core.PolicyConfig{}, cfg.Workload.Seed)
	if cfg.Workload.SizeA > 0 {
		hc.SizeA = cfg.Workload.SizeA
	}
	if cfg.Workload.SizeB > 0 {
		hc.SizeB = cfg.Workload.SizeB
	}
	if cfg.Workload.JoinValues > 0 {
		hc.JoinValues = cfg.Workload.JoinValues
	}
	return hc
}

// workloadFacts builds node idx's partition of the workload's base facts,
// using the same deterministic input generators as the in-process
// experiment harness (internal/apps) — everything is a pure function of
// the config, so separate processes agree on the global input without
// exchanging a byte of it.
func workloadFacts(cfg *cluster.Config, mem *cluster.Membership, idx int) ([]engine.Fact, error) {
	switch cfg.Workload.Name {
	case "pathvector":
		degree := cfg.Workload.Degree
		if degree <= 0 {
			degree = 3
		}
		g := graph.RandomConnected(len(mem.Members), degree, cfg.Workload.Seed)
		return apps.PathVectorLinkFacts(g, mem.Addrs(), idx), nil
	case "hashjoin":
		common, parts, _ := apps.HashJoinInput(hashJoinConfig(cfg, len(mem.Members)), mem.Principals())
		return append(common, parts[idx]...), nil
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.Workload.Name)
}

// workloadResults renders node idx's partition of the final result set as
// principal-keyed, tab-separated lines. Addresses never appear: the lines
// of a multi-process UDP run and of the in-process memnet reference must
// be byte-identical, and bound addresses are the one thing the two modes
// do not share.
func workloadResults(cfg *cluster.Config, mem *cluster.Membership, idx int, ws *engine.Workspace) ([]string, error) {
	byAddr := mem.Names()
	prin := func(v datalog.Value) string {
		if p, ok := byAddr[v.Str]; ok {
			return p
		}
		return v.Str
	}
	var lines []string
	switch cfg.Workload.Name {
	case "pathvector":
		// Every node owns its bestcost rows: shortest path costs from
		// itself to every reachable peer.
		for _, t := range ws.Tuples("bestcost") {
			if len(t) != 3 {
				continue
			}
			lines = append(lines, fmt.Sprintf("bestcost\t%s\t%s\t%d", prin(t[0]), prin(t[1]), t[2].Int))
		}
	case "hashjoin":
		// The full join result streams to the initiator (node 0); other
		// nodes own no result rows.
		if idx == 0 {
			for _, t := range ws.Tuples("joinresult") {
				if len(t) != 3 {
					continue
				}
				lines = append(lines, fmt.Sprintf("joinresult\t%d\t%d\t%d", t[0].Int, t[1].Int, t[2].Int))
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload.Name)
	}
	return lines, nil
}
