// Command sbx is the SecureBlox compiler/runner CLI: it compiles a
// DatalogLB query together with BloxGenerics policy files, installs the
// result into a local workspace, and dumps the derived database. With
// -emit it prints the generated concrete program instead of running it.
//
// The vet subcommand runs the static analyzer (internal/analysis) instead
// of the engine: it prints safety, stratification, dead-rule, and
// co-partitioning findings with source positions and exits nonzero when any
// error-class finding is reported.
//
// The top and trace subcommands are the cluster collector: top scrapes
// /metrics and /healthz from every node of a running deployment and renders
// a live per-node table; trace fetches /debug/spans from every node (or
// reads -spandump files) and prints a derivation wave's causal tree.
//
// Usage:
//
//	sbx [-p policy.blox]... [-emit] [-dump pred1,pred2] query.dlb
//	sbx vet [-p policy.blox]... query.dlb...
//	sbx vet -builtin
//	sbx top [-once] [-interval 2s] [-config cluster.json | addr...]
//	sbx trace [-config cluster.json | -addrs a,b | -dump file...] [-list | <trace-id>]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"secureblox/internal/analysis"
	"secureblox/internal/apps"
	"secureblox/internal/core"
	"secureblox/internal/datalog"
	"secureblox/internal/engine"
	"secureblox/internal/generics"
	"secureblox/internal/seccrypto"
	"secureblox/internal/udf"
)

type policyList []string

func (p *policyList) String() string     { return strings.Join(*p, ",") }
func (p *policyList) Set(v string) error { *p = append(*p, v); return nil }

func main() {
	log.SetFlags(0)
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "vet":
			os.Exit(runVet(os.Args[2:]))
		case "top":
			os.Exit(runTop(os.Args[2:]))
		case "trace":
			os.Exit(runTrace(os.Args[2:]))
		}
	}
	runQuery(os.Args[1:])
}

// compileFile compiles one query file together with the given policy files.
func compileFile(policies []string, queryFile string) (*generics.Result, error) {
	querySrc, err := os.ReadFile(queryFile)
	if err != nil {
		return nil, err
	}
	gc := generics.NewCompiler()
	for _, pf := range policies {
		src, err := os.ReadFile(pf)
		if err != nil {
			return nil, err
		}
		if err := gc.AddPolicy(string(src)); err != nil {
			return nil, fmt.Errorf("%s: %w", pf, err)
		}
	}
	return gc.Compile(string(querySrc))
}

// runQuery is the classic compile-install-dump mode.
func runQuery(args []string) {
	fs := flag.NewFlagSet("sbx", flag.ExitOnError)
	var policies policyList
	fs.Var(&policies, "p", "BloxGenerics policy file (repeatable)")
	emit := fs.Bool("emit", false, "print the compiled concrete program and exit")
	dump := fs.String("dump", "", "comma-separated predicates to print (default: all non-empty)")
	self := fs.String("self", "local", "local principal name")
	fs.Parse(args)

	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: sbx [-p policy.blox]... [-emit] [-dump preds] query.dlb")
		os.Exit(2)
	}
	res, err := compileFile(policies, fs.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	if *emit {
		fmt.Print(res.Program.String())
		return
	}

	ks := seccrypto.NewKeyStore(*self)
	key, err := seccrypto.GenerateRSAKey(seccrypto.NewDeterministicRand(1))
	if err != nil {
		log.Fatal(err)
	}
	ks.SetPrivateKey(key)
	ks.AddPublicKey(*self, &key.PublicKey)
	reg, err := udf.NewRegistry(ks, seccrypto.NewDeterministicRand(2))
	if err != nil {
		log.Fatal(err)
	}
	ws := engine.NewWorkspace(reg)
	if err := ws.Install(res.Program); err != nil {
		log.Fatal(err)
	}
	for _, diag := range ws.Unstratified {
		fmt.Fprintln(os.Stderr, "warning:", diag)
	}

	var preds []string
	if *dump != "" {
		preds = strings.Split(*dump, ",")
	} else {
		for _, p := range ws.Predicates() {
			if ws.Count(p) > 0 {
				preds = append(preds, p)
			}
		}
	}
	sort.Strings(preds)
	for _, p := range preds {
		tuples := ws.Tuples(p)
		sort.Slice(tuples, func(i, j int) bool { return tuples[i].Key() < tuples[j].Key() })
		for _, t := range tuples {
			fmt.Printf("%s%s.\n", p, t)
		}
	}
}

// vetTarget is one program to analyze: a query file compiled with the -p
// policies, or a shipped rule set compiled the way its deployment compiles
// it.
type vetTarget struct {
	name string
	prog *datalog.Program
}

// builtinTargets compiles every shipped rule set under its deployment's
// policy pipeline — the programs CI vets on every change.
func builtinTargets() ([]vetTarget, error) {
	pol := core.PolicyConfig{Delegation: core.DelegateNone}
	var out []vetTarget
	for _, b := range []struct {
		name  string
		query string
		extra []string
	}{
		{"pathvector", apps.PathVectorQuery, nil},
		{"hashjoin", apps.HashJoinQuery, nil},
		{"anonjoin", apps.AnonJoinQuery, []string{apps.AnonPolicy}},
	} {
		res, err := core.CompileProgram(pol, b.query, b.extra)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", b.name, err)
		}
		out = append(out, vetTarget{b.name, res.Program})
	}
	return out, nil
}

// runVet implements `sbx vet`: run the static analyzer over each target,
// print findings with source positions, and exit nonzero when any target
// has error-class findings.
func runVet(args []string) int {
	fs := flag.NewFlagSet("sbx vet", flag.ExitOnError)
	var policies policyList
	fs.Var(&policies, "p", "BloxGenerics policy file (repeatable)")
	builtin := fs.Bool("builtin", false, "vet the shipped rule sets (pathvector, hashjoin, anonjoin) instead of files")
	fs.Parse(args)

	var targets []vetTarget
	if *builtin {
		var err error
		targets, err = builtinTargets()
		if err != nil {
			log.Print(err)
			return 1
		}
	} else {
		if fs.NArg() == 0 {
			fmt.Fprintln(os.Stderr, "usage: sbx vet [-p policy.blox]... query.dlb... | sbx vet -builtin")
			return 2
		}
		for _, qf := range fs.Args() {
			res, err := compileFile(policies, qf)
			if err != nil {
				log.Print(err)
				return 1
			}
			targets = append(targets, vetTarget{qf, res.Program})
		}
	}

	// Planning never evaluates a UDF, so an empty keystore provides the full
	// library's names and binding shapes without any key material.
	reg, err := udf.NewRegistry(seccrypto.NewKeyStore("vet"), nil)
	if err != nil {
		log.Print(err)
		return 1
	}
	a := &analysis.Analyzer{UDFs: reg}

	exit := 0
	for _, t := range targets {
		rep, err := a.Analyze(t.prog)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", t.name, err)
			exit = 1
			continue
		}
		if analysis.WriteFindings(os.Stdout, t.name, rep.Findings) > 0 {
			exit = 1
		}
	}
	return exit
}
