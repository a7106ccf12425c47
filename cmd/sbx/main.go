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
// reads the span files sbxnode -dump writes) and prints a derivation wave's
// causal tree.
//
// The run subcommand launches one shipped workload (a row of
// apps.Workloads) in-process under one security scheme, prints the run's
// measurements and gates on the workload's oracle: it exits non-zero on any
// violation or wrong answer.
//
// Usage:
//
//	sbx [-p policy.blox]... [-emit] [-dump pred1,pred2] query.dlb
//	sbx run <workload> [-scheme S] [-n N] [-seed K] [-transport mem|udp]
//	sbx vet [-p policy.blox]... query.dlb...
//	sbx vet -builtin
//	sbx top [-once] [-interval 2s] [-config cluster.json | addr...]
//	sbx trace [-config cluster.json | -addrs a,b | -dump file...] [-list | <trace-id>]
package main

import (
	"flag"
	"fmt"
	"io"
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process-global bits, so tests can drive it. Exit
// codes: 0 success, 1 the command failed, 2 it was misused.
func run(args []string, stdout, stderr io.Writer) int {
	cmd := runQuery
	if len(args) > 0 {
		sub := map[string]func([]string, io.Writer, io.Writer) int{
			"run": runWorkload, "vet": runVet, "top": runTop, "trace": runTrace,
		}[args[0]]
		if sub != nil {
			cmd, args = sub, args[1:]
		}
	}
	return cmd(args, stdout, stderr)
}

// newFlagSet returns a flag set that reports misuse on stderr and leaves
// exiting to the caller.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// fail prints a command's error and returns its exit code.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "sbx:", err)
	return 1
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
func runQuery(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("sbx", stderr)
	var policies policyList
	fs.Var(&policies, "p", "BloxGenerics policy file (repeatable)")
	emit := fs.Bool("emit", false, "print the compiled concrete program and exit")
	dump := fs.String("dump", "", "comma-separated predicates to print (default: all non-empty)")
	self := fs.String("self", "local", "local principal name")
	if fs.Parse(args) != nil {
		return 2
	}

	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: sbx [-p policy.blox]... [-emit] [-dump preds] query.dlb")
		return 2
	}
	res, err := compileFile(policies, fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	if *emit {
		fmt.Fprint(stdout, res.Program.String())
		return 0
	}

	ks := seccrypto.NewKeyStore(*self)
	key, err := seccrypto.GenerateRSAKey(seccrypto.NewDeterministicRand(1))
	if err != nil {
		return fail(stderr, err)
	}
	ks.SetPrivateKey(key)
	ks.AddPublicKey(*self, &key.PublicKey)
	reg, err := udf.NewRegistry(ks, seccrypto.NewDeterministicRand(2))
	if err != nil {
		return fail(stderr, err)
	}
	ws := engine.NewWorkspace(reg)
	if err := ws.Install(res.Program); err != nil {
		return fail(stderr, err)
	}
	for _, diag := range ws.Unstratified {
		fmt.Fprintln(stderr, "warning:", diag)
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
			fmt.Fprintf(stdout, "%s%s.\n", p, t)
		}
	}
	return 0
}

// vetTarget is one program to analyze: a query file compiled with the -p
// policies, or a shipped rule set compiled the way its deployment compiles
// it.
type vetTarget struct {
	name string
	prog *datalog.Program
}

// runVet implements `sbx vet`: run the static analyzer over each target,
// print findings with source positions and one verdict line per target, and
// exit nonzero when any target has error-class findings.
func runVet(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("sbx vet", stderr)
	var policies policyList
	fs.Var(&policies, "p", "BloxGenerics policy file (repeatable)")
	builtin := fs.Bool("builtin", false, "vet every row of the shipped workload table, compiled as its deployments compile it, instead of files")
	if fs.Parse(args) != nil {
		return 2
	}

	var targets []vetTarget
	if *builtin {
		for _, w := range apps.Workloads {
			res, err := w.Compile(core.PolicyConfig{})
			if err != nil {
				return fail(stderr, fmt.Errorf("%s: %v", w.Name, err))
			}
			targets = append(targets, vetTarget{w.Name, res.Program})
		}
	} else {
		if fs.NArg() == 0 {
			fmt.Fprintln(stderr, "usage: sbx vet [-p policy.blox]... query.dlb... | sbx vet -builtin")
			return 2
		}
		for _, qf := range fs.Args() {
			res, err := compileFile(policies, qf)
			if err != nil {
				return fail(stderr, err)
			}
			targets = append(targets, vetTarget{qf, res.Program})
		}
	}

	// Planning never evaluates a UDF, so an empty keystore provides the full
	// library's names and binding shapes without any key material.
	reg, err := udf.NewRegistry(seccrypto.NewKeyStore("vet"), nil)
	if err != nil {
		return fail(stderr, err)
	}
	a := &analysis.Analyzer{UDFs: reg}

	exit := 0
	for _, t := range targets {
		rep, err := a.Analyze(t.prog)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", t.name, err)
			exit = 1
			continue
		}
		if n := analysis.WriteFindings(stdout, t.name, rep.Findings); n > 0 {
			fmt.Fprintf(stdout, "vet: %s: %d error finding(s)\n", t.name, n)
			exit = 1
		} else {
			fmt.Fprintf(stdout, "vet: %s: ok\n", t.name)
		}
	}
	return exit
}
