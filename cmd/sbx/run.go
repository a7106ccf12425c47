package main

import (
	"context"
	"fmt"
	"io"
	"strings"

	"secureblox/internal/apps"
	"secureblox/internal/cluster"
	"secureblox/internal/core"
	"secureblox/internal/seccrypto"
)

// runWorkload implements `sbx run`: one in-process run of one row of
// apps.Workloads under one scheme, at smoke size, through the row's one
// runner (Keys, Facts, fixpoint, Lines, Check). It prints the
// run's measurements, then the oracle's verdict, and exits nonzero on any
// violation or wrong answer — a run that computed nothing is never a
// success. Anything that is a measurement (trials, sizes, CDFs) is bench/
// and the BenchmarkFig* sweeps; `sbxnode -allinone -debugaddr` watches a
// live run.
func runWorkload(args []string, stdout, stderr io.Writer) int {
	misuse := func(err error) int {
		fmt.Fprintf(stderr, "sbx run: %v\nusage: sbx run <%s> [-scheme S] [-n N] [-seed K] [-transport mem|udp]\n",
			err, strings.Join(apps.Names(), "|"))
		return 2
	}
	if len(args) == 0 {
		return misuse(fmt.Errorf("no workload named"))
	}
	w, err := apps.Lookup(args[0])
	if err != nil {
		return misuse(err)
	}
	fs := newFlagSet("sbx run "+w.Name, stderr)
	scheme := fs.String("scheme", "NoAuth", "security scheme: NoAuth, HMAC or RSA, optionally with -batch and/or -AES (e.g. RSA-batch-AES)")
	n := fs.Int("n", 6, "cluster size (anonjoin: initiator, n-2 relays, table owner)")
	seed := fs.Int64("seed", 1, "random seed of the input and of the key material")
	transport := fs.String("transport", "mem", "mem (in-process network) or udp (real loopback sockets)")
	if fs.Parse(args[1:]) != nil {
		return 2
	}
	pol, err := core.ParsePolicyName(*scheme)
	if err != nil {
		return misuse(err)
	}
	if *n < 1 {
		return misuse(fmt.Errorf("-n %d: need at least one node", *n))
	}
	if fs.NArg() > 0 {
		return misuse(fmt.Errorf("unexpected arguments %q", fs.Args()))
	}
	net, err := core.NewNetwork(*transport)
	if err != nil {
		return misuse(err)
	}

	signs := seccrypto.SignOps()
	// A tenth of the paper's hash-join tables (§8.2): 602 result rows at
	// -n 3 -seed 7. Every other row reads only the seed.
	wc := cluster.WorkloadConfig{Name: w.Name, Seed: *seed, SizeA: 90, SizeB: 80, JoinValues: 12}
	out, err := w.Run(context.Background(), wc, *n, pol, net)
	if err != nil {
		return fail(stderr, err)
	}
	c := out.Cluster
	defer c.Stop()
	var txns int64
	for _, node := range c.Nodes {
		txns += node.Txns()
	}
	rejections := c.Rejections()
	fmt.Fprintf(stdout, "%s under %s: %d nodes, seed %d, %s\n", w.Name, pol.Name(), len(c.Nodes), *seed, *transport)
	fmt.Fprintf(stdout, "fixpoint latency  %v\n", out.Latency)
	fmt.Fprintf(stdout, "per-node traffic  %.1f KB\n", c.MeanNodeTrafficKB())
	fmt.Fprintf(stdout, "mean transaction  %v\n", c.MeanTxnDuration())
	fmt.Fprintf(stdout, "transactions      %d\n", txns)
	fmt.Fprintf(stdout, "rsa sign ops      %d\n", seccrypto.SignOps()-signs)
	fmt.Fprintf(stdout, "violations        %d\n", rejections)
	fmt.Fprintf(stdout, "oracle            %s\n", out.Answer)
	if rejections > 0 {
		return fail(stderr, fmt.Errorf("run %s under %s: %d violations, first: %v", w.Name, pol.Name(), rejections, c.Violations()[0]))
	}
	if out.Wrong != nil {
		return fail(stderr, fmt.Errorf("run %s under %s: oracle: %v", w.Name, pol.Name(), out.Wrong))
	}
	fmt.Fprintln(stdout, "ok")
	return 0
}
