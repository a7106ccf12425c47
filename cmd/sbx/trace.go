package main

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"secureblox/internal/obs"
)

// runTrace implements `sbx trace`: merge the span rings of every node of a
// deployment — fetched live from /debug/spans (-config/-addrs) or read
// from the <principal>.spans.json files `sbxnode -dump` writes (-dump) — and
// render one derivation wave's causal tree with per-stage latencies. With
// -list (or no trace ID) it prints a summary of every trace seen instead,
// deepest waves first.
func runTrace(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("sbx trace", stderr)
	configPath := fs.String("config", "", "cluster config (JSON); fetches spans from its nodes' debug_addr entries")
	addrsFlag := fs.String("addrs", "", "comma-separated debug addresses to fetch /debug/spans from")
	var dumps policyList
	fs.Var(&dumps, "dump", "span dump file (<principal>.spans.json) written by sbxnode -dump (repeatable)")
	list := fs.Bool("list", false, "list every trace in the merged spans instead of rendering one")
	timeout := fs.Duration("timeout", 3*time.Second, "per-node fetch timeout")
	if fs.Parse(args) != nil {
		return 2
	}

	var explicit []string
	for _, a := range strings.Split(*addrsFlag, ",") {
		if a = strings.TrimSpace(a); a != "" {
			explicit = append(explicit, a)
		}
	}
	addrs, err := collectorAddrs(*configPath, "", explicit)
	if err != nil {
		fmt.Fprintf(stderr, "sbx trace: %v\n", err)
		return 1
	}
	if len(addrs) == 0 && len(dumps) == 0 {
		fmt.Fprintln(stderr, "usage: sbx trace [-config cluster.json | -addrs a,b | -dump file...] [-list | <trace-id>]")
		return 2
	}

	// The trace ID is parsed before any fetching so a typo fails fast.
	var id uint64
	if !*list && fs.NArg() > 0 {
		id, err = strconv.ParseUint(fs.Arg(0), 10, 64)
		if err != nil || id == 0 {
			fmt.Fprintf(stderr, "sbx trace: bad trace id %q\n", fs.Arg(0))
			return 2
		}
	}

	client := &http.Client{Timeout: *timeout}
	var all []obs.Span
	for _, addr := range addrs {
		spans, err := obs.FetchSpans(client, addr, id)
		if err != nil {
			fmt.Fprintf(stderr, "sbx trace: %s: %v\n", addr, err)
			return 1
		}
		all = append(all, spans...)
	}
	for _, path := range dumps {
		spans, err := obs.ReadSpanDump(path)
		if err != nil {
			fmt.Fprintf(stderr, "sbx trace: %v\n", err)
			return 1
		}
		all = append(all, spans...)
	}

	if *list || id == 0 {
		sums := obs.SummarizeTraces(all)
		if len(sums) == 0 {
			fmt.Fprintln(stderr, "sbx trace: no spans found")
			return 1
		}
		fmt.Fprintln(stdout, "TRACE\tSPANS\tNODES\tDEPTH\tSTART")
		for _, s := range sums {
			fmt.Fprintf(stdout, "%d\t%d\t%d\t%d\t%s\n", s.Trace, s.Spans, s.Nodes, s.Depth,
				s.Start.Format("15:04:05.000"))
		}
		return 0
	}

	root := obs.BuildWave(id, all)
	if root == nil {
		fmt.Fprintf(stderr, "sbx trace: no spans for trace %d\n", id)
		return 1
	}
	fmt.Fprintf(stdout, "trace %d: %d spans across %d node(s), depth %d\n",
		id, root.SpanCount(), len(root.Participants()), root.Depth())
	obs.WriteWaveASCII(stdout, root)
	return 0
}
