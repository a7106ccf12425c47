package main

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"text/tabwriter"
	"time"

	"secureblox/internal/cluster"
	"secureblox/internal/obs"
)

// runTop implements `sbx top`: scrape /metrics from every node of a running
// deployment, one request each, and render one table row per node —
// principal and lifecycle state (sbx_lifecycle_state), txn counts and rate, traffic, retransmit/backoff activity, eviction count,
// fixpoint-round progress and inbound group commit (mean datagrams per inbound
// transaction, merged transactions that had to be replayed per datagram).
// Addresses come
// from the cluster config's debug_addr entries (-config) or are listed
// explicitly. -once prints a single table and exits (nonzero if any node
// failed to answer), the default refreshes every -interval.
func runTop(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("sbx top", stderr)
	once := fs.Bool("once", false, "print one table and exit (nonzero when any node fails to answer)")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval")
	configPath := fs.String("config", "", "cluster config (JSON); scrapes its nodes' debug_addr entries")
	timeout := fs.Duration("timeout", 3*time.Second, "per-node scrape timeout")
	if fs.Parse(args) != nil {
		return 2
	}

	addrs, err := collectorAddrs(*configPath, "", fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "sbx top: %v\n", err)
		return 1
	}
	if len(addrs) == 0 {
		fmt.Fprintln(stderr, "usage: sbx top [-once] [-interval 2s] [-config cluster.json | addr...]")
		return 2
	}

	client := &http.Client{Timeout: *timeout}
	var prev map[string]obs.NodeScrape
	for {
		scrapes := scrapeAll(client, addrs)
		failed := renderTop(stdout, scrapes, prev)
		if *once {
			if failed > 0 {
				return 1
			}
			return 0
		}
		prev = make(map[string]obs.NodeScrape, len(scrapes))
		for _, s := range scrapes {
			prev[s.Addr] = s
		}
		time.Sleep(*interval)
	}
}

// collectorAddrs merges the collector's address sources: a cluster
// config's debug_addr entries, a comma-separated -addrs value (split by
// the caller) and explicit positional addresses, deduplicated in order.
func collectorAddrs(configPath string, _ string, explicit []string) ([]string, error) {
	var addrs []string
	if configPath != "" {
		cfg, err := cluster.LoadConfig(configPath)
		if err != nil {
			return nil, err
		}
		addrs = append(addrs, cfg.DebugAddrs()...)
		if len(addrs) == 0 {
			return nil, fmt.Errorf("%s: no node declares a debug_addr", configPath)
		}
	}
	addrs = append(addrs, explicit...)
	seen := make(map[string]bool, len(addrs))
	out := addrs[:0]
	for _, a := range addrs {
		if a == "" || seen[a] {
			continue
		}
		seen[a] = true
		out = append(out, a)
	}
	return out, nil
}

// scrapeAll fetches every node concurrently; order follows addrs.
func scrapeAll(client *http.Client, addrs []string) []obs.NodeScrape {
	out := make([]obs.NodeScrape, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			out[i] = obs.ScrapeNode(client, addr)
		}(i, addr)
	}
	wg.Wait()
	return out
}

// renderTop prints the per-node table, returning how many nodes failed to
// answer. prev (the previous refresh, nil on the first) turns counter
// deltas into rates.
func renderTop(w io.Writer, scrapes []obs.NodeScrape, prev map[string]obs.NodeScrape) int {
	rows := append([]obs.NodeScrape(nil), scrapes...)
	sort.SliceStable(rows, func(i, j int) bool {
		pi, pj := rows[i].Principal, rows[j].Principal
		if pi != pj {
			return pi < pj
		}
		return rows[i].Addr < rows[j].Addr
	})
	fmt.Fprintf(w, "sbx top — %s — %d node(s)\n", time.Now().Format("15:04:05"), len(rows))
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "PRINCIPAL\tADDR\tSTATE\tTXNS\tTXN/S\tSENT\tRECV\tRETX\tBACKOFF\tEVICT\tROUNDS\tGOROUT\tRUN\tFALLBK")
	failed := 0
	for _, s := range rows {
		name := s.Principal
		if name == "" {
			name = "?"
		}
		if s.Err != nil {
			failed++
			fmt.Fprintf(tw, "%s\t%s\tunreachable\t-\t-\t-\t-\t-\t-\t-\t-\t-\t-\t-\n", name, s.Addr)
			continue
		}
		state := s.State
		if state == "" {
			state = "-"
		}
		rate := "-"
		if p, ok := prev[s.Addr]; ok && p.Err == nil {
			if dt := s.At.Sub(p.At).Seconds(); dt > 0 {
				rate = fmt.Sprintf("%.1f", (s.Counter("sbx_txns_total")-p.Counter("sbx_txns_total"))/dt)
			}
		}
		run := "-"
		if runs := s.Counter("sbx_inbound_run_messages_count"); runs > 0 {
			run = fmt.Sprintf("%.1f", s.Counter("sbx_inbound_run_messages_sum")/runs)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.0f\t%s\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%s\t%.0f\n",
			name, s.Addr, state,
			s.Counter("sbx_txns_total"), rate,
			s.Counter("sbx_msgs_sent_total"), s.Counter("sbx_msgs_recv_total"),
			s.Counter("sbx_transport_retransmits_total"), s.Counter("sbx_transport_backoffs_total"),
			s.Counter("sbx_cluster_evictions_total"), s.Counter("sbx_engine_fixpoint_rounds_total"),
			s.Counter("sbx_go_goroutines"),
			run, s.Counter("sbx_inbound_run_fallbacks_total"))
	}
	tw.Flush()
	return failed
}
