// Command sbxnode runs ONE SecureBlox principal as its own OS process —
// the deployment mode of the paper's evaluation cluster (§8), where every
// node is a separate machine. A declarative JSON config names the full
// expected membership (principals, listen addresses, RSA key files, policy,
// workload); each process loads the config, binds its configured address,
// joins the cluster through the bootstrap handshake (the seed — the
// config's first node — collects announcements and distributes the
// directory and key set), passes the ready barrier, runs
// the selected rule set to the distributed fixpoint, prints its result
// partition, and leaves gracefully.
//
// Usage:
//
//	sbxnode -genkeys -config cluster.json          # write the key files
//	sbxnode -vet -config cluster.json              # static pre-flight, no run
//	sbxnode -config cluster.json -node p0          # one process per node
//	sbxnode -config cluster.json -allinone         # every node in this process
//
// -allinone runs every principal of the config through that same path,
// concurrently in one process over the in-process simulated network.
// Result lines are tab-separated, principal-keyed and sorted, so the
// concatenated (and sorted) outputs of all processes are byte-identical to
// the -allinone run's — and to core.NewCluster's, the static-directory
// reference TestDeployments holds both to.
//
// Exit codes: 0 quiescence reached, 1 configuration or runtime error,
// 3 a peer stopped answering termination probes (typed detector failure —
// e.g. a process was killed mid-run; under on_failure "evict" the
// survivors instead drop the dead member and converge on the subset),
// 7 the -chaos plan crashed this process's own principal: the run ended
// where it stood, silenced at every member, and printed no result line.
package main

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"secureblox/internal/apps"
	"secureblox/internal/cluster"
	"secureblox/internal/core"
	"secureblox/internal/dist"
	"secureblox/internal/obs"
	"secureblox/internal/seccrypto"
	"secureblox/internal/transport"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line flags.
type options struct {
	configPath   string
	node         string
	allInOne     bool
	genKeys      bool
	vet          bool
	debugAddr    string
	dump         string
	logLevel     string
	timeout      time.Duration
	unresponsive time.Duration
	chaosPath    string
}

// errCrashed ends a run whose own principal the chaos plan crashed.
var errCrashed = errors.New("crashed by the chaos plan")

// run is main minus the process-global bits, so tests can drive it.
func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("sbxnode", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.configPath, "config", "", "cluster config file (JSON)")
	fs.StringVar(&o.node, "node", "", "principal this process runs as")
	fs.BoolVar(&o.allInOne, "allinone", false, "run every principal of the config in this process, each as -node runs it, over the simulated network")
	fs.BoolVar(&o.genKeys, "genkeys", false, "generate the RSA key files the config's key_file entries name, then exit")
	fs.BoolVar(&o.vet, "vet", false, "statically analyze the config's workload program and exit (nonzero on error findings)")
	fs.StringVar(&o.debugAddr, "debugaddr", "", "serve /metrics (lifecycle state included), /debug/spans|logs|pprof, /readyz and /healthz over HTTP on this address (e.g. 127.0.0.1:8300)")
	fs.StringVar(&o.dump, "dump", "", "on exit write the metrics registry (Prometheus text), the wave-trace span ring (a JSON array) and the log ring (JSON lines) to `DIR`/<principal>.{metrics,spans.json,logs.json} (-allinone: allinone.*); `sbx trace -dump` reads the spans file")
	fs.StringVar(&o.logLevel, "loglevel", "warn", "mirror log records at or above this level to stderr (debug|info|warn|error|off); the in-memory ring records every level regardless")
	fs.DurationVar(&o.timeout, "timeout", 0, "abort the run after this long (0: no limit)")
	fs.DurationVar(&o.unresponsive, "unresponsive", 15*time.Second, "declare a peer dead after it answers no probe for this long (0: wait forever)")
	fs.StringVar(&o.chaosPath, "chaos", "", "chaos fault-plan file (JSON): scripted drop/dup/garble/delay/reorder, partitions and crash windows injected below the reliable transport; a permanent crash of this node's principal ends its run with exit 7 (-node mode only)")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if o.configPath == "" {
		fmt.Fprintln(stderr, "sbxnode: -config is required")
		return 1
	}
	lvl, err := obs.LogLevel(o.logLevel)
	if err != nil {
		fmt.Fprintf(stderr, "sbxnode: -loglevel: %v\n", err)
		return 1
	}
	obs.SetMirror(stderr, lvl)
	cfg, err := cluster.LoadConfig(o.configPath)
	if err != nil {
		fmt.Fprintf(stderr, "sbxnode: %v\n", err)
		return 1
	}
	// The policy and the workload are resolved before any mode runs: an
	// unknown name, or key material the policy does not match, is rejected
	// before a key is written or a socket bound.
	w, pol, err := configWorkload(cfg)
	switch {
	case err != nil:
	case o.vet:
		err = vetWorkload(w, pol, stdout)
	case o.genKeys:
		err = generateKeys(cfg, pol, stdout)
	case o.allInOne:
		err = runAllInOne(cfg, w, pol, o, stdout)
	case o.node != "":
		err = runProcess(cfg, w, pol, o, stdout)
	default:
		err = fmt.Errorf("one of -node, -allinone, -genkeys or -vet is required")
	}
	if o.dump != "" {
		if werr := writeDumps(o.dump, o.node); werr != nil {
			fmt.Fprintf(stderr, "sbxnode: -dump: %v\n", werr)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "sbxnode: %v\n", err)
		var ue *dist.UnresponsiveError
		switch {
		case errors.Is(err, errCrashed):
			return 7
		case errors.As(err, &ue):
			return 3
		}
		return 1
	}
	return 0
}

// writeDumps writes the end-of-run registry, span ring and log ring to
// dir/<principal>.{metrics,spans.json,logs.json} — the offline counterparts
// of /metrics, /debug/spans and /debug/logs, for processes that exit before a
// collector can scrape them (end-of-run counters a live scrape races past).
func writeDumps(dir, principal string) error {
	if principal == "" {
		principal = "allinone"
	}
	spans, err := json.MarshalIndent(obs.Spans(), "", "  ")
	if err != nil {
		return err
	}
	var logs bytes.Buffer
	if err := obs.WriteLogs(&logs, obs.LogRecords()); err != nil {
		return err
	}
	base := filepath.Join(dir, principal)
	return errors.Join(
		os.WriteFile(base+".metrics", []byte(obs.Default().Render()), 0o644),
		os.WriteFile(base+".spans.json", append(spans, '\n'), 0o644),
		os.WriteFile(base+".logs.json", logs.Bytes(), 0o644))
}

// generateKeys writes one PEM key file per node that names one, so a
// config can be provisioned with `sbxnode -genkeys` before first start.
func generateKeys(cfg *cluster.Config, pol core.PolicyConfig, stdout *os.File) error {
	if pol.Auth != core.AuthRSA {
		return fmt.Errorf("policy %s uses no RSA keys", cfg.Policy)
	}
	var nodes []cluster.NodeConfig
	for _, n := range cfg.Nodes {
		if n.KeyFile != "" {
			nodes = append(nodes, n)
		}
	}
	keys, err := seccrypto.GenerateRSAKeys(len(nodes), rand.Reader)
	if err != nil {
		return fmt.Errorf("keygen: %w", err)
	}
	for i, n := range nodes {
		if err := seccrypto.WritePrivateKeyFile(n.KeyFile, keys[i]); err != nil {
			return fmt.Errorf("write key for %s: %w", n.Principal, err)
		}
		fmt.Fprintf(stdout, "wrote %s (%s)\n", n.KeyFile, n.Principal)
	}
	return nil
}

// signalContext derives the run's root context: cancelled by SIGINT or
// SIGTERM (context-based shutdown) and bounded by -timeout when set.
func signalContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	if timeout > 0 {
		tctx, tcancel := context.WithTimeout(ctx, timeout)
		return tctx, func() { tcancel(); cancel() }
	}
	return ctx, cancel
}

// runProcess is the -node path: one deployment process, with the lifecycle
// and debug server of its one principal, over strict UDP under the optional
// chaos plan.
func runProcess(cfg *cluster.Config, w *apps.Workload, pol core.PolicyConfig, o options, stdout *os.File) (retErr error) {
	ctx, cancel := signalContext(o.timeout)
	defer cancel()

	// The principal's lifecycle backs sbx_lifecycle_state, /readyz and
	// /healthz; the cluster runtime advances it through the run runNode drives.
	lc := obs.StartLifecycle(o.node)
	defer func() {
		if retErr != nil {
			lc.Fail()
		}
	}()

	debugAddr := o.debugAddr
	if debugAddr == "" {
		if i := cfg.NodeIndex(o.node); i >= 0 {
			debugAddr = cfg.Nodes[i].DebugAddr
		}
	}
	if debugAddr != "" {
		_, stop, err := obs.ServeDebug(debugAddr, nil)
		if err != nil {
			return err
		}
		defer stop()
	}

	udp := &transport.UDPNetwork{Strict: true}
	defer udp.Close()
	var chaos *transport.ChaosEngine
	if o.chaosPath != "" {
		data, err := os.ReadFile(o.chaosPath)
		if err != nil {
			return fmt.Errorf("chaos plan: %w", err)
		}
		plan, err := transport.ParseChaosPlan(data)
		if err != nil {
			return fmt.Errorf("chaos plan %s: %w", o.chaosPath, err)
		}
		chaos = transport.NewChaosEngine(plan)
		udp.Chaos = chaos
	}
	cp, err := compileWorkload(w, pol)
	if err != nil {
		return err
	}
	rt, err := cluster.NewRuntime(cfg, o.node, udp)
	if err != nil {
		return err
	}
	rt.Lifecycle = lc
	lines, err := runNode(ctx, rt, udp, chaos, w, cp, o)
	if err != nil {
		return err
	}
	writeLines(stdout, lines)
	return nil
}

// runAllInOne is the -allinone path: every principal of the config, each
// through the same runNode a deployment process runs, concurrently over one
// simulated network and bound to the one program compiled for them all. It
// prints the sorted union of their result lines. The seed's lifecycle is the
// one /metrics, /readyz and /healthz report.
func runAllInOne(cfg *cluster.Config, w *apps.Workload, pol core.PolicyConfig, o options, stdout *os.File) error {
	ctx, cancel := signalContext(o.timeout)
	defer cancel()
	// The first principal to fail ends everyone's run.
	ctx, fail := context.WithCancelCause(ctx)
	defer fail(nil)

	if o.debugAddr != "" {
		_, stop, err := obs.ServeDebug(o.debugAddr, nil)
		if err != nil {
			return err
		}
		defer stop()
	}

	cp, err := compileWorkload(w, pol)
	if err != nil {
		return err
	}
	mem := transport.NewMemNetwork()
	defer mem.Close()
	// Every endpoint is bound before any principal runs, so no announcement
	// waits out a resend for a seed that is not listening yet.
	rts := make([]*cluster.Runtime, len(cfg.Nodes))
	for i, n := range cfg.Nodes {
		rt, err := cluster.NewRuntime(cfg, n.Principal, mem)
		if err != nil {
			return err
		}
		rts[i] = rt
	}
	lc := obs.StartLifecycle(rts[0].Principal())
	rts[0].Lifecycle = lc

	lines := make([][]string, len(rts))
	var wg sync.WaitGroup
	for i, rt := range rts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if lines[i], err = runNode(ctx, rt, mem, nil, w, cp, o); err != nil {
				fail(err)
			}
		}()
	}
	wg.Wait()
	if err := context.Cause(ctx); err != nil {
		lc.Fail()
		return err
	}
	writeLines(stdout, slices.Concat(lines...))
	return nil
}

// runNode runs one principal of the config from its bound runtime to its
// departure — Join, assemble, Ready, run to the distributed fixpoint,
// DepartureBarrier, Leave — and returns its result lines. nw is the network
// rt was bound on; chaos, when set, is the plan nw injects; cp is the
// workload's program, compiled once per process.
func runNode(ctx context.Context, rt *cluster.Runtime, nw transport.Network, chaos *transport.ChaosEngine, w *apps.Workload, cp compiled, o options) (lines []string, retErr error) {
	cfg := rt.Config()
	bctx, bcancel := context.WithTimeout(ctx, cfg.Timeout())
	defer bcancel()
	mem, err := rt.Join(bctx)
	if err != nil {
		return nil, err
	}
	if chaos != nil {
		// The directory maps bound addresses to principals — the names the
		// plan's rules match against. Faults stay inert until Start below.
		chaos.Resolve(mem.Names())
	}

	// The workload's out-of-band key material, derived by every process
	// alone, then the same core.NodeAssembly path core.NewCluster runs N
	// times, run once over the Membership the join handshake established.
	if w.Keys != nil {
		if err := w.Keys(cfg.Workload, mem, rt.Index(), rt.KeyStore()); err != nil {
			return nil, err
		}
	}
	pol := cp.pol
	assembly := core.NodeAssembly{
		Policy:    pol,
		Program:   cp.prog,
		Directory: mem,
		Index:     rt.Index(),
		KeyStore:  rt.KeyStore(),
		Endpoint:  rt.Endpoint(),
		Seed:      cfg.Workload.Seed,
	}
	assembly.VerifyPool, assembly.SignPool = pol.Memos()
	node, err := assembly.Build()
	if err != nil {
		return nil, err
	}
	if err := rt.Ready(bctx); err != nil {
		return nil, err
	}
	rt.BindNode(node)

	// The detector runs per principal over its own endpoint: every node
	// independently proves the distributed fixpoint from wire-level probe
	// waves alone.
	host, _, _ := net.SplitHostPort(rt.Endpoint().Addr())
	detEp, err := nw.Listen(net.JoinHostPort(host, "0"))
	if err != nil {
		return nil, fmt.Errorf("detector endpoint: %w", err)
	}
	det := dist.NewDetector(detEp, mem.Addrs())
	det.Names = mem.Names()
	det.UnresponsiveAfter = o.unresponsive
	defer det.Close()
	rt.BindDetector(det)

	if chaos != nil {
		// Everyone passed Ready, so every process starts its plan clock at
		// (practically) the same instant — what makes timed partitions and
		// crash windows line up across the cluster.
		chaos.Start()
		if at, hang, ok := chaos.CrashAt(rt.Principal()); ok && hang == 0 {
			// A permanent crash scheduled for this principal ends the run
			// wherever it stands: every member's engine silences the node
			// from then on, and this one stops answering anyone.
			var crash context.CancelCauseFunc
			ctx, crash = context.WithCancelCause(ctx)
			defer crash(nil)
			t := time.AfterFunc(at, func() { crash(errCrashed) })
			defer t.Stop()
		}
	}
	defer func() {
		if retErr != nil && errors.Is(context.Cause(ctx), errCrashed) {
			retErr = errCrashed
		}
	}()

	node.Backlog = rt.EarlyTraffic()
	node.Start()
	defer node.Stop() // a no-op after Leave; on a failed run it joins the loops
	rt.MarkRunning()
	if facts := w.Facts(cfg.Workload, mem, rt.Index()); len(facts) > 0 {
		node.Assert(facts)
	}
	// Under on_failure "abort" a dead peer surfaces as the typed error and
	// ends the run (exit 3). Under "evict" the survivors prune the dead
	// member everywhere (node, detector, endpoint, barrier), gossip the
	// delta, and re-wait: the detector's per-peer report breakdowns let the
	// waves converge on the surviving subset.
	for {
		err := det.WaitQuiescent(ctx)
		if err == nil {
			break
		}
		var ue *dist.UnresponsiveError
		if !cfg.EvictOnFailure() || !errors.As(err, &ue) {
			return nil, err
		}
		// The eviction itself is logged by the runtime ("evicting
		// unresponsive"); the stderr mirror shows it at the default level.
		rt.EvictDead(ue)
	}

	// Departure barrier: keep answering peers' termination probes until
	// every member has proven the fixpoint too — the first process to
	// finish must not look crashed to marginally slower peers. A barrier
	// failure is reported but does not taint the run: this node's fixpoint
	// was proven.
	dctx, dcancel := context.WithTimeout(ctx, cfg.Timeout())
	defer dcancel()
	if err := rt.DepartureBarrier(dctx); err != nil {
		obs.L().With("principal", rt.Principal()).Warn("departure barrier failed", "err", err.Error())
	}

	// Graceful leave: drain the node's queued work (a no-op after a proven
	// fixpoint, load-bearing on cancellation paths), then stop. Stopping
	// also joins the transaction loop, which makes the workspace safe to
	// read for the result report below.
	lctx, lcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer lcancel()
	if err := rt.Leave(lctx, node); err != nil {
		return nil, err
	}
	if err := context.Cause(ctx); errors.Is(err, errCrashed) {
		return nil, err // a crashed node reports nothing
	}
	return w.Lines(mem, rt.Index(), node.WS), nil
}

// writeLines prints the run's result partition, sorted so output order is
// deterministic and concatenations of per-process outputs sort into the
// allinone reference byte-for-byte.
func writeLines(out *os.File, lines []string) {
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprintln(out, l)
	}
}
