package core

import (
	"context"
	"fmt"
	"time"

	"secureblox/internal/cluster"
	"secureblox/internal/datalog"
	"secureblox/internal/dist"
	"secureblox/internal/engine"
	"secureblox/internal/generics"
	"secureblox/internal/obs"
	"secureblox/internal/par"
	"secureblox/internal/seccrypto"
	"secureblox/internal/transport"
)

// ClusterConfig describes a distributed SecureBlox deployment over any
// transport.Network — the in-process simulated network by default, real
// UDP sockets via transport.NewUDPNetwork().
type ClusterConfig struct {
	// N is the number of SecureBlox instances (one principal each).
	N int
	// Policy is the security configuration compiled into the query.
	Policy PolicyConfig
	// Query is the user's DatalogLB program, including its exportable(...)
	// facts.
	Query string
	// ExtraPolicies are additional BloxGenerics sources (e.g. the
	// anonymity policy).
	ExtraPolicies []string
	// Seed makes reproducible what can be: runs with equal seeds see identical
	// pairwise shared secrets (the HMAC and AES keys) and identical UDF
	// randomness (onion-layer IVs); entity ids are partitioned by node index
	// and do not depend on it. RSA keypairs are not reproducible — the key
	// rsa.GenerateKey returns deliberately does not depend deterministically
	// on the bytes it reads, and the N keypairs are generated concurrently
	// over the one seeded reader (serialised; the secrets are drawn from it
	// first) — so under AuthRSA every run signs with fresh keys and ships
	// different signature bytes.
	Seed int64
	// GrantWriteAccess, with Policy.Authorization, grants
	// writeAccess[T](P) for every exportable T and cluster principal P.
	GrantWriteAccess bool
	// Net is the transport the cluster runs over. Nil means a fresh
	// in-process MemNetwork. The cluster takes ownership: Stop closes it.
	Net transport.Network
}

// Cluster is a set of SecureBlox nodes over one network, plus the compiled
// program they all run. Fixpoint detection is fully distributed: a
// wire-level termination detector shares the nodes' transport and no
// in-process state. NewCluster builds statically the same
// cluster.Membership that multi-process deployments establish through the
// join handshake — the per-node assembly below the directory
// (NodeAssembly.Build) is one shared code path — so it is the independent
// reference a deployment's results are compared against.
type Cluster struct {
	Cfg        ClusterConfig
	Net        transport.Network
	Nodes      []*dist.Node
	Principals []string
	// Addrs are the nodes' actual transport addresses (indexed like
	// Nodes). Over memnet they equal NodeAddr(i); over real sockets they
	// are whatever the endpoints bound, so always prefer Addrs over
	// NodeAddr when building address-valued facts.
	Addrs []string
	// Compiled is the program every node runs, Program its engine plans,
	// compiled once and bound by every node's workspace.
	Compiled *generics.Result
	Program  *engine.Program
	// Directory is the cluster's principal directory — the same
	// abstraction a multi-process deployment receives from the bootstrap
	// handshake, built statically here because every endpoint lives in
	// this process.
	Directory *cluster.Membership
	// KeyStores holds each node's key material (indexed like Nodes), so
	// applications can install additional keys (e.g. onion-circuit keys)
	// before Start.
	KeyStores []*seccrypto.KeyStore

	det *dist.Detector

	started  bool
	startAt  time.Time
	stopOnce bool
}

// PrincipalName returns the i-th cluster principal's identity.
func PrincipalName(i int) string { return fmt.Sprintf("p%d", i) }

// NodeAddr returns the i-th node's address hint. Memnet honours it
// verbatim; socket-backed networks bind their own address instead.
func NodeAddr(i int) string { return fmt.Sprintf("10.0.0.%d:7000", i+1) }

// detectorAddr is the address hint for the termination detector's own
// endpoint, outside the NodeAddr range.
const detectorAddr = "10.0.255.254:7999"

// NewNetwork builds a transport.Network by name: "" or "mem" for the
// in-process simulated network, "udp" for real loopback UDP sockets with
// the reliable ack/retransmit layer. This is the single switch the
// benchmark CLIs expose as -transport.
func NewNetwork(name string) (transport.Network, error) {
	switch name {
	case "", "mem":
		return transport.NewMemNetwork(), nil
	case "udp":
		return transport.NewUDPNetwork(), nil
	default:
		return nil, fmt.Errorf("core: unknown transport %q (want mem or udp)", name)
	}
}

// NewCluster compiles the query with the policy via BloxGenerics and plans it
// once, opens one endpoint per node on the configured network (plus one for
// the termination detector), builds N workspaces with per-node keystore-bound
// UDFs that each bind the one program, and asserts the principal directory
// and key material — keypairs and node assemblies GOMAXPROCS at a time (par.Do), as
// the deployment's machines each do their own at once. The directory carries
// the endpoints' real bound addresses, so the same scenario runs unchanged
// over memnet and UDP. Principals are PrincipalName(i) listening at
// NodeAddr(i), with key material generated from cfg.Seed (see
// ClusterConfig.Seed for what that reproduces).
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	net := cfg.Net
	if net == nil {
		net = transport.NewMemNetwork()
	}
	c := &Cluster{Cfg: cfg, Net: net}
	// On any construction error, release what was already acquired: the
	// network owns every endpoint handed out (including the detector's).
	// Callers only get the error, so nothing else could clean it up.
	built := false
	defer func() {
		if !built {
			net.Close()
		}
	}()
	if cfg.N <= 0 {
		return nil, fmt.Errorf("cluster: N must be positive, got %d", cfg.N)
	}
	for i := 0; i < cfg.N; i++ {
		c.Principals = append(c.Principals, PrincipalName(i))
	}
	// RSA keypairs only for the policy that signs with them: generating
	// them dominates cluster set-up, and no other policy reads a key.
	t := time.Now()
	newSetup := seccrypto.NewSecretSetup
	if cfg.Policy.Auth == AuthRSA {
		newSetup = seccrypto.NewTrustSetup
	}
	ts, err := newSetup(c.Principals, seccrypto.NewDeterministicRand(cfg.Seed+1))
	if err != nil {
		return nil, err
	}
	keys := time.Since(t)
	// Endpoints first: socket-backed networks only know their addresses
	// after binding, and the principal directory must carry real ones. The
	// directory is built statically here, where multi-process deployments
	// establish it through the bootstrap handshake (cluster.Runtime).
	eps := make([]transport.Transport, cfg.N)
	c.Directory = &cluster.Membership{Members: make([]cluster.Member, cfg.N)}
	for i, p := range c.Principals {
		ep, err := net.Listen(NodeAddr(i))
		if err != nil {
			return nil, fmt.Errorf("cluster: listen for node %s: %w", p, err)
		}
		eps[i] = ep
		ks := ts.Stores[p]
		c.Addrs = append(c.Addrs, ep.Addr())
		c.KeyStores = append(c.KeyStores, ks)
		c.Directory.Members[i] = cluster.Member{Principal: p, Addr: ep.Addr(), PubKeyDER: ks.PublicKeyDER(p)}
	}
	detEp, err := net.Listen(detectorAddr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen for detector: %w", err)
	}
	c.det = dist.NewDetector(detEp, c.Addrs)
	c.det.Names = c.Directory.Names()

	// Compile and plan once: the program is identical on every node.
	t = time.Now()
	c.Compiled, err = CompileProgram(cfg.Policy, cfg.Query, cfg.ExtraPolicies)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	c.Program, err = CompileEngine(c.Compiled)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	compile := time.Since(t)

	// The RSA memos every node of the cluster shares: rsa_verify and
	// rsa_verify_batch remember what they checked, rsa_sign and batch mode's
	// group signatures what they signed.
	var vpool *seccrypto.VerifyPool
	var spool *seccrypto.SignPool
	if cfg.Policy.Auth == AuthRSA {
		vpool, spool = seccrypto.NewVerifyPool(), seccrypto.NewSignPool()
	}

	// Every node binds the program and runs its set-up at the same time, as
	// the deployment's machines do; each writes only its own slot.
	c.Nodes = make([]*dist.Node, cfg.N)
	t = time.Now()
	err = par.Do(cfg.N, func(i int) error {
		n, err := NodeAssembly{
			Policy:           cfg.Policy,
			Compiled:         c.Compiled,
			Program:          c.Program,
			Directory:        c.Directory,
			Index:            i,
			KeyStore:         c.KeyStores[i],
			Endpoint:         eps[i],
			VerifyPool:       vpool,
			SignPool:         spool,
			Seed:             cfg.Seed,
			GrantWriteAccess: cfg.GrantWriteAccess,
		}.Build()
		if err != nil {
			return fmt.Errorf("cluster: node %s: %w", c.Principals[i], err)
		}
		c.Nodes[i] = n
		return nil
	})
	if err != nil {
		return nil, err
	}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
	obs.L().Info("cluster set up", "nodes", cfg.N, "workers", par.Workers(cfg.N),
		"keys_ms", ms(keys), "compile_ms", ms(compile), "assemble_ms", ms(time.Since(t)))
	built = true
	return c, nil
}

// MemNet returns the underlying MemNetwork when the cluster runs over the
// simulated transport, nil otherwise. Tests use it for fault injection.
func (c *Cluster) MemNet() *transport.MemNetwork {
	m, _ := c.Net.(*transport.MemNetwork)
	return m
}

// Start launches every node's transaction loop and marks the experiment's
// start time.
func (c *Cluster) Start() {
	if c.started {
		return
	}
	c.started = true
	c.startAt = time.Now()
	for _, n := range c.Nodes {
		n.Start()
	}
}

// Stop shuts all nodes, the detector and the network down.
func (c *Cluster) Stop() {
	if c.stopOnce {
		return
	}
	c.stopOnce = true
	for _, n := range c.Nodes {
		n.Stop()
	}
	c.det.Close()
	c.Net.Close()
}

// AssertAt enqueues base facts at node i.
func (c *Cluster) AssertAt(i int, facts []engine.Fact) {
	c.Nodes[i].Assert(facts)
}

// cDetectionLag is, per proven fixpoint, the time from the last commit or
// violation of any node to the detector's proof: what termination detection
// adds to a run's fixpoint latency. Registered at init so it renders (empty)
// on /metrics before the first proof.
var cDetectionLag *obs.Histogram

func init() {
	r := obs.Default()
	r.Help("sbx_detection_lag_seconds", "Time from the last node commit or violation to the detector's proof of the fixpoint.")
	cDetectionLag = r.Histogram("sbx_detection_lag_seconds", nil, nil)
}

// WaitFixpoint blocks until the wire-level termination detector proves
// that no node has outstanding work and no message is in flight, returning
// the elapsed time since Start — the paper's fixpoint latency metric. It
// must not be called after Stop; if Stop races the wait and closes the
// detector first, no fixpoint was proven and the returned duration is
// zero rather than a fake measurement.
func (c *Cluster) WaitFixpoint() time.Duration {
	d, _ := c.WaitFixpointCtx(context.Background())
	return d
}

// WaitFixpointCtx is WaitFixpoint with cancellation and a typed failure: a
// zero duration plus dist.ErrDetectorClosed when Stop raced the wait, a
// *dist.UnresponsiveError naming the dead principal when a node stops
// answering probes, or ctx's error. Once it returns without error, the
// caller's reads of the nodes' workspaces are ordered after every commit.
func (c *Cluster) WaitFixpointCtx(ctx context.Context) (time.Duration, error) {
	if err := c.det.WaitQuiescent(ctx); err != nil {
		return 0, err
	}
	proof := time.Now()
	d := proof.Sub(c.startAt)
	var last time.Time
	for _, n := range c.Nodes {
		if la := n.LastActivity(); la.After(last) {
			last = la
		}
	}
	if !last.IsZero() {
		cDetectionLag.Observe(proof.Sub(last).Seconds())
	}
	// Over real sockets the reports that proved quiescence order nothing in
	// the Go memory model; each node's idle state, read through Drain, does.
	for _, n := range c.Nodes {
		if err := n.Drain(ctx); err != nil {
			return 0, err
		}
	}
	return d, nil
}

// StartTime returns the experiment start timestamp.
func (c *Cluster) StartTime() time.Time { return c.startAt }

// PerNodeTraffic returns, per node, the sum of application bytes sent and
// received — the paper's per-node communication overhead metric. Control
// traffic (termination probes, transport acks) is excluded, so the numbers
// are comparable across transports.
func (c *Cluster) PerNodeTraffic() []int64 {
	out := make([]int64, len(c.Nodes))
	for i, n := range c.Nodes {
		out[i] = n.BytesSent() + n.BytesRecv()
	}
	return out
}

// MeanNodeTrafficKB returns the average per-node traffic in kilobytes.
func (c *Cluster) MeanNodeTrafficKB() float64 {
	var total int64
	for _, b := range c.PerNodeTraffic() {
		total += b
	}
	return float64(total) / float64(len(c.Nodes)) / 1024
}

// MeanTxnDuration returns the average local transaction duration across all
// nodes (paper Figure 7).
func (c *Cluster) MeanTxnDuration() time.Duration {
	var total time.Duration
	var count int64
	for _, n := range c.Nodes {
		total += n.TxnTime()
		count += n.Txns()
	}
	if count == 0 {
		return 0
	}
	return total / time.Duration(count)
}

// ConvergenceTimes returns each node's convergence time (last transaction
// activity relative to Start), the basis of Figures 8 and 9.
func (c *Cluster) ConvergenceTimes() []time.Duration {
	out := make([]time.Duration, len(c.Nodes))
	for i, n := range c.Nodes {
		la := n.LastActivity()
		if la.IsZero() {
			out[i] = 0
			continue
		}
		out[i] = la.Sub(c.startAt)
	}
	return out
}

// Rejections counts the rejected batches and dropped messages across nodes.
func (c *Cluster) Rejections() int64 {
	var n int64
	for _, node := range c.Nodes {
		n += node.Rejections()
	}
	return n
}

// Violations collects the errors each node keeps of its rejected batches and
// dropped messages (the first few of each node's, see dist.Node.Violations).
func (c *Cluster) Violations() []error {
	var out []error
	for _, n := range c.Nodes {
		out = append(out, n.Violations()...)
	}
	return out
}

// Query returns node i's extent of a predicate.
func (c *Cluster) Query(i int, pred string) []datalog.Tuple {
	return c.Nodes[i].WS.Tuples(pred)
}
