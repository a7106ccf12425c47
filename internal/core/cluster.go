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
	// TrustAllPrincipals, with DelegateTrustworthy, pre-populates
	// trustworthy(P) for every cluster principal.
	TrustAllPrincipals bool
	// GrantWriteAccess, with Policy.Authorization, grants
	// writeAccess[T](P) for every exportable T and cluster principal P.
	GrantWriteAccess bool
	// Net is the transport the cluster runs over. Nil means a fresh
	// in-process MemNetwork. The cluster takes ownership: Stop closes it.
	Net transport.Network
	// Vet makes every node reject the compiled program at install time when
	// the static analyzer reports error-class findings (NodeAssembly.Vet).
	Vet bool
}

// Cluster is a set of SecureBlox nodes over one network, plus the compiled
// program they all run. Fixpoint detection is fully distributed: a
// wire-level termination detector shares the nodes' transport and no
// in-process state. Its constructors build statically the same
// cluster.Membership that multi-process deployments establish through the
// join handshake — the per-node assembly below the directory
// (NodeAssembly.Build) is one shared code path.
type Cluster struct {
	Cfg        ClusterConfig
	Net        transport.Network
	Nodes      []*dist.Node
	Principals []string
	// Addrs are the nodes' actual transport addresses (indexed like
	// Nodes). Over memnet they equal NodeAddr(i); over real sockets they
	// are whatever the endpoints bound, so always prefer Addrs over
	// NodeAddr when building address-valued facts.
	Addrs    []string
	Compiled *generics.Result
	// Directory is the cluster's principal directory — the same
	// abstraction a multi-process deployment receives from the bootstrap
	// handshake, built statically here because every endpoint lives in
	// this process.
	Directory *cluster.Membership
	// KeyStores holds each node's key material (indexed like Nodes), so
	// applications can install additional keys (e.g. onion-circuit keys)
	// before Start.
	KeyStores []*seccrypto.KeyStore

	det   *dist.Detector
	pool  *seccrypto.VerifyPool
	spool *seccrypto.SignPool

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

// nodeIdentity is what the constructor must know about one member before
// the directory can be built: who it is, where it would like to listen, and
// its key material. Where these come from is the only thing that differs
// between NewCluster and NewClusterFromConfig.
type nodeIdentity struct {
	principal string
	listen    string // address hint for Network.Listen
	keys      *seccrypto.KeyStore
	pubDER    []byte // RSA public key (PKCS#1 DER); nil under policies without one
}

// NewCluster compiles the query with the policy via BloxGenerics, opens one
// endpoint per node on the configured network (plus one for the
// termination detector), builds N workspaces with per-node keystore-bound
// UDFs, installs the program, and asserts the principal directory and key
// material — keypairs and node assemblies GOMAXPROCS at a time (par.Do), as
// the deployment's machines each do their own at once. The directory carries
// the endpoints' real bound addresses, so the same scenario runs unchanged
// over memnet and UDP. Principals are PrincipalName(i) listening at
// NodeAddr(i), with key material generated from cfg.Seed (see
// ClusterConfig.Seed for what that reproduces).
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	return newCluster(cfg, func() ([]nodeIdentity, error) {
		if cfg.N <= 0 {
			return nil, fmt.Errorf("cluster: N must be positive, got %d", cfg.N)
		}
		principals := make([]string, cfg.N)
		for i := range principals {
			principals[i] = PrincipalName(i)
		}
		// RSA keypairs only for the policy that signs with them: generating
		// them dominates cluster set-up, and no other policy reads a key.
		newSetup := seccrypto.NewSecretSetup
		if cfg.Policy.Auth == AuthRSA {
			newSetup = seccrypto.NewTrustSetup
		}
		ts, err := newSetup(principals, seccrypto.NewDeterministicRand(cfg.Seed+1))
		if err != nil {
			return nil, err
		}
		ids := make([]nodeIdentity, cfg.N)
		for i, p := range principals {
			ks := ts.Stores[p]
			ids[i] = nodeIdentity{principal: p, listen: NodeAddr(i), keys: ks, pubDER: ks.PublicKeyDER(p)}
		}
		return ids, nil
	})
}

// NewClusterFromConfig is NewCluster for a declarative deployment config:
// principals, listen addresses and key material come from dc — key files or
// inline PEM, pairwise secrets derived from the cluster secret, exactly what
// each process of the multi-process deployment loads for itself in
// cluster.NewRuntime — instead of being generated from cfg.Seed, and cfg.N
// is ignored. From the directory down it is NewCluster. cfg.Policy must be
// the scheme dc names (PolicyFromSpec), with the delegation and
// authorization modes a deployment config does not express.
func NewClusterFromConfig(dc *cluster.Config, cfg ClusterConfig) (*Cluster, error) {
	return newCluster(cfg, func() ([]nodeIdentity, error) {
		if got, want := cfg.Policy.Name(), dc.Spec().Name(); got != want {
			return nil, fmt.Errorf("cluster: policy %s does not match the config's %s", got, want)
		}
		ids := make([]nodeIdentity, len(dc.Nodes))
		for i, nc := range dc.Nodes {
			priv, err := dc.LoadNodeKey(nc.Principal)
			if err != nil {
				return nil, err
			}
			ks := dc.BuildKeyStore(nc.Principal, priv)
			ids[i] = nodeIdentity{principal: nc.Principal, listen: nc.Addr, keys: ks, pubDER: ks.PublicKeyDER(nc.Principal)}
		}
		// Separate processes learn their peers' public keys from the join
		// directory; with every member in one process they are at hand.
		for _, id := range ids {
			for _, peer := range ids {
				if k := peer.keys.PrivateKey(); k != nil {
					id.keys.AddPublicKey(peer.principal, &k.PublicKey)
				}
			}
		}
		return ids, nil
	})
}

// newCluster is the one constructor: everything but where the members'
// identities come from.
func newCluster(cfg ClusterConfig, identities func() ([]nodeIdentity, error)) (*Cluster, error) {
	net := cfg.Net
	if net == nil {
		net = transport.NewMemNetwork()
	}
	c := &Cluster{Net: net}
	// On any construction error, release what was already acquired: the
	// network owns every endpoint handed out (including the detector's),
	// and the crypto pools own worker goroutines. Callers only get the
	// error, so nothing else could clean these up.
	built := false
	defer func() {
		if !built {
			net.Close()
			if c.pool != nil {
				c.pool.Close()
			}
			if c.spool != nil {
				c.spool.Close()
			}
		}
	}()
	t := time.Now()
	ids, err := identities()
	if err != nil {
		return nil, err
	}
	keys := time.Since(t)
	cfg.N = len(ids)
	c.Cfg = cfg
	// Endpoints first: socket-backed networks only know their addresses
	// after binding, and the principal directory must carry real ones. The
	// directory is built statically here and established by the bootstrap
	// handshake in multi-process deployments; everything below it is shared.
	eps := make([]transport.Transport, len(ids))
	c.Directory = &cluster.Membership{Members: make([]cluster.Member, len(ids))}
	for i, id := range ids {
		ep, err := net.Listen(id.listen)
		if err != nil {
			return nil, fmt.Errorf("cluster: listen for node %s: %w", id.principal, err)
		}
		eps[i] = ep
		c.Principals = append(c.Principals, id.principal)
		c.Addrs = append(c.Addrs, ep.Addr())
		c.KeyStores = append(c.KeyStores, id.keys)
		c.Directory.Members[i] = cluster.Member{Principal: id.principal, Addr: ep.Addr(), PubKeyDER: id.pubDER}
	}
	detEp, err := net.Listen(detectorAddr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen for detector: %w", err)
	}
	c.det = dist.NewDetector(detEp, c.Addrs)
	c.det.Names = c.Directory.Names()

	// Compile once: the program is identical on every node.
	t = time.Now()
	c.Compiled, err = CompileProgram(cfg.Policy, cfg.Query, cfg.ExtraPolicies)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	compile := time.Since(t)

	if cfg.Policy.Auth == AuthRSA {
		c.pool = seccrypto.NewVerifyPool(0)
		// Outbound mirror of the verify pool: rsa_sign memoizes across
		// re-derivations, and batch mode signs envelope digests here too.
		c.spool = seccrypto.NewSignPool(0)
	}

	// Every node installs its own copy of the program at the same time, as
	// the deployment's machines do; each writes only its own slot.
	c.Nodes = make([]*dist.Node, len(ids))
	t = time.Now()
	err = par.Do(len(ids), func(i int) error {
		n, err := NodeAssembly{
			Policy:           cfg.Policy,
			Compiled:         c.Compiled,
			Directory:        c.Directory,
			Index:            i,
			KeyStore:         ids[i].keys,
			Endpoint:         eps[i],
			VerifyPool:       c.pool,
			SignPool:         c.spool,
			Seed:             cfg.Seed,
			TrustAll:         cfg.TrustAllPrincipals,
			GrantWriteAccess: cfg.GrantWriteAccess,
			Vet:              cfg.Vet,
		}.Build()
		if err != nil {
			return fmt.Errorf("cluster: node %s: %w", ids[i].principal, err)
		}
		c.Nodes[i] = n
		return nil
	})
	if err != nil {
		return nil, err
	}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
	obs.L().Info("cluster set up", "nodes", len(ids), "workers", par.Workers(len(ids)),
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
	if c.pool != nil {
		c.pool.Close()
	}
	if c.spool != nil {
		c.spool.Close()
	}
}

// AssertAt enqueues base facts at node i.
func (c *Cluster) AssertAt(i int, facts []engine.Fact) {
	c.Nodes[i].Assert(facts)
}

// RetractAt enqueues a base-fact retraction at node i.
func (c *Cluster) RetractAt(i int, facts []engine.Fact) {
	c.Nodes[i].Retract(facts)
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
// answering probes, or ctx's error.
func (c *Cluster) WaitFixpointCtx(ctx context.Context) (time.Duration, error) {
	if err := c.det.WaitQuiescent(ctx); err != nil {
		return 0, err
	}
	return time.Since(c.startAt), nil
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
		tr := n.Metrics.Traffic()
		out[i] = tr.BytesSent + tr.BytesRecv
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
		cnt, mean := n.Metrics.TxnStats()
		total += mean * time.Duration(cnt)
		count += cnt
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
		la := n.Metrics.LastActivity()
		if la.IsZero() {
			out[i] = 0
			continue
		}
		out[i] = la.Sub(c.startAt)
	}
	return out
}

// Violations collects all rejected batches across nodes.
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
