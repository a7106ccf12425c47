package core

import (
	"crypto/rsa"
	"fmt"

	"secureblox/internal/analysis"
	"secureblox/internal/cluster"
	"secureblox/internal/dist"
	"secureblox/internal/engine"
	"secureblox/internal/generics"
	"secureblox/internal/seccrypto"
	"secureblox/internal/transport"
	"secureblox/internal/udf"
	"secureblox/internal/wire"
)

// PolicyFromSpec maps a deployment config's syntactic policy spec to the
// semantic policy configuration core compiles. ParsePolicyName has already
// vouched for the spec's consistency.
func PolicyFromSpec(s cluster.PolicySpec) (PolicyConfig, error) {
	p := PolicyConfig{BatchSign: s.BatchSign, Encrypt: s.Encrypt}
	switch s.Auth {
	case "NoAuth":
		p.Auth = AuthNone
	case "HMAC":
		p.Auth = AuthHMAC
	case "RSA":
		p.Auth = AuthRSA
	default:
		return p, fmt.Errorf("core: unknown auth scheme %q", s.Auth)
	}
	return p, nil
}

// CompileProgram compiles a user query together with a policy
// configuration (and any extra BloxGenerics sources) into the concrete
// program every node of a deployment installs. The program is identical on
// every node, so multi-process deployments compile it once per process and
// the in-process driver once per cluster.
func CompileProgram(p PolicyConfig, query string, extra []string) (*generics.Result, error) {
	if p.BatchSign && p.Auth != AuthRSA {
		return nil, fmt.Errorf("core: BatchSign requires the RSA scheme, got %s", p.Auth)
	}
	gc := generics.NewCompiler()
	for _, src := range p.Sources() {
		if err := gc.AddPolicy(src); err != nil {
			return nil, fmt.Errorf("core: policy: %w", err)
		}
	}
	for _, src := range extra {
		if err := gc.AddPolicy(src); err != nil {
			return nil, fmt.Errorf("core: extra policy: %w", err)
		}
	}
	if err := gc.AddPolicy(dist.ExportDecl); err != nil {
		return nil, err
	}
	res, err := gc.Compile(query)
	if err != nil {
		return nil, fmt.Errorf("core: compile: %w", err)
	}
	return res, nil
}

// Exportables lists the predicates a compiled program declares exportable.
func Exportables(res *generics.Result) []string {
	var out []string
	for _, t := range res.MetaFacts["exportable"] {
		out = append(out, t[0])
	}
	return out
}

// NodeAssembly holds everything needed to stand up one SecureBlox node
// over an open endpoint: the compiled program, the cluster directory, the
// node's keystore and the shared crypto pools. It is the one code path
// both deployments share — core.NewCluster assembles N of these over a
// statically built Membership, cmd/sbxnode assembles exactly one over the
// Membership the join handshake established.
type NodeAssembly struct {
	// Policy is the security configuration the program was compiled with.
	Policy PolicyConfig
	// Compiled is the program from CompileProgram.
	Compiled *generics.Result
	// Directory is the cluster membership with authoritative addresses.
	Directory *cluster.Membership
	// Index is this node's position in deployment order; it also
	// partitions the entity-id space so nodes mint disjoint entities.
	Index int
	// KeyStore holds this node's private key, peer public keys and
	// pairwise secrets, as the policy requires.
	KeyStore *seccrypto.KeyStore
	// Endpoint is the node's bound transport endpoint; the node takes
	// ownership.
	Endpoint transport.Transport
	// VerifyPool/SignPool are the shared RSA worker pools (nil under
	// non-RSA policies).
	VerifyPool *seccrypto.VerifyPool
	SignPool   *seccrypto.SignPool
	// Seed drives deterministic UDF randomness.
	Seed int64
	// TrustAll and GrantWriteAccess mirror ClusterConfig's directory
	// pre-population switches.
	TrustAll         bool
	GrantWriteAccess bool
	// Vet runs the static analyzer over the compiled program at install
	// time and rejects it when any error-class finding is reported — the
	// same pre-flight `sbx vet` and `sbxnode -vet` run explicitly.
	Vet bool
}

// Build constructs the node: a workspace with per-node keystore-bound
// UDFs, the installed program, the asserted principal directory and key
// material, and a dist.Node wired with the policy's pre-verify and
// batch-signing hooks.
func (a NodeAssembly) Build() (*dist.Node, error) {
	me := a.Directory.Members[a.Index]
	reg, err := udf.NewRegistryWithPools(a.KeyStore, seccrypto.NewDeterministicRand(a.Seed+2), a.VerifyPool, a.SignPool)
	if err != nil {
		return nil, err
	}
	ws := engine.NewWorkspace(reg)
	ws.EntityBase = int64(a.Index+1) << 40 // node-disjoint entity ids
	if a.Vet {
		ws.InstallCheck = (&analysis.Analyzer{UDFs: reg}).InstallCheck()
	}
	if err := ws.Install(a.Compiled.Program); err != nil {
		return nil, fmt.Errorf("core: install on %s: %w", me.Principal, err)
	}
	sc := cluster.SetupConfig{
		RSA:           a.Policy.Auth == AuthRSA,
		SharedSecrets: a.Policy.Auth == AuthHMAC || a.Policy.Encrypt,
		TrustAll:      a.Policy.Delegation == DelegateTrustworthy && a.TrustAll,
	}
	if a.Policy.Authorization && a.GrantWriteAccess {
		sc.WriteAccessPreds = Exportables(a.Compiled)
	}
	if _, err := ws.Assert(cluster.SetupFacts(a.Directory, a.Index, a.KeyStore, sc)); err != nil {
		return nil, fmt.Errorf("core: setup on %s: %w", me.Principal, err)
	}
	n := dist.NewNode(me.Principal, ws, a.Endpoint)
	n.SetPeers(a.Directory.Addrs())
	if a.Policy.Auth == AuthRSA {
		n.PreVerify = a.preVerifier()
	}
	if a.Policy.BatchSign {
		a.bindBatchSigner(n)
	}
	return n, nil
}

// bindBatchSigner installs the outbound batch-signing hooks on one node:
// the group root of each shipping transaction's envelopes is signed with the
// node's private key through the shared signing pool, whose memo turns the
// warm-up issued at enqueue time into a cache hit by the time the sender
// stage needs the signature (footnote 2's "sign batch aggregates").
func (a NodeAssembly) bindBatchSigner(n *dist.Node) {
	priv := a.KeyStore.PrivateKey()
	privDER := a.KeyStore.PrivateKeyDER()
	spool := a.SignPool
	n.SignBatch = func(root []byte) ([]byte, error) {
		return spool.Sign(priv, privDER, root)
	}
	n.WarmSignBatch = func(root []byte) {
		spool.Warm(priv, privDER, root)
	}
}

// preVerifier builds a node's inbound pre-verification hook: payloads from
// a known peer address are decoded speculatively and their signatures
// submitted to the shared worker pool against the claimed sender's public
// key — the same key the sigRSA policy's verification constraint will look
// up, so the cached result is exactly what the transaction consumes. A
// batch envelope instead warms one check of its group signature over
// msg.BatchRoot() — the value admission records as export_batch's D, hence
// the exact triple the sigRSABatch constraint will ask the pool for, once
// per envelope.
// Encrypted or undecodable payloads are skipped; they verify inline inside
// the transaction as before. This is an accelerator only: acceptance is
// still decided by the compiled policy constraints.
func (a NodeAssembly) preVerifier() func(wire.Message) {
	type pubEntry struct {
		pub *rsa.PublicKey
		der []byte
	}
	byAddr := make(map[string]pubEntry, len(a.Directory.Members))
	for _, m := range a.Directory.Members {
		pub, err := a.KeyStore.ParsePub(m.PubKeyDER)
		if err != nil {
			continue
		}
		byAddr[m.Addr] = pubEntry{pub: pub, der: m.PubKeyDER}
	}
	pool := a.VerifyPool
	return func(msg wire.Message) {
		pe, ok := byAddr[msg.From]
		if !ok {
			return
		}
		if msg.Kind == wire.MsgBatch {
			if len(msg.Sig) > 0 && len(msg.Payloads) > 0 {
				pool.Warm(pe.pub, pe.der, msg.BatchRoot(), msg.Sig)
			}
			return
		}
		for _, pl := range msg.Payloads {
			p, err := wire.DecodePayload(pl)
			if err != nil || len(p.Sig) == 0 {
				continue
			}
			pool.Warm(pe.pub, pe.der, wire.SigData(p.Pred, p.Vals), p.Sig)
		}
	}
}
