package core

import (
	"fmt"

	"secureblox/internal/cluster"
	"secureblox/internal/datalog"
	"secureblox/internal/dist"
	"secureblox/internal/engine"
	"secureblox/internal/generics"
	"secureblox/internal/seccrypto"
	"secureblox/internal/transport"
	"secureblox/internal/udf"
)

// DeploymentPolicy is the policy a deployment config names, checked against
// the key material the config declares: every node holds an RSA key exactly
// when the scheme signs with RSA, and the cluster secret is set, long enough,
// exactly when the policy uses pairwise secrets. The config's structure is
// cluster.Config.Validate's to check; sbxnode calls this before any mode runs.
func DeploymentPolicy(c *cluster.Config) (PolicyConfig, error) {
	p, err := ParsePolicyName(c.Policy)
	if err != nil {
		return p, err
	}
	for _, n := range c.Nodes {
		switch hasKey := n.KeyFile != "" || n.KeyPEM != ""; {
		case p.Auth == AuthRSA && !hasKey:
			return p, fmt.Errorf("core: config: node %q: policy %s needs an RSA key (key_file or key_pem)", n.Principal, c.Policy)
		case p.Auth != AuthRSA && hasKey:
			return p, fmt.Errorf("core: config: node %q declares a key but policy %s uses none", n.Principal, c.Policy)
		}
	}
	switch secret := c.Secret(); {
	case p.usesSecrets() && len(secret) < seccrypto.SecretLen:
		return p, fmt.Errorf("core: config: policy %s needs a cluster_secret of at least %d hex-encoded bytes, got %d", c.Policy, seccrypto.SecretLen, len(secret))
	case !p.usesSecrets() && secret != nil:
		return p, fmt.Errorf("core: config: cluster_secret set but policy %s uses no shared secrets", c.Policy)
	}
	return p, nil
}

// CompileProgram compiles a user query together with a policy
// configuration (and any extra BloxGenerics sources) into the concrete
// program every node of a deployment installs. The program is identical on
// every node, so multi-process deployments compile it once per process and
// the in-process driver once per cluster.
func CompileProgram(p PolicyConfig, query string, extra []string) (*generics.Result, error) {
	if err := p.check(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
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

// CompileEngine plans a compiled program once for every node of the process:
// each node's workspace binds the result (NodeAssembly.Program) with its own
// keystore-bound UDFs. The plans need only the library's UDF names and binding
// shapes, so an empty keystore stands in for the nodes'. The static analyzer is
// a separate pre-flight: `sbx vet` and `sbxnode -vet` run it.
func CompileEngine(res *generics.Result) (*engine.Program, error) {
	reg, err := udf.NewRegistry(seccrypto.NewKeyStore(""), nil)
	if err != nil {
		return nil, err
	}
	return engine.Compile(res.Program, reg)
}

// NodeAssembly holds everything needed to stand up one SecureBlox node
// over an open endpoint: the compiled program, the cluster directory, the
// node's keystore and the shared crypto memos. It is the one code path
// both cluster paths share — core.NewCluster assembles N of these over a
// statically built Membership, cmd/sbxnode's runNode assembles one per
// principal over the Membership the join handshake established.
type NodeAssembly struct {
	// Policy is the security configuration the program was compiled with;
	// it also selects the key material the node's set-up facts carry.
	Policy PolicyConfig
	// Program is the engine plans of CompileProgram's result, from
	// CompileEngine, shared by every node of the process.
	Program *engine.Program
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
	// VerifyPool is the shared RSA verification memo (nil under non-RSA
	// policies); SignPool the shared rsa_sign memo (nil unless the policy
	// signs per tuple with RSA).
	VerifyPool *seccrypto.VerifyPool
	SignPool   *seccrypto.SignPool
	// Seed drives deterministic UDF randomness.
	Seed int64
}

// Memos returns the RSA memos the nodes of one process share under p: under
// RSA a verification memo, which rsa_verify and rsa_verify_batch consult, and
// under per-tuple RSA also a signing memo for rsa_sign. RSA-batch runs no
// rsa_sign and signs each group root once, so it gets none. Both are nil
// under the other schemes.
func (p PolicyConfig) Memos() (*seccrypto.VerifyPool, *seccrypto.SignPool) {
	if p.Auth != AuthRSA {
		return nil, nil
	}
	if p.BatchSign {
		return seccrypto.NewVerifyPool(), nil
	}
	return seccrypto.NewVerifyPool(), seccrypto.NewSignPool()
}

// Build constructs the node: a workspace with per-node keystore-bound
// UDFs bound to the shared program, the asserted principal directory and key
// material, and a dist.Node wired with the policy's batch-signing hook.
func (a NodeAssembly) Build() (*dist.Node, error) {
	me := a.Directory.Members[a.Index]
	reg, err := udf.NewRegistryWithPools(a.KeyStore, seccrypto.NewDeterministicRand(a.Seed+2), a.VerifyPool, a.SignPool)
	if err != nil {
		return nil, err
	}
	ws := engine.NewWorkspace(reg)
	ws.EntityBase = int64(a.Index+1) << 40 // node-disjoint entity ids
	if err := ws.Bind(a.Program); err != nil {
		return nil, fmt.Errorf("core: install on %s: %w", me.Principal, err)
	}
	if _, err := ws.Assert(a.setupFacts()); err != nil {
		return nil, fmt.Errorf("core: setup on %s: %w", me.Principal, err)
	}
	n := dist.NewNode(me.Principal, ws, a.Endpoint)
	n.SetPeers(a.Directory.Addrs())
	if a.Policy.BatchSign {
		priv := a.KeyStore.PrivateKey()
		// Footnote 2's "sign batch aggregates": one signature per group of a
		// shipping transaction's envelopes, with the node's private key. Each
		// group root is signed once, so there is nothing to memoize.
		n.SignBatch = func(root []byte) ([]byte, error) {
			return seccrypto.RSASign(priv, root)
		}
	}
	return n, nil
}

// setupFacts builds the base facts the node asserts before its first
// transaction: the principal directory (self, principals, their transport
// addresses) and the key material its policy reads — the out-of-band
// dissemination of §3, whether the directory came from core.NewCluster or
// from the join handshake.
func (a NodeAssembly) setupFacts() []engine.Fact {
	m := a.Directory
	self := m.Members[a.Index].Principal
	facts := []engine.Fact{{Pred: "self", Tuple: datalog.Tuple{datalog.Prin(self)}}}
	for _, mb := range m.Members {
		pv := datalog.Prin(mb.Principal)
		facts = append(facts,
			engine.Fact{Pred: "principal", Tuple: datalog.Tuple{pv}},
			engine.Fact{Pred: "principal_node", Tuple: datalog.Tuple{pv, datalog.NodeV(mb.Addr)}},
		)
	}
	if a.Policy.Auth == AuthRSA {
		facts = append(facts, engine.Fact{Pred: "private_key", Tuple: datalog.Tuple{datalog.BytesV(a.KeyStore.PrivateKeyDER())}})
		for _, mb := range m.Members {
			facts = append(facts, engine.Fact{
				Pred:  "public_key",
				Tuple: datalog.Tuple{datalog.Prin(mb.Principal), datalog.BytesV(mb.PubKeyDER)},
			})
		}
	}
	if a.Policy.usesSecrets() {
		for _, mb := range m.Members {
			if mb.Principal == self {
				continue
			}
			facts = append(facts, engine.Fact{
				Pred:  "secret",
				Tuple: datalog.Tuple{datalog.Prin(mb.Principal), datalog.BytesV(a.KeyStore.Secret(mb.Principal))},
			})
		}
	}
	return facts
}
