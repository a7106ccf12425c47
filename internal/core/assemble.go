package core

import (
	"fmt"

	"secureblox/internal/cluster"
	"secureblox/internal/dist"
	"secureblox/internal/engine"
	"secureblox/internal/generics"
	"secureblox/internal/seccrypto"
	"secureblox/internal/transport"
	"secureblox/internal/udf"
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
// node's keystore and the shared crypto memos. It is the one code path
// both cluster paths share — core.NewCluster assembles N of these over a
// statically built Membership, cmd/sbxnode's runNode assembles one per
// principal over the Membership the join handshake established.
type NodeAssembly struct {
	// Policy is the security configuration the program was compiled with.
	Policy PolicyConfig
	// Compiled is the program from CompileProgram, and Program its engine
	// plans from CompileEngine, shared by every node of the process.
	Compiled *generics.Result
	Program  *engine.Program
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
	// VerifyPool/SignPool are the shared RSA memos (nil under non-RSA
	// policies).
	VerifyPool *seccrypto.VerifyPool
	SignPool   *seccrypto.SignPool
	// Seed drives deterministic UDF randomness.
	Seed int64
	// GrantWriteAccess mirrors ClusterConfig's.
	GrantWriteAccess bool
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
	sc := cluster.SetupConfig{
		RSA:           a.Policy.Auth == AuthRSA,
		SharedSecrets: a.Policy.Auth == AuthHMAC || a.Policy.Encrypt,
	}
	if a.Policy.Authorization && a.GrantWriteAccess {
		sc.WriteAccessPreds = Exportables(a.Compiled)
	}
	if _, err := ws.Assert(cluster.SetupFacts(a.Directory, a.Index, a.KeyStore, sc)); err != nil {
		return nil, fmt.Errorf("core: setup on %s: %w", me.Principal, err)
	}
	n := dist.NewNode(me.Principal, ws, a.Endpoint)
	n.SetPeers(a.Directory.Addrs())
	if a.Policy.BatchSign {
		priv, privDER, spool := a.KeyStore.PrivateKey(), a.KeyStore.PrivateKeyDER(), a.SignPool
		// Footnote 2's "sign batch aggregates": one signature per group of a
		// shipping transaction's envelopes, with the node's private key.
		n.SignBatch = func(root []byte) ([]byte, error) {
			return spool.Sign(priv, privDER, root)
		}
	}
	return n, nil
}
