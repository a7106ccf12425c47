// Package cluster is SecureBlox's deployment subsystem: a declarative
// cluster configuration (principals, listen addresses, policy name, key
// material) with strict structural validation, a bootstrap/join handshake
// over the wire control records that turns the config into a live
// Membership with authoritative transport addresses and distributed public
// keys, and lifecycle management for one node of a multi-process deployment
// (ready barrier before the first transaction, graceful draining leave,
// context-based shutdown).
//
// The package validates the config's structure and never reads its policy
// name: internal/core parses the name and checks the declared keys and
// cluster secret against it (core.DeploymentPolicy), as internal/apps
// resolves the workload name. The runtime acts on the material the config
// declares — a node holding a key takes part in RSA key distribution, a set
// cluster secret yields pairwise secrets. It owns who is in the cluster and
// how a process joins, while core owns what the nodes compute (policy
// compilation, set-up facts and workspace assembly). core.NewCluster builds
// the same Membership statically for in-process runs, so memnet tests and
// real multi-process deployments share one code path from the directory down.
package cluster

// Member is one cluster participant: its principal identity, the
// authoritative transport address its endpoint actually bound (never a
// config hint), and its RSA public key in PKCS#1 DER under policies that
// use one (nil otherwise).
type Member struct {
	Principal string
	Addr      string
	PubKeyDER []byte
}

// Membership is the cluster's principal directory: every member in
// deployment order (the order fixes node indexes, and with them
// entity-space partitioning). It is immutable once bootstrap completes.
type Membership struct {
	Members []Member
}

// Addrs returns every member's transport address in deployment order.
func (m *Membership) Addrs() []string {
	out := make([]string, len(m.Members))
	for i, mb := range m.Members {
		out[i] = mb.Addr
	}
	return out
}

// Principals returns every member's principal name in deployment order.
func (m *Membership) Principals() []string {
	out := make([]string, len(m.Members))
	for i, mb := range m.Members {
		out[i] = mb.Principal
	}
	return out
}

// Index returns a principal's position in deployment order, or -1.
func (m *Membership) Index(principal string) int {
	for i, mb := range m.Members {
		if mb.Principal == principal {
			return i
		}
	}
	return -1
}

// ByAddr returns the member bound to a transport address.
func (m *Membership) ByAddr(addr string) (Member, bool) {
	for _, mb := range m.Members {
		if mb.Addr == addr {
			return mb, true
		}
	}
	return Member{}, false
}

// Names returns the addr→principal map the termination detector uses to
// name unresponsive nodes in errors.
func (m *Membership) Names() map[string]string {
	out := make(map[string]string, len(m.Members))
	for _, mb := range m.Members {
		out[mb.Addr] = mb.Principal
	}
	return out
}
