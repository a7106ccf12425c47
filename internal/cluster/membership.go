// Package cluster is SecureBlox's deployment subsystem: a declarative
// cluster configuration (principals, listen addresses, policy name, key
// material) with strict validation, a bootstrap/join handshake over the
// wire control records that turns the config into a live Membership with
// authoritative transport addresses and distributed public keys, and
// lifecycle management for one node of a multi-process deployment (ready
// barrier before the first transaction, graceful draining leave,
// context-based shutdown).
//
// The package is policy-agnostic on purpose: it owns who is in the cluster
// and how a process joins, while internal/core owns what the nodes compute
// (policy compilation and workspace assembly). core.NewCluster builds the
// same Membership statically for in-process runs, so memnet tests and real
// multi-process deployments share one code path from the directory down.
package cluster

import (
	"secureblox/internal/datalog"
	"secureblox/internal/engine"
	"secureblox/internal/seccrypto"
)

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

// SetupConfig selects which key material SetupFacts asserts alongside the
// principal directory; the caller derives it from its policy configuration.
type SetupConfig struct {
	// RSA asserts private_key[] from the keystore and public_key(P, DER)
	// from each member's directory entry.
	RSA bool
	// SharedSecrets asserts secret(P, S) for every peer from the keystore's
	// pairwise secrets (HMAC authentication and AES encryption).
	SharedSecrets bool
	// WriteAccessPreds grants writeAccess$T(P) for every member and every
	// listed exportable predicate T.
	WriteAccessPreds []string
}

// SetupFacts builds the base facts one node asserts before its first
// transaction: the principal directory (self, principals, their transport
// addresses) and the configured key material — the out-of-band
// dissemination of §3, whether the directory came from an in-process
// constructor or from the join handshake.
func SetupFacts(m *Membership, self int, ks *seccrypto.KeyStore, sc SetupConfig) []engine.Fact {
	var facts []engine.Fact
	selfPrin := datalog.Prin(m.Members[self].Principal)
	facts = append(facts, engine.Fact{Pred: "self", Tuple: datalog.Tuple{selfPrin}})
	for _, mb := range m.Members {
		pv := datalog.Prin(mb.Principal)
		facts = append(facts,
			engine.Fact{Pred: "principal", Tuple: datalog.Tuple{pv}},
			engine.Fact{Pred: "principal_node", Tuple: datalog.Tuple{pv, datalog.NodeV(mb.Addr)}},
		)
		for _, t := range sc.WriteAccessPreds {
			facts = append(facts, engine.Fact{Pred: "writeAccess$" + t, Tuple: datalog.Tuple{pv}})
		}
	}
	if sc.RSA {
		facts = append(facts, engine.Fact{Pred: "private_key", Tuple: datalog.Tuple{datalog.BytesV(ks.PrivateKeyDER())}})
		for _, mb := range m.Members {
			facts = append(facts, engine.Fact{
				Pred:  "public_key",
				Tuple: datalog.Tuple{datalog.Prin(mb.Principal), datalog.BytesV(mb.PubKeyDER)},
			})
		}
	}
	if sc.SharedSecrets {
		for _, mb := range m.Members {
			if mb.Principal == m.Members[self].Principal {
				continue
			}
			facts = append(facts, engine.Fact{
				Pred:  "secret",
				Tuple: datalog.Tuple{datalog.Prin(mb.Principal), datalog.BytesV(ks.Secret(mb.Principal))},
			})
		}
	}
	return facts
}
